package dispatch_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// startSystem brings up a dispatcher with n executors and a client.
func startSystem(t *testing.T, dopts dispatch.Options, copts client.Options, nExec int, eopts executor.Options) (*dispatch.Dispatcher, *client.Client, []*executor.Executor) {
	t.Helper()
	if dopts.Logf == nil {
		dopts.Logf = t.Logf
	}
	d := dispatch.New(dopts)
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	execs := make([]*executor.Executor, 0, nExec)
	for i := 0; i < nExec; i++ {
		o := eopts
		o.ID = fmt.Sprintf("exec-%d", i)
		o.DispatcherAddr = d.Addr()
		o.Security = dopts.Security
		o.PSK = dopts.PSK
		if o.SleepScale == 0 {
			o.SleepScale = 0.001 // compress synthetic seconds to milliseconds
		}
		ex, err := executor.Start(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
		execs = append(execs, ex)
	}

	copts.DispatcherAddr = d.Addr()
	copts.Security = dopts.Security
	copts.PSK = dopts.PSK
	c, err := client.Connect(copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return d, c, execs
}

func TestEndToEndSleepTasks(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{}, 4, executor.Options{})
	var gen task.IDGen
	tasks := task.Batch(&gen, 100, 0)
	if err := c.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	results, err := c.WaitN(100, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool)
	for _, r := range results {
		if r.Failed() {
			t.Fatalf("task %v failed: %+v", r.ID, r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate result for %v", r.ID)
		}
		seen[r.ID] = true
		if r.DispatchedAt < r.QueuedAt || r.FinishedAt < r.StartedAt || r.StartedAt < r.DispatchedAt {
			t.Fatalf("inconsistent timing: %+v", r)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("got %d unique results", len(seen))
	}
	st := d.Stats()
	if st.Completed != 100 || st.Queued != 0 || st.Outstanding != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEndToEndWithBundlingAndManyExecutors(t *testing.T) {
	_, c, _ := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 50}, 8, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 500, 0)); err != nil {
		t.Fatal(err)
	}
	results, err := c.WaitN(500, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 500 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestEndToEndSecure(t *testing.T) {
	psk := []byte("integration-key")
	dopts := dispatch.Options{Security: wsrpc.SecuritySecureConversation, PSK: psk}
	_, c, _ := startSystem(t, dopts, client.Options{BundleSize: 10}, 2, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 50, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(50, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestPollingClient(t *testing.T) {
	_, c, _ := startSystem(t, dispatch.Options{}, client.Options{Poll: true, PollInterval: 20 * time.Millisecond}, 2, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 30, 0)); err != nil {
		t.Fatal(err)
	}
	results, err := c.WaitN(30, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestFuncEngineTasks(t *testing.T) {
	eopts := executor.Options{
		Funcs: map[string]executor.Func{
			"greet": func(tk task.Task) (string, int, error) {
				return "hello " + tk.Args[0], 0, nil
			},
		},
	}
	_, c, _ := startSystem(t, dispatch.Options{}, client.Options{}, 1, eopts)
	err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "greet", Args: []string{"falkon"}}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Stdout != "hello falkon" {
		t.Fatalf("stdout = %q", rs[0].Stdout)
	}
}

func TestFailedTaskRetriesThenReports(t *testing.T) {
	attempts := 0
	eopts := executor.Options{
		Funcs: map[string]executor.Func{
			"flaky": func(task.Task) (string, int, error) {
				attempts++
				if attempts < 3 {
					return "", 1, nil // fail twice
				}
				return "ok", 0, nil
			},
		},
	}
	_, c, _ := startSystem(t, dispatch.Options{MaxRetries: 3}, client.Options{}, 1, eopts)
	if err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "flaky"}}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Failed() {
		t.Fatalf("task failed after retries: %+v", rs[0])
	}
	if rs[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", rs[0].Attempts)
	}
}

func TestRetriesExhausted(t *testing.T) {
	eopts := executor.Options{
		Funcs: map[string]executor.Func{
			"alwaysfail": func(task.Task) (string, int, error) { return "", 7, nil },
		},
	}
	d, c, _ := startSystem(t, dispatch.Options{MaxRetries: 2}, client.Options{}, 1, eopts)
	if err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "alwaysfail"}}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Failed() {
		t.Fatalf("result = %+v, want failure", rs[0])
	}
	st := d.Stats()
	if st.Failed != 1 {
		t.Fatalf("stats.Failed = %d", st.Failed)
	}
	if st.Retried != 2 {
		t.Fatalf("stats.Retried = %d, want 2", st.Retried)
	}
}

func TestNoRetryOnFailure(t *testing.T) {
	eopts := executor.Options{
		Funcs: map[string]executor.Func{
			"fail": func(task.Task) (string, int, error) { return "", 3, nil },
		},
	}
	_, c, _ := startSystem(t, dispatch.Options{NoRetryOnFailure: true}, client.Options{}, 1, eopts)
	if err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "fail"}}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].ExitCode != 3 || rs[0].Attempts != 1 {
		t.Fatalf("result = %+v, want exit 3 after 1 attempt", rs[0])
	}
}

func TestExecutorDisconnectReplaysTasks(t *testing.T) {
	// One executor that hangs, one healthy executor started later: the
	// hung executor's tasks must be replayed to the healthy one.
	block := make(chan struct{})
	hang := executor.Options{
		Funcs: map[string]executor.Func{
			"work": func(task.Task) (string, int, error) {
				<-block
				return "", 0, nil
			},
		},
	}
	d, c, execs := startSystem(t, dispatch.Options{}, client.Options{}, 1, hang)
	if err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "work"}}); err != nil {
		t.Fatal(err)
	}
	// Wait for the hung executor to pick the task up.
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().Outstanding == 0 {
		if time.Now().After(deadline) {
			t.Fatal("task never dispatched")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Start a healthy executor, then kill the hung one's connection.
	healthy, err := executor.Start(executor.Options{
		ID:             "healthy",
		DispatcherAddr: d.Addr(),
		Funcs: map[string]executor.Func{
			"work": func(task.Task) (string, int, error) { return "done", 0, nil },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Stop()
	close(block)
	execs[0].Stop()
	rs, err := c.WaitN(1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Failed() {
		t.Fatalf("replayed task failed: %+v", rs[0])
	}
}

func TestReplayTimeout(t *testing.T) {
	// A task held past the replay timeout is re-dispatched even though the
	// original executor stays connected.
	block := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	eopts := executor.Options{
		Slots: 2,
		Funcs: map[string]executor.Func{
			"work": func(task.Task) (string, int, error) {
				if first.CompareAndSwap(true, false) {
					<-block
					return "late", 0, nil
				}
				return "fresh", 0, nil
			},
		},
	}
	defer close(block)
	_, c, _ := startSystem(t, dispatch.Options{ReplayTimeout: 200 * time.Millisecond}, client.Options{}, 1, eopts)
	if err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "work"}}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Stdout != "fresh" {
		t.Fatalf("stdout = %q, want replay to fresh slot", rs[0].Stdout)
	}
	if rs[0].Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2", rs[0].Attempts)
	}
}

func TestMultipleInstancesIsolated(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ex, err := executor.Start(executor.Options{ID: "e0", DispatcherAddr: d.Addr(), SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()

	c1, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), Name: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), Name: "c2"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c1.EPR() == c2.EPR() {
		t.Fatal("instances share an EPR")
	}
	var gen task.IDGen
	if err := c1.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	r1, err := c1.WaitN(10, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.WaitN(10, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 10 || len(r2) != 10 {
		t.Fatalf("results split %d/%d", len(r1), len(r2))
	}
	if st := d.Stats(); st.Instances != 2 {
		t.Fatalf("instances = %d", st.Instances)
	}
}

func TestDestroyInstanceDropsQueuedTasks(t *testing.T) {
	// No executors: tasks stay queued; destroying the instance must drop
	// them.
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Queued != 20 {
		t.Fatalf("queued = %d", st.Queued)
	}
	c.Close() // destroys the instance
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d after destroy", d.Stats().Queued)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitToUnknownInstanceFails(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := wsrpcDial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	err = cli.Call("falkon.submit", map[string]any{"epr": "nope", "tasks": []task.Task{{ID: 1}}}, nil)
	if err == nil {
		t.Fatal("submit to unknown instance succeeded")
	}
}

// wsrpcDial is a tiny helper to issue raw protocol calls.
func wsrpcDial(addr string) (*wsrpc.Client, error) {
	return wsrpc.Dial(addr, wsrpc.ClientOptions{})
}

func TestStatsRPC(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{}, 3, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(10, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	cli, err := wsrpcDial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var st map[string]any
	if err := cli.Call("falkon.stats", nil, &st); err != nil {
		t.Fatal(err)
	}
	if st["total_executors"].(float64) != 3 {
		t.Fatalf("stats = %v", st)
	}
}

func TestTaskWithDurationRuns(t *testing.T) {
	_, c, _ := startSystem(t, dispatch.Options{}, client.Options{}, 2, executor.Options{SleepScale: 0.01})
	var gen task.IDGen
	tasks := task.Batch(&gen, 8, 1*time.Second) // 10 ms real each
	start := time.Now()
	if err := c.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(8, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("completed too fast (%v) for scaled sleeps", el)
	}
	for _, r := range rs {
		if r.RunTime() <= 0 {
			t.Fatalf("run time %v for sleep task", r.RunTime())
		}
	}
}

func TestDataAwareDispatchLive(t *testing.T) {
	// Two executors, tasks alternating over two datasets with a real
	// staging cost charged on misses, and no option set: tasks that name
	// their dataset settle each dataset onto one executor and record cache
	// hits.
	eopts := executor.Options{
		DataCost: func(io task.IOSpec) time.Duration { return 20 * time.Millisecond },
	}
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 8}, 2, eopts)
	var tasks []task.Task
	var gen task.IDGen
	for i := 0; i < 40; i++ {
		tasks = append(tasks, task.Task{
			ID:     gen.Next(),
			Engine: task.EngineData,
			IO:     &task.IOSpec{ReadBytes: 1 << 20, Dataset: fmt.Sprintf("d%d", i%2)},
		})
	}
	if err := c.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(40, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Failed() {
			t.Fatalf("task failed: %+v", r)
		}
	}
	st := d.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}
	if st.CacheHits+st.CacheMisses > 40 {
		t.Fatalf("hit+miss = %d > tasks", st.CacheHits+st.CacheMisses)
	}
}

func TestDrainRejectsNewWorkAndCompletesInFlight(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 10}, 2, executor.Options{SleepScale: 0.01})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 40, time.Second)); err != nil {
		t.Fatal(err)
	}
	drained := make(chan bool, 1)
	go func() { drained <- d.Drain(30 * time.Second) }()
	// Submissions during the drain are refused.
	time.Sleep(20 * time.Millisecond)
	if err := c.Submit(task.Batch(&gen, 1, 0)); err == nil {
		t.Fatal("submission accepted while draining")
	}
	// The in-flight 40 still complete.
	rs, err := c.WaitN(40, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 40 {
		t.Fatalf("results = %d", len(rs))
	}
	select {
	case ok := <-drained:
		if !ok {
			t.Fatal("drain reported timeout")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never returned")
	}
}

// TestSubmitRacingDrain starts a Submit and a Drain together, 200 times, with
// no executor to run anything: a bundle the dispatcher accepted is still in
// it, so however the two interleave a Drain that reported the system empty
// must not have let one in.
func TestSubmitRacingDrain(t *testing.T) {
	const bundle = 8
	for round := 0; round < 200; round++ {
		d := dispatch.New(dispatch.Options{})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: bundle})
		if err != nil {
			t.Fatal(err)
		}
		var gen task.IDGen
		submitted := make(chan error, 1)
		go func() { submitted <- c.Submit(task.Batch(&gen, bundle, 0)) }()
		// The submit is a loopback round trip away; sweep the drain across it.
		time.Sleep(time.Duration(round%20) * 10 * time.Microsecond)
		drained := d.Drain(5 * time.Millisecond)
		accepted := <-submitted == nil
		queued := d.Stats().Queued
		c.Close()
		d.Close()
		if accepted == drained || (accepted && queued != bundle) || (drained && queued != 0) {
			t.Fatalf("round %d: submit accepted=%v, drain finished=%v, %d tasks queued", round, accepted, drained, queued)
		}
	}
}

func TestLateDuplicateDeliveryDropped(t *testing.T) {
	// A task replayed by timeout whose original executor later delivers:
	// the late result must be dropped, not double-counted.
	release := make(chan struct{})
	var calls atomic.Int64
	eopts := executor.Options{
		Slots: 2,
		Funcs: map[string]executor.Func{
			"slow": func(task.Task) (string, int, error) {
				if calls.Add(1) == 1 {
					<-release // hold the first attempt past the replay timeout
				}
				return "ok", 0, nil
			},
		},
	}
	d, c, _ := startSystem(t, dispatch.Options{ReplayTimeout: 150 * time.Millisecond}, client.Options{}, 1, eopts)
	if err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "slow"}}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Failed() {
		t.Fatalf("replayed task failed: %+v", rs[0])
	}
	close(release) // let the stale attempt deliver late
	time.Sleep(100 * time.Millisecond)
	st := d.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed = %d after duplicate delivery", st.Completed)
	}
	// No extra result reaches the client.
	select {
	case r := <-c.Results():
		t.Fatalf("duplicate result delivered: %+v", r)
	case <-time.After(200 * time.Millisecond):
	}
}
