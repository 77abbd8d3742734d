package executor_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// startDispatcher brings up a dispatcher for executor tests.
func startDispatcher(t *testing.T) *dispatch.Dispatcher {
	t.Helper()
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestStartValidation(t *testing.T) {
	if _, err := executor.Start(executor.Options{}); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := executor.Start(executor.Options{ID: "x", DispatcherAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable dispatcher accepted")
	}
}

func TestIdleReleaseDeregisters(t *testing.T) {
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{
		ID:             "idle-exec",
		DispatcherAddr: d.Addr(),
		IdleTimeout:    100 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.TotalExecutors != 1 {
		t.Fatalf("executors = %d", st.TotalExecutors)
	}
	select {
	case <-ex.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("executor never idle-released")
	}
	// The release deregisters before the executor stops: Done implies gone.
	if n := d.Stats().TotalExecutors; n != 0 {
		t.Fatalf("%d executor(s) still registered after idle release", n)
	}
}

func TestIdleTimerResetByWork(t *testing.T) {
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{
		ID:             "busy-exec",
		DispatcherAddr: d.Addr(),
		IdleTimeout:    250 * time.Millisecond,
		SleepScale:     0.001,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Keep feeding work every 100 ms: the executor must not release.
	var gen task.IDGen
	for i := 0; i < 5; i++ {
		if err := c.Submit(task.Batch(&gen, 1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ex.Done():
			t.Fatal("executor released while work kept arriving")
		case <-time.After(100 * time.Millisecond):
		}
	}
	if ex.TasksRun() != 5 {
		t.Fatalf("tasks run = %d", ex.TasksRun())
	}
}

func TestExecEngineRunsProcess(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX shell test")
	}
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{ID: "exec-engine", DispatcherAddr: d.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Submit([]task.Task{{
		ID:      1,
		Engine:  task.EngineExec,
		Command: "/bin/sh",
		Args:    []string{"-c", "echo out-here; echo err-here 1>&2"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rs[0].Stdout, "out-here") {
		t.Fatalf("stdout = %q", rs[0].Stdout)
	}
	if !strings.Contains(rs[0].Stderr, "err-here") {
		t.Fatalf("stderr = %q", rs[0].Stderr)
	}
	if rs[0].ExitCode != 0 {
		t.Fatalf("exit = %d", rs[0].ExitCode)
	}
}

func TestExecEngineNonzeroExit(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX shell test")
	}
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{ID: "exec-fail", DispatcherAddr: d.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Submit([]task.Task{{ID: 1, Engine: task.EngineExec, Command: "/bin/sh", Args: []string{"-c", "exit 4"}, MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Failed() {
		t.Fatalf("result = %+v, want failure", rs[0])
	}
}

func TestUnknownFuncFails(t *testing.T) {
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{ID: "nofunc", DispatcherAddr: d.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "missing"}}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Failed() || !strings.Contains(rs[0].Err, "missing") {
		t.Fatalf("result = %+v", rs[0])
	}
}

func TestDataEngineChargesStaging(t *testing.T) {
	d := startDispatcher(t)
	var charged time.Duration
	ex, err := executor.Start(executor.Options{
		ID:             "data-exec",
		DispatcherAddr: d.Addr(),
		SleepScale:     1.0,
		DataCost: func(io task.IOSpec) time.Duration {
			charged = 20 * time.Millisecond
			return charged
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Submit([]task.Task{{
		ID:     1,
		Engine: task.EngineData,
		IO:     &task.IOSpec{ReadBytes: 1 << 20, Location: "shared"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if charged == 0 {
		t.Fatal("DataCost never consulted")
	}
	if rs[0].RunTime() < 15*time.Millisecond {
		t.Fatalf("run time %v, want >= staging cost", rs[0].RunTime())
	}
}

func TestStopIsIdempotent(t *testing.T) {
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{ID: "stopper", DispatcherAddr: d.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ex.Stop()
	ex.Stop() // second call must not hang or panic
	select {
	case <-ex.Done():
	default:
		t.Fatal("Done not closed after Stop")
	}
}

func TestSlotsRunConcurrently(t *testing.T) {
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{
		ID:             "wide",
		DispatcherAddr: d.Addr(),
		Slots:          4,
		SleepScale:     0.05, // 1 s logical -> 50 ms real
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	start := time.Now()
	if err := c.Submit(task.Batch(&gen, 4, time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(4, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Serial execution would need ~200 ms; allow generous overlap margin.
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Fatalf("4 tasks on 4 slots took %v, expected concurrent execution", el)
	}
}

func TestExecTimeoutKillsRunawayProcess(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX shell test")
	}
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{
		ID:             "timeout-exec",
		DispatcherAddr: d.Addr(),
		ExecTimeout:    200 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Submit([]task.Task{{
		ID:         1,
		Engine:     task.EngineExec,
		Command:    "/bin/sh",
		Args:       []string{"-c", "sleep 30"},
		MaxRetries: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rs, err := c.WaitN(1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Failed() {
		t.Fatalf("runaway process did not fail: %+v", rs[0])
	}
	if time.Since(start) > 20*time.Second {
		t.Fatal("timeout did not cut the process short")
	}
}

// The trace ring of a one-slot executor is its batches one after another, and
// a batch is exactly: how its tasks arrived, each task's start and finish in
// the order they ran, then their delivery — whether the events are recorded as
// they happen or, as now, in one call per batch. Stamps never run backwards.
func TestTraceRingIsBatchAfterBatch(t *testing.T) {
	d := startDispatcher(t)
	ex, err := executor.Start(executor.Options{ID: "ring-exec", DispatcherAddr: d.Addr(), TraceCapacity: 1 << 14, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 1000
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// The last batch's events are recorded once its Deliver has returned,
	// which the client's last result can beat.
	var evs []obs.Event
	for deadline := time.Now().Add(5 * time.Second); len(evs) < 4*n && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		evs, _ = ex.Tracer().Since(0, 0)
	}
	if len(evs) != 4*n {
		t.Fatalf("%d events for %d tasks, want four each", len(evs), n)
	}
	largest, last := 0, time.Duration(0)
	for i := 0; i < len(evs); {
		var batch []task.ID
		for ; i < len(evs) && (evs[i].Kind == obs.EvPulled || evs[i].Kind == obs.EvAcked || evs[i].Kind == obs.EvPushed); i++ {
			batch = append(batch, evs[i].Task)
		}
		if len(batch) == 0 || i+3*len(batch) > len(evs) {
			t.Fatalf("event %d (%+v) does not open a batch the ring holds whole", i, evs[i])
		}
		largest = max(largest, len(batch))
		for j, id := range batch {
			started, finished, delivered := evs[i+2*j], evs[i+2*j+1], evs[i+2*len(batch)+j]
			if started.Kind != obs.EvStarted || finished.Kind != obs.EvFinished || delivered.Kind != obs.EvDelivered ||
				started.Task != id || finished.Task != id || delivered.Task != id {
				t.Fatalf("task %v, %d of a batch of %d: started %+v, finished %+v, delivered %+v", id, j, len(batch), started, finished, delivered)
			}
			if started.At < last || finished.At < started.At || delivered.At < finished.At {
				t.Fatalf("task %v's stamps run backwards: %v after %v, %v, %v", id, started.At, last, finished.At, delivered.At)
			}
			last = finished.At
		}
		i += 3 * len(batch)
	}
	if largest < 2 {
		t.Errorf("no batch held two tasks: the order within a batch was not exercised")
	}
	snap := ex.Metrics().Snapshot()
	if run, over := snap.Histograms["falkon_executor_run_seconds"], snap.Histograms["falkon_executor_overhead_seconds"]; run.Count != n || over.Count != n {
		t.Errorf("run and overhead histograms hold %d and %d observations, want %d each", run.Count, over.Count, n)
	}
}
