package forward_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/faultinj"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// What the root keeps for a task is in its dispatcher's books — the
// outstanding table, counted per link as LeafStats.Pending, and the
// instance's result buffer and owed set — so these tests read them the way an
// operator would: through falkon.stats on the root, a reattach and a
// resubmission.

// startRoot puts a root over the given leaves and connects a client to it.
func startRoot(t *testing.T, copts client.Options, leaves ...*dispatch.Dispatcher) (*dispatch.Dispatcher, *client.Client) {
	t.Helper()
	var addrs []string
	for _, d := range leaves {
		addrs = append(addrs, d.Addr())
	}
	f := dispatch.New(dispatch.Options{Leaves: addrs, Bundle: 8, Logf: t.Logf})
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	copts.DispatcherAddr = f.Addr()
	c, err := client.Connect(copts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return f, c
}

func startLeaf(t testing.TB, addr string, opts dispatch.Options) *dispatch.Dispatcher {
	t.Helper()
	opts.Logf = t.Logf
	d := dispatch.New(opts)
	if err := d.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func startExec(t testing.TB, opts executor.Options) *executor.Executor {
	t.Helper()
	opts.SleepScale = 0.001
	ex, err := executor.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	return ex
}

// within polls cond until it holds or d has passed.
func within(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// pending sums what the root counts against its links.
func pending(st fproto.StatsReply) (n int) {
	for _, l := range st.Leaves {
		n += l.Pending
	}
	return n
}

// A root must hold state for what is in flight, not for everything it ever
// delivered: after 100,000 tasks nothing is queued, nothing is counted against
// a link, and the instance has nothing buffered or owed.
func TestRootRetainsOnlyInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("100,000 tasks")
	}
	var leaves []*dispatch.Dispatcher
	for i := 0; i < 2; i++ {
		d := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
		startExec(t, executor.Options{ID: fmt.Sprintf("ret-exec-%d", i), DispatcherAddr: d.Addr(), Slots: 2})
		leaves = append(leaves, d)
	}
	f, c := startRoot(t, client.Options{BundleSize: 500}, leaves...)

	const n, step = 100_000, 5_000
	var gen task.IDGen
	for done := 0; done < n; done += step {
		if err := c.Submit(task.Batch(&gen, step, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(step, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Queued != 0 || st.Outstanding != 0 || pending(st) != 0 {
		t.Fatalf("after %d delivered tasks the tree holds queued=%d outstanding=%d pending=%d, want none", n, st.Queued, st.Outstanding, pending(st))
	}
	// A reattach is pushed whatever the instance buffered, before its reply:
	// nothing. A resubmission of a delivered task is deduped only if the
	// instance still owes its result: neither the first nor the last is.
	sink := dialSink(t, f.Addr())
	defer sink.Close()
	if err := sink.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{EPR: c.EPR()}, nil); err != nil {
		t.Fatal(err)
	}
	if rs := sink.take(); len(rs) != 0 {
		t.Fatalf("the instance still buffers %d results", len(rs))
	}
	var rep fproto.SubmitReply
	if err := sink.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: c.EPR(), Tasks: []task.Task{task.Sleep(1, 0), task.Sleep(n, 0)}}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 2 || rep.Deduped != 0 {
		t.Fatalf("resubmitting two delivered tasks: accepted %d, deduped %d; the instance still owes a result it delivered", rep.Accepted, rep.Deduped)
	}
}

// A root places a task that names its dataset by locality, with no option
// set, as any dispatcher does: its executors are links, each remembered as
// holding the datasets its leaf's results name.
func TestRootPlacesDatasetsByLocality(t *testing.T) {
	var leaves []*dispatch.Dispatcher
	for i := 0; i < 2; i++ {
		d := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
		startExec(t, executor.Options{ID: fmt.Sprintf("loc-exec-%d", i), DispatcherAddr: d.Addr()})
		leaves = append(leaves, d)
	}
	f, c := startRoot(t, client.Options{BundleSize: 16}, leaves...)
	var gen task.IDGen
	var ts []task.Task
	for i := 0; i < 64; i++ {
		ts = append(ts, task.Task{ID: gen.Next(), Engine: task.EngineData, IO: &task.IOSpec{Dataset: fmt.Sprintf("d%d", i%4)}})
	}
	if err := c.Submit(ts); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(len(ts), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if own := f.Stats(); own.CacheHits == 0 || own.CacheHits+own.CacheMisses > int64(len(ts)) {
		t.Fatalf("the root's own picks: %d cache hits, %d misses for %d tasks", own.CacheHits, own.CacheMisses, len(ts))
	}
}

// A leaf that says everything twice: every result reaches the root a second
// time. The second copy is dropped and counted, never delivered.
func TestSecondResultIsDroppedAndCounted(t *testing.T) {
	d := startLeaf(t, "127.0.0.1:0", dispatch.Options{Faults: faultinj.New(faultinj.Spec{DupNotifyP: 1}, nil, nil)})
	startExec(t, executor.Options{ID: "dup-exec", DispatcherAddr: d.Addr()})
	f, c := startRoot(t, client.Options{BundleSize: 10}, d)

	const n = 50
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(n, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.ExecutorID != "dup-exec" {
			t.Fatalf("result %+v does not name the executor that ran it", r)
		}
	}
	if !within(5*time.Second, func() bool { return f.Stats().Duplicates >= n }) {
		t.Fatalf("falkon.stats counts %d duplicates, want the %d second results", f.Stats().Duplicates, n)
	}
	select {
	case r := <-c.Results():
		t.Fatalf("a second result was delivered: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	if got := c.DuplicatesDropped(); got != 0 {
		t.Fatalf("the client had to drop %d duplicates itself", got)
	}
}

// A leaf that loses its last executor while holding a grant is deregistered
// at the root by the capacity hint that says so, and the root requeues what it
// held there and then — no loop polls for starved leaves.
func TestExecutorlessLeafGivesItsGrantBack(t *testing.T) {
	starved := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
	const n = 3 // what a link holds of tasks this long: one per worker slot
	ex, err := executor.Start(executor.Options{ID: "leaves-exec", DispatcherAddr: starved.Addr(), Slots: n, SleepScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, c := startRoot(t, client.Options{BundleSize: n}, starved)

	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 300*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !within(5*time.Second, func() bool { return pending(f.Stats()) == n }) {
		t.Fatalf("the leaf was never handed the %d tasks", n)
	}
	go ex.Stop() // deregisters at once, then waits out the tasks it is running
	t.Cleanup(ex.Stop)
	t0 := time.Now()
	if !within(time.Second, func() bool {
		st := f.Stats()
		return st.Leaves[0].Reroutes == n && st.Leaves[0].Pending == 0
	}) {
		t.Fatalf("a second after the leaf lost its executor the root still counts against it: %+v", f.Stats().Leaves[0])
	}
	t.Logf("grant back in the root's queue %v after the executor left", time.Since(t0))

	// An executor comes back: everything is delivered, once.
	startExec(t, executor.Options{ID: "returns-exec", DispatcherAddr: starved.Addr()})
	rs, err := c.WaitN(n, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if r.Failed() || seen[r.ID] {
			t.Fatalf("result %+v: failed or duplicate", r)
		}
		seen[r.ID] = true
	}
}

// A leaf's final word is final. A task that fails on its leaf has had the
// leaf's retries: the root reports it failed once and does not run it again.
func TestFailureOnALeafIsNotRetriedAtTheRoot(t *testing.T) {
	const leafRetries = 2
	d := startLeaf(t, "127.0.0.1:0", dispatch.Options{MaxRetries: leafRetries})
	var runs atomic.Int64
	startExec(t, executor.Options{ID: "fail-exec", DispatcherAddr: d.Addr(), Funcs: map[string]executor.Func{
		"fail": func(task.Task) (string, int, error) { runs.Add(1); return "", 1, nil },
	}})
	_, c := startRoot(t, client.Options{}, d)

	if err := c.Submit([]task.Task{{ID: 1, Engine: task.EngineFunc, Command: "fail"}}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rs[0].Failed() {
		t.Fatalf("result %+v, want the failure", rs[0])
	}
	select {
	case r := <-c.Results():
		t.Fatalf("the failure was reported twice: %+v", r)
	case <-time.After(100 * time.Millisecond):
	}
	if got := runs.Load(); got < 1 || got > leafRetries+1 {
		t.Fatalf("the task ran %d times, want at most the leaf's %d", got, leafRetries+1)
	}
}

// Leaf deaths do not use up a task's retries at the root, neither the
// dispatcher's default bound nor one the task states for itself (which its
// leaf enforces, on the task's own failures): four leaves die under one task —
// one more than the default, three more than the task allows — and the fifth
// runs it.
func TestLeafDeathsDoNotFailATask(t *testing.T) {
	for _, own := range []int{0, 1} {
		t.Run(fmt.Sprintf("MaxRetries=%d", own), func(t *testing.T) {
			d := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
			addr := d.Addr()
			startExec(t, executor.Options{ID: "survivor-exec", DispatcherAddr: addr})
			f, c := startRoot(t, client.Options{}, d)

			var gen task.IDGen
			tasks := task.Batch(&gen, 1, 150*time.Second) // 150 ms real
			tasks[0].MaxRetries = own
			if err := c.Submit(tasks); err != nil {
				t.Fatal(err)
			}
			for death := 1; death <= 4; death++ {
				if !within(10*time.Second, func() bool { return d.Stats().Outstanding == 1 }) {
					t.Fatalf("before death %d the leaf never had the task running", death)
				}
				d.Abort()
				d = startLeaf(t, addr, dispatch.Options{})
			}
			rs, err := c.WaitN(1, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if rs[0].Failed() {
				t.Fatalf("four leaf deaths failed the task: %+v", rs[0])
			}
			if st := f.Stats(); st.Retried < 4 || st.Leaves[0].Reconnects < 4 {
				t.Fatalf("root replayed %d times over %d reconnects, want 4 of each", st.Retried, st.Leaves[0].Reconnects)
			}
		})
	}
}

// A root's task counts are its own, so a leaf's death or restart lowers none
// of them. A journaled leaf is killed at rest the moment the client has every
// result — inside the journal's advisory bound, so the leaf's last delivery
// records may not be on disk (DESIGN.md §10) — and restarted over the same
// journal and address. Once the link has re-attached, the root still reads
// every task submitted and completed once, in falkon.stats and in
// falkon.metrics. Each of the four rounds loses some of the leaf's count about
// half the time, so a root that sums its leaves fails here almost always.
func TestLeafRestartLowersNoRootCounter(t *testing.T) {
	const n, rounds = 64, 4
	opts := dispatch.Options{JournalDir: t.TempDir()}
	d := startLeaf(t, "127.0.0.1:0", opts)
	addr := d.Addr()
	startExec(t, executor.Options{ID: "leaf-exec", DispatcherAddr: addr, Slots: 4})
	f, c := startRoot(t, client.Options{BundleSize: 16}, d)

	var gen task.IDGen
	for round := 1; round <= rounds; round++ {
		if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(n, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		d.Abort()
		d = startLeaf(t, addr, opts)
		if !within(10*time.Second, func() bool {
			st := f.Stats()
			return st.Leaves[0].Up && st.Leaves[0].Reconnects >= int64(round)
		}) {
			t.Fatalf("round %d: the link never re-attached to the restarted leaf", round)
		}
		want := int64(n * round)
		t.Logf("round %d: the restarted leaf counts %d completed of %d", round, d.Stats().Completed, want)
		if st := f.Stats(); st.Submitted != want || st.Completed != want {
			t.Fatalf("round %d: after the leaf's restart the root counts %d submitted and %d completed, want %d of each", round, st.Submitted, st.Completed, want)
		}
		ms, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if got := ms.Counters["falkon_tasks_completed_total"]; got != want {
			t.Fatalf("round %d: after the leaf's restart the root's falkon_tasks_completed_total = %d, want %d", round, got, want)
		}
	}
}

// A client that reconnects to a live root resubmits every task it awaits, and
// the root runs none of them again: it still owes each one, queued, held by
// its leaf, or its result buffered for the client, and drops it from the
// resubmission.
func TestRootDedupesAReconnectingClient(t *testing.T) {
	leaf := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
	ex, err := executor.Start(executor.Options{ID: "slow-exec", DispatcherAddr: leaf.Addr(), Slots: 3, SleepScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	wire := &wireLog{}
	f, c := startRoot(t, client.Options{BundleSize: 2, Faults: wire}, leaf)

	const n = 6
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 500*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	wire.mu.Lock()
	wire.conns[len(wire.conns)-1].Close() // the client's connection drops
	wire.mu.Unlock()
	if !within(5*time.Second, func() bool { return c.Resubmitted() == n }) {
		t.Fatalf("the client resubmitted %d of the %d tasks it awaits", c.Resubmitted(), n)
	}
	if got := c.Deduped(); got != n {
		t.Fatalf("the root dropped %d of %d resubmitted tasks as owed", got, n)
	}
	if _, err := c.WaitN(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if root, down := f.Stats(), leaf.Stats(); root.Submitted != n || down.Submitted != n || down.Completed != n {
		t.Fatalf("root admitted %d, leaf admitted %d and completed %d, want %d each", root.Submitted, down.Submitted, down.Completed, n)
	}
	select {
	case r := <-c.Results():
		t.Fatalf("a seventh result: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
}
