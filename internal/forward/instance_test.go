package forward

import (
	"reflect"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// retained counts the entries in every map an instance holds, whatever the
// fields are called: the bound is on the instance, not on one field.
func retained(in *finst) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	v := reflect.ValueOf(in).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Map {
			n += f.Len()
		}
	}
	return n
}

// A root instance must hold state for what is in flight, not for everything
// it ever delivered; and a delivered ID submitted again runs and delivers
// again, exactly once.
func TestInstanceRetainsOnlyInFlight(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ex, err := executor.Start(executor.Options{ID: "ret-exec", DispatcherAddr: d.Addr(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	f, err := New(Options{Dispatchers: []string{d.Addr()}, Bundle: 50, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 3000 // ≫ anything in flight at once
	var gen task.IDGen
	tasks := task.Batch(&gen, n, 0)
	for start := 0; start < n; start += 500 {
		if err := c.Submit(tasks[start : start+500]); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(500, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	f.mu.Lock()
	inst := f.byFwd[c.EPR()]
	f.mu.Unlock()
	if got := retained(inst); got != 0 {
		t.Fatalf("instance retains %d map entries after delivering all %d tasks, want 0", got, n)
	}

	again := tasks[0]
	if err := c.Submit([]task.Task{again}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 30*time.Second)
	if err != nil || rs[0].ID != again.ID {
		t.Fatalf("resubmitted delivered task: results %v, err %v", rs, err)
	}
	// The leaf ran n+1 tasks and the client holds n+1 results: no second
	// copy is on its way.
	if st := d.Stats(); st.Completed != n+1 {
		t.Fatalf("leaf completed %d tasks, want %d", st.Completed, n+1)
	}
	if got := retained(inst); got != 0 {
		t.Fatalf("instance retains %d map entries after the resubmit, want 0", got)
	}
}

// pushRecorder is an upstream peer that records what the root pushes.
type pushRecorder struct{ got []task.ID }

func (p *pushRecorder) Notify(_ string, arg any) error {
	for _, r := range arg.(fproto.ResultsNotify).Results {
		p.got = append(p.got, r.ID)
	}
	return nil
}

// After redistribute re-pins a task to a second leaf, both leaves may answer:
// the first result delivers and clears the debt, the second finds nothing
// owed and drops.
func TestDuplicateResultAfterRedistributeDrops(t *testing.T) {
	up := &pushRecorder{}
	inst := newFinst("fwd-1", 2)
	inst.peer, inst.notify = up, true
	f := &Forwarder{
		leaves: []*leaf{{idx: 0}, {idx: 1}},
		byReal: map[realKey]*finst{{0, "r0"}: inst, {1, "r1"}: inst},
	}
	tk := task.Task{ID: 7}
	inst.pending[tk.ID] = pentry{t: &tk, leaf: 0}
	inst.pending[tk.ID] = pentry{t: &tk, leaf: 1} // leaf 0 dropped; replayed onto leaf 1
	f.onLeafResults(0, "r0", []task.Result{{ID: tk.ID}})
	f.onLeafResults(1, "r1", []task.Result{{ID: tk.ID}})
	if len(up.got) != 1 || inst.dupDrops != 1 || len(inst.pending) != 0 {
		t.Fatalf("delivered %v, dupDrops %d, pending %d; want one delivery, one drop, nothing owed",
			up.got, inst.dupDrops, len(inst.pending))
	}
}

// A leaf going down and coming up each replay everything it owed, so two
// replays of one pending set can be under way at once. The one that is still
// waiting for a routable leaf when a task's result arrives must not send that
// task again: pinned pending a second time, its second result would be
// delivered too.
func TestReplayWaitingForALeafSendsOnlyWhatIsStillOwed(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ex, err := executor.Start(executor.Options{ID: "replay-exec", DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	f, err := New(Options{Dispatchers: []string{d.Addr()}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One task through, so the instance exists on the leaf.
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	inst, l := f.byFwd[c.EPR()], f.leaves[0]
	l.up = false // the leaf goes down owing two tasks
	f.mu.Unlock()
	owed := task.Batch(&gen, 2, 0)
	inst.mu.Lock()
	for i := range owed {
		inst.pending[owed[i].ID] = pentry{t: &owed[i], leaf: 0}
	}
	replay := inst.takePendingFor(0)
	inst.mu.Unlock()

	// The replay parks: no leaf is up.
	routed := make(chan error, 1)
	go func() { routed <- f.routeBundle(inst, replay, 0, 0) }()
	// Meanwhile the first task's result arrives (the other replay's copy).
	f.onLeafResults(0, inst.downOn(0), []task.Result{{ID: owed[0].ID}})
	// The leaf comes up and the parked replay goes ahead.
	f.mu.Lock()
	l.up = true
	f.routable.Broadcast()
	f.mu.Unlock()
	if err := <-routed; err != nil {
		t.Fatal(err)
	}

	if _, err := c.WaitN(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if st := d.Stats(); st.Queued == 0 && st.Outstanding == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the leaf never went idle")
		}
	}
	// The leaf ran the warm-up task and the one task still owed; the settled
	// one was not sent again, so no second result for it is on its way.
	if st := d.Stats(); st.Completed != 2 {
		t.Fatalf("the leaf completed %d tasks, want 2: the replay re-sent a task whose result had arrived", st.Completed)
	}
	if got := retained(inst); got != 0 {
		t.Fatalf("instance retains %d map entries, want 0", got)
	}
}
