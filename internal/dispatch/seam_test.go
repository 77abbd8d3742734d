package dispatch_test

import (
	"sync"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// pushes is an executor inside the test's process: what the dispatcher pushes
// at it arrives as values.
type pushes struct {
	mu  sync.Mutex
	got []any
}

func (p *pushes) Notify(_ string, body any) error {
	p.mu.Lock()
	p.got = append(p.got, body)
	p.mu.Unlock()
	return nil
}

// The executor's verbs as Go methods, which is how a tree's root runs its
// links: registered with a Pusher, an in-process executor is told of work with
// the value itself, stocks up over several asks in one call, is resized by
// registering again, and delivers to the client like any other.
func TestExecutorVerbsAsGoMethods(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 100, 0)); err != nil {
		t.Fatal(err)
	}

	p := &pushes{}
	d.Register(fproto.RegisterRequest{ExecutorID: "in-proc", Slots: 2}, p)
	p.mu.Lock()
	told, _ := p.got[0].(fproto.WorkAvailable)
	p.mu.Unlock()
	if told.Queued != 100 {
		t.Fatalf("registered against a queue of 100, the executor was pushed %+v", p.got)
	}

	// Asks of 8 until 20 are granted: 8, 8, 8 — each the grant rule's (a share
	// of 100 over 2 slots is 50, so the ask is the limit).
	as, err := d.Stock("in-proc", 8, 20, nil)
	if err != nil || len(as) != 24 || d.Held("in-proc") != 24 {
		t.Fatalf("stocked %d tasks (held %d, err %v), want 24", len(as), d.Held("in-proc"), err)
	}
	for i, a := range as {
		if a.Task.ID != task.ID(i+1) {
			t.Fatalf("assignment %d is task %v: not FIFO", i, a.Task.ID)
		}
	}

	// From the pusher that holds the ID, a registration is a resize; from
	// another, a replacement that starts with nothing counted against it.
	d.Register(fproto.RegisterRequest{ExecutorID: "in-proc", Slots: 5}, p)
	if got := d.Held("in-proc"); got != 24 {
		t.Fatalf("after a resize the executor holds %d, want its 24 still", got)
	}

	results := make([]fproto.TaggedResult, len(as))
	for i, a := range as {
		results[i] = fproto.TaggedResult{EPR: a.EPR, Result: task.Result{ID: a.Task.ID, ExecutorID: "ran-it"}}
	}
	if _, err := d.Deliver(&fproto.DeliverRequest{ExecutorID: "in-proc", Results: results}); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(len(as), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.ExecutorID != "ran-it" {
			t.Fatalf("result %+v: a result that says who ran it keeps saying so", r)
		}
	}
	if got := d.Held("in-proc"); got != 0 {
		t.Fatalf("after delivering everything the executor holds %d", got)
	}
	if _, err := d.Stock("in-proc", 8, 8, nil); err != nil {
		t.Fatal(err)
	}
	if n := d.Deregister("in-proc"); n != 8 {
		t.Fatalf("deregistering gave back %d tasks, want the 8 it held", n)
	}
	if st := d.Stats(); st.Queued != 100-24 || st.Outstanding != 0 {
		t.Fatalf("after the executor left: queued %d, outstanding %d, want 76 and 0", st.Queued, st.Outstanding)
	}
}

// Destroying an instance sweeps its tasks out of the core, those an executor
// holds included: the executor's slots are free at once, and what it still
// delivers for them is counted as duplicates and moves nothing — its slot
// count does not go below zero, and the next instance's work reaches it.
func TestDestroySweepsWhatAWireExecutorHolds(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{}, 0, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	x := dialRawExec(t, d.Addr(), "holds-four", 2, false)
	var work fproto.GetWorkReply
	if err := x.cli.Call(fproto.MethodGetWork, fproto.GetWorkRequest{ExecutorID: x.id, Max: 4}, &work); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); len(work.Assignments) != 4 || st.Queued != 6 || st.Outstanding != 4 || st.BusyExecutors != 1 {
		t.Fatalf("pulled %d: queued %d, outstanding %d, busy %d; want 4, 6, 4, 1", len(work.Assignments), st.Queued, st.Outstanding, st.BusyExecutors)
	}

	c.Close() // destroys the instance
	st := d.Stats()
	if st.Queued != 0 || st.Outstanding != 0 || st.BusyExecutors != 0 || d.Held(x.id) != 0 {
		t.Fatalf("after the destroy: queued %d, outstanding %d, busy %d, held %d; want none", st.Queued, st.Outstanding, st.BusyExecutors, d.Held(x.id))
	}

	late := fproto.DeliverRequest{ExecutorID: x.id}
	for _, a := range work.Assignments {
		late.Results = append(late.Results, fproto.TaggedResult{EPR: a.EPR, Result: task.Result{ID: a.Task.ID}})
	}
	if err := x.cli.Call(fproto.MethodDeliver, late, nil); err != nil {
		t.Fatalf("late results for a destroyed instance: %v", err)
	}
	if st := d.Stats(); st.Duplicates != 4 || st.Completed != 0 || d.Held(x.id) != 0 {
		t.Fatalf("late results: %d duplicates, %d completed, held %d; want 4, 0, 0", st.Duplicates, st.Completed, d.Held(x.id))
	}

	c2, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Submit(task.Batch(&gen, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if ran := x.drain(t); ran != 3 {
		t.Fatalf("the executor ran %d of the next instance's 3 tasks", ran)
	}
	if _, err := c2.WaitN(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
