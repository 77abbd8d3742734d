package executor_test

// The executor's side of "work rides the push" (DESIGN.md §9.2): grants pushed
// to a multi-slot executor run concurrently, a dispatcher that knows nothing
// of the capability is pulled from as before, and one that pushes more grants
// than slots were waiting cannot wedge the read loop.

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// A 4-slot executor whose slots have all told the dispatcher they are waiting
// is handed four 50 ms tasks one at a time, each in a push of its own: they
// run side by side (TestSlotsRunConcurrently's bound), so the hand-off from
// the read loop to the slots never held a grant back.
func TestPushedGrantsRunOnParallelSlots(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
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
	// Every slot pulls one task and comes back empty-handed.
	if err := c.Submit(task.Batch(&gen, 4, time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(4, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// A work-available push wakes a slot per queued task, and a wake-up left
	// over from the round above costs a slot one empty pull: let those drain,
	// so that every slot is waiting and counted.
	pulls := ex.Metrics().Counter(obs.Labeled("wsrpc_client_calls_total", "method", fproto.MethodGetWork))
	for n := int64(-1); n != pulls.Value(); time.Sleep(20 * time.Millisecond) {
		n = pulls.Value()
	}
	pushed := d.Metrics().Counter("falkon_dispatch_grants_pushed_total")
	before := pushed.Value()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := c.Submit(task.Batch(&gen, 1, time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.WaitN(4, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Fatalf("4 pushed tasks on 4 slots took %v, expected concurrent execution", el)
	}
	if got := pushed.Value() - before; got != 4 {
		t.Fatalf("%d of the 4 tasks rode a push, want 4", got)
	}
}

// fakeDispatcher speaks the executor-facing protocol by hand: a queue of task
// IDs it hands out on GetWork and Deliver, the way a dispatcher built before
// the work grant would — its register request has no capability field to read.
type fakeDispatcher struct {
	srv *wsrpc.Server

	mu        sync.Mutex
	peer      *wsrpc.Peer
	next      task.ID
	queued    int
	delivered map[task.ID]int
	output    map[task.ID]string // what each delivered result said its task printed, or its failure
	pulls     int
}

func startFakeDispatcher(t *testing.T) *fakeDispatcher {
	t.Helper()
	f := &fakeDispatcher{srv: wsrpc.NewServer(wsrpc.ServerOptions{}), delivered: make(map[task.ID]int), output: make(map[task.ID]string)}
	f.srv.RegisterFast(fproto.MethodRegister, func(p *wsrpc.Peer, body json.RawMessage) (any, error) {
		var req struct { // the request as it was before AcceptsGrants
			ExecutorID string `json:"executor_id"`
			Slots      int    `json:"slots"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		f.mu.Lock()
		f.peer = p
		f.mu.Unlock()
		return struct { // the reply as it was then: no epoch, and an "ok" nothing read
			OK bool `json:"ok"`
		}{true}, nil
	})
	f.srv.RegisterFast(fproto.MethodDeregister, func(*wsrpc.Peer, json.RawMessage) (any, error) { return struct{}{}, nil })
	f.srv.RegisterFast(fproto.MethodGetWork, func(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
		var req fproto.GetWorkRequest
		if err := req.DecodeJSON(body); err != nil {
			return nil, err
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		f.pulls++
		return fproto.GetWorkReply{Assignments: f.takeLocked(req.Max)}, nil
	})
	f.srv.RegisterFast(fproto.MethodDeliver, func(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
		var req fproto.DeliverRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, r := range req.Results {
			f.delivered[r.Result.ID]++
			f.output[r.Result.ID] = r.Result.Stdout + r.Result.Err
		}
		return fproto.DeliverReply{Assignments: f.takeLocked(req.MaxNew)}, nil
	})
	if err := f.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.srv.Close() })
	return f
}

// takeLocked pops up to n queued tasks as assignments.
func (f *fakeDispatcher) takeLocked(n int) []fproto.Assignment {
	var as []fproto.Assignment
	for ; n > 0 && f.queued > 0; n-- {
		f.queued--
		as = append(as, f.assignmentLocked())
	}
	return as
}

func (f *fakeDispatcher) assignmentLocked() fproto.Assignment {
	f.next++
	return fproto.Assignment{EPR: "fake-instance", Task: task.Task{ID: f.next, Engine: task.EngineSleep}}
}

// waitDelivered waits until n distinct tasks have been delivered, each once.
func (f *fakeDispatcher) waitDelivered(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		f.mu.Lock()
		got := len(f.delivered)
		for id, times := range f.delivered {
			if times != 1 {
				f.mu.Unlock()
				t.Fatalf("task %d was delivered %d times", id, times)
			}
		}
		f.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tasks delivered", got, n)
		}
	}
}

// Mixed versions, old dispatcher: it ignores the capability the executor
// announces and only ever says that work is available; the executor pulls, as
// it always did.
func TestExecutorPullsFromADispatcherThatIgnoresTheCapability(t *testing.T) {
	f := startFakeDispatcher(t)
	ex, err := executor.Start(executor.Options{ID: "new", DispatcherAddr: f.srv.Addr(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	const rounds, each = 20, 10
	for round := 1; round <= rounds; round++ {
		f.mu.Lock()
		f.queued = each
		peer := f.peer
		f.mu.Unlock()
		if err := peer.Notify(fproto.NotifyWorkAvailable, fproto.WorkAvailable{Queued: each}); err != nil {
			t.Fatal(err)
		}
		f.waitDelivered(t, round*each)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pulls < rounds {
		t.Fatalf("%d get-work calls over %d announcements, want one each at least", f.pulls, rounds)
	}
}

// A dispatcher that pushes more grants than slots were waiting for — three at
// once to a one-slot executor that is busy — is not one this repository
// builds, but the executor does not trust its peer's count: the read loop
// takes every frame, the Deliver reply behind them included, and every grant
// is run once.
func TestMoreGrantsThanSlotsDoNotWedgeTheReadLoop(t *testing.T) {
	f := startFakeDispatcher(t)
	entered, release := make(chan struct{}), make(chan struct{})
	ex, err := executor.Start(executor.Options{
		ID:             "narrow",
		DispatcherAddr: f.srv.Addr(),
		Logf:           t.Logf,
		Funcs: map[string]executor.Func{"hold": func(task.Task) (string, int, error) {
			close(entered)
			<-release
			return "", 0, nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	f.mu.Lock()
	peer := f.peer
	hold := f.assignmentLocked()
	hold.Task.Engine, hold.Task.Command = task.EngineFunc, "hold"
	var grants [3]fproto.GetWorkReply
	for i := range grants {
		grants[i].Assignments = []fproto.Assignment{f.assignmentLocked(), f.assignmentLocked()}
	}
	f.mu.Unlock()
	if err := peer.Notify(fproto.NotifyWorkGrant, fproto.GetWorkReply{Assignments: []fproto.Assignment{hold}}); err != nil {
		t.Fatal(err)
	}
	<-entered // the only slot is busy
	for _, g := range grants {
		if err := peer.Notify(fproto.NotifyWorkGrant, g); err != nil {
			t.Fatal(err)
		}
	}
	close(release) // its Deliver's reply is behind the three grants on the wire
	f.waitDelivered(t, 1+2*len(grants))
}

// The grant holders are scratch (DESIGN.md §9, "Scratch"): a pushed grant is
// decoded into one of Slots+1 holders, which its slot gives back once the
// grant's tasks have run, and the read loop decodes the next push over it. As
// in internal/forward/scratch_test.go every piece of scratch is overwritten
// the moment it is recycled, and every task must still run once, with its own
// argument; under -race a slot still reading a holder it gave back is a
// reported race with the decode as well. This runs in both modes.

func scribbling(t *testing.T) {
	t.Helper()
	fproto.Scribble = func(scratch any) {
		junk := task.Task{ID: 1<<63 + 7, Engine: task.EngineFunc, Command: "scribbled", Args: []string{"scribbled"}}
		switch s := scratch.(type) {
		case []fproto.Assignment:
			for i := range s {
				s[i] = fproto.Assignment{EPR: "scribbled", Task: junk}
			}
		case []fproto.TaggedResult:
			for i := range s {
				s[i] = fproto.TaggedResult{EPR: "scribbled", Result: task.Result{ID: junk.ID, Stdout: "scribbled", Err: "scribbled"}}
			}
		}
	}
	t.Cleanup(func() { fproto.Scribble = nil }) // runs last: after the executor has stopped
}

// echoGrant is a grant of n tasks that each print an argument no other task has.
func (f *fakeDispatcher) echoGrant(n int) fproto.GetWorkReply {
	f.mu.Lock()
	defer f.mu.Unlock()
	var g fproto.GetWorkReply
	for ; n > 0; n-- {
		a := f.assignmentLocked()
		a.Task.Engine, a.Task.Command, a.Task.Args = task.EngineFunc, "echo", []string{fmt.Sprintf("out-%d", a.Task.ID)}
		g.Assignments = append(g.Assignments, a)
	}
	return g
}

// checkEchoes requires tasks 1..n delivered (waitDelivered: once each), each
// saying what its own task printed.
func (f *fakeDispatcher) checkEchoes(t *testing.T, n int) {
	t.Helper()
	f.waitDelivered(t, n)
	f.mu.Lock()
	defer f.mu.Unlock()
	for id := task.ID(1); id <= task.ID(n); id++ {
		if want := fmt.Sprintf("out-%d", id); f.output[id] != want {
			t.Fatalf("task %d came back saying %q, want %q", id, f.output[id], want)
		}
	}
}

func startEchoExecutor(t *testing.T, f *fakeDispatcher, slots int) *wsrpc.Peer {
	t.Helper()
	ex, err := executor.Start(executor.Options{
		ID: "echo", DispatcherAddr: f.srv.Addr(), Slots: slots, Logf: t.Logf,
		Funcs: map[string]executor.Func{"echo": func(t task.Task) (string, int, error) { return t.Args[0], 0, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peer
}

// Four grants back to back to four waiting slots, round after round: from the
// second round on every grant is decoded over one a slot has run.
func TestScratchGrantHoldersBackToBack(t *testing.T) {
	scribbling(t)
	f := startFakeDispatcher(t)
	peer := startEchoExecutor(t, f, 4)
	const rounds, each = 50, 3
	for round := 1; round <= rounds; round++ {
		for i := 0; i < 4; i++ {
			if err := peer.Notify(fproto.NotifyWorkGrant, f.echoGrant(each)); err != nil {
				t.Fatal(err)
			}
		}
		f.checkEchoes(t, round*4*each)
	}
}

// Three times as many grants at once as there are slots: the overflow path,
// holders made for the grants too many, and the free list refusing them.
func TestScratchGrantHoldersOverflow(t *testing.T) {
	scribbling(t)
	f := startFakeDispatcher(t)
	peer := startEchoExecutor(t, f, 4)
	const rounds, grants, each = 20, 12, 2
	for round := 1; round <= rounds; round++ {
		for i := 0; i < grants; i++ {
			if err := peer.Notify(fproto.NotifyWorkGrant, f.echoGrant(each)); err != nil {
				t.Fatal(err)
			}
		}
		f.checkEchoes(t, round*grants*each)
	}
}

// A stream of grants kept a few ahead of two slots: a slot gives its holder
// back while the read loop is decoding the next push, into the holder another
// slot gave back a moment ago.
func TestScratchGrantHolderReturnedDuringDecode(t *testing.T) {
	scribbling(t)
	f := startFakeDispatcher(t)
	peer := startEchoExecutor(t, f, 2)
	const grants, each, ahead = 600, 2, 3
	for sent := 0; sent < grants; sent++ {
		for { // at most `ahead` grants pushed and not yet delivered
			f.mu.Lock()
			done := len(f.delivered)
			f.mu.Unlock()
			if sent*each-done < ahead*each {
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
		if err := peer.Notify(fproto.NotifyWorkGrant, f.echoGrant(each)); err != nil {
			t.Fatal(err)
		}
	}
	f.checkEchoes(t, grants*each)
}

// What an idle executor keeps of the grants it decoded: each of its Slots+1
// grant decoders (the read loop's, for pushed grants, and one a slot, for the
// replies to its pulls and Delivers) keeps its chunks from grant to grant,
// each within a 4 KiB size class — at most (Slots+1) × 8 KiB, however many
// grants went through, after a run shaped as the repo benchmark's direct-bulk
// (bundles of 64 `sleep 0` tasks with a 16-byte argument of their own, 512 in
// flight).
func TestIdleExecutorKeepsBoundedChunks(t *testing.T) {
	for _, slots := range []int{1, 4} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			d := dispatch.New(dispatch.Options{Logf: t.Logf})
			if err := d.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ex, err := executor.Start(executor.Options{ID: "bulk", DispatcherAddr: d.Addr(), Slots: slots, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var gen task.IDGen
			for range 40 {
				ts := task.Batch(&gen, 512, 0)
				for i := range ts {
					ts[i].Args = []string{fmt.Sprintf("%016x", uint64(ts[i].ID))}
				}
				if err := c.Submit(ts); err != nil {
					t.Fatal(err)
				}
				if _, err := c.WaitN(len(ts), 20*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			ex.Stop() // what the idle executor held, read once its goroutines are done
			held, bound := executor.DecodeChunks(ex), (slots+1)*8<<10
			t.Logf("%d slots: %d bytes of decode chunks after 20,480 tasks", slots, held)
			if held == 0 || held > bound {
				t.Errorf("an idle %d-slot executor keeps %d bytes of decode chunks, want some and at most %d", slots, held, bound)
			}
		})
	}
}
