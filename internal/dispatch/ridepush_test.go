package dispatch_test

// Work rides the push (DESIGN.md §9.2), as counts: which executors are handed
// their grant in the notification, which are only told that work is
// available, and that neither way loses or repeats a task. The lost-batch rows
// for a pushed batch are in ahead_test.go, the multi-slot and over-eager
// dispatcher rows in internal/executor.

import (
	"encoding/json"
	"fmt"
	"math"
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

// pushedGrants reads falkon_dispatch_grants_pushed_total.
func pushedGrants(d *dispatch.Dispatcher) int64 {
	return d.Metrics().Counter("falkon_dispatch_grants_pushed_total").Value()
}

// getWorkCalls reads the executor's own count of falkon.get-work calls.
func getWorkCalls(ex *executor.Executor) int64 {
	return ex.Metrics().Counter(obs.Labeled("wsrpc_client_calls_total", "method", fproto.MethodGetWork)).Value()
}

// oneAtATime submits n instant tasks, each once the one before has come back.
func oneAtATime(t *testing.T, c *client.Client, gen *task.IDGen, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Submit(task.Batch(gen, 1, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(1, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// The paper's Fig. 10 case: one executor slot, one task in flight. Once the
// slot has told the dispatcher it is waiting, every task reaches it in the
// push: no get-work call at all, one pushed grant of one task each, and the
// Figure-10 stages still partition end-to-end latency, with nothing between
// notification and assignment.
func TestUnqueuedTaskRidesThePush(t *testing.T) {
	d, c, execs := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 1}, 1, executor.Options{})
	var gen task.IDGen
	oneAtATime(t, c, &gen, 10) // the first is announced and pulled; its Deliver parks the slot

	const n = 200
	before := d.MetricsSnapshot()
	pulls, pushes := getWorkCalls(execs[0]), pushedGrants(d)
	oneAtATime(t, c, &gen, n)
	if got := getWorkCalls(execs[0]) - pulls; got != 0 {
		t.Errorf("%d tasks cost %d falkon.get-work calls, want 0", n, got)
	}
	if got := pushedGrants(d) - pushes; got != n {
		t.Errorf("%d tasks rode %d pushed grants, want %d", n, got, n)
	}
	after := d.MetricsSnapshot()
	grants := after.Histogram("falkon_dispatch_grant_tasks")
	grants0 := before.Histogram("falkon_dispatch_grant_tasks")
	if dn, ds := grants.Count-grants0.Count, grants.Sum-grants0.Sum; dn != n || ds != n {
		t.Errorf("falkon_dispatch_grant_tasks observed %d grants of %v tasks, want %d of %d", dn, ds, n, n)
	}
	var stages float64
	for _, stage := range obs.Stages {
		h, h0 := after.Histogram(obs.StageKey(stage)), before.Histogram(obs.StageKey(stage))
		if h.Count-h0.Count != n {
			t.Errorf("stage %s observed %d tasks, want %d", stage, h.Count-h0.Count, n)
		}
		if stage == obs.StageNotifyPull && h.Sum != h0.Sum {
			t.Errorf("notify_pull grew by %v s over %d pushed grants, want 0", h.Sum-h0.Sum, n)
		}
		stages += h.Sum - h0.Sum
	}
	e2e := after.Histogram(obs.MetricE2ESeconds).Sum - before.Histogram(obs.MetricE2ESeconds).Sum
	if e2e <= 0 || math.Abs(stages-e2e) > 1e-6*math.Max(1, e2e) {
		t.Errorf("stage sums = %v s, e2e sum = %v s", stages, e2e)
	}
	// An operator can tell a pushed grant from a pull in the event stream.
	evs, _ := d.Tracer().Since(0, 0)
	kinds := make(map[obs.EventKind]int)
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds[obs.EvPushed] < n || kinds[obs.EvPulled] != 1 {
		t.Errorf("trace holds %d pushed and %d pulled events, want at least %d and 1", kinds[obs.EvPushed], kinds[obs.EvPulled], n)
	}
}

// rawExec is a hand-rolled executor: the protocol as an executor built before
// the work grant speaks it (accepts false), or just the registration of one
// that announces the capability. It records every notification in arrival
// order, and what the grants carried.
type rawExec struct {
	id   string
	cli  *wsrpc.Client
	wake chan struct{}

	mu      sync.Mutex
	notes   []string
	granted []fproto.Assignment
}

func dialRawExec(t *testing.T, addr, id string, slots int, accepts bool) *rawExec {
	t.Helper()
	x := &rawExec{id: id, wake: make(chan struct{}, 1)}
	cli, err := wsrpc.Dial(addr, wsrpc.ClientOptions{OnNotify: func(method string, body json.RawMessage) {
		var grant fproto.GetWorkReply
		if method == fproto.NotifyWorkGrant {
			if err := json.Unmarshal(body, &grant); err != nil {
				t.Error(err)
			}
		}
		x.mu.Lock()
		x.notes = append(x.notes, method)
		x.granted = append(x.granted, grant.Assignments...)
		x.mu.Unlock()
		select {
		case x.wake <- struct{}{}:
		default:
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	x.cli = cli
	if err := cli.Call(fproto.MethodRegister, fproto.RegisterRequest{ExecutorID: id, Slots: slots, AcceptsGrants: accepts}, nil); err != nil {
		t.Fatal(err)
	}
	return x
}

func (x *rawExec) notified() []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]string(nil), x.notes...)
}

// drain pulls and delivers until a reply comes back empty, and returns the
// tasks it ran.
func (x *rawExec) drain(t *testing.T) (ran int) {
	t.Helper()
	var work fproto.GetWorkReply
	if err := x.cli.Call(fproto.MethodGetWork, fproto.GetWorkRequest{ExecutorID: x.id, Max: 8}, &work); err != nil {
		t.Error(err)
		return 0
	}
	for as := work.Assignments; len(as) > 0; {
		req := fproto.DeliverRequest{ExecutorID: x.id, WantWork: true, MaxNew: 8}
		for _, a := range as {
			req.Results = append(req.Results, fproto.TaggedResult{EPR: a.EPR, Result: task.Result{ID: a.Task.ID}})
		}
		ran += len(as)
		var ack fproto.DeliverReply
		if err := x.cli.Call(fproto.MethodDeliver, req, &ack); err != nil {
			t.Error(err)
			return ran
		}
		as = ack.Assignments
	}
	return ran
}

// An executor that registers into a queue that already holds work — on a
// dispatcher that was just handed it, or one that recovered it from its
// journal — is told that work is available, however loudly it announced that
// it accepts grants: no assignment precedes the register reply on the wire,
// and none arrives until the executor has pulled and come back empty-handed.
func TestRegistrationIsToldNotHanded(t *testing.T) {
	const queued = 5
	for _, recovered := range []bool{false, true} {
		name := "fresh queue"
		if recovered {
			name = "queue recovered from the journal"
		}
		t.Run(name, func(t *testing.T) {
			dopts := dispatch.Options{}
			if recovered {
				dopts.JournalDir = t.TempDir()
			}
			d, c, _ := startSystem(t, dopts, client.Options{}, 0, executor.Options{})
			var gen task.IDGen
			if err := c.Submit(task.Batch(&gen, queued, 0)); err != nil {
				t.Fatal(err)
			}
			if recovered {
				d.Abort() // the queue now exists only in the journal
				d = dispatch.New(dopts)
				if err := d.Listen("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { d.Close() })
				if st := d.Stats(); st.Queued != queued {
					t.Fatalf("recovered %d queued tasks, want %d", st.Queued, queued)
				}
			}
			x := dialRawExec(t, d.Addr(), "late", 1, true)
			// The push is written by the register handler, so it is on the wire
			// ahead of the reply that just came back.
			if got := fmt.Sprint(x.notified()); got != fmt.Sprint([]string{fproto.NotifyWorkAvailable}) {
				t.Fatalf("notifications ahead of the register reply: %s, want one %s", got, fproto.NotifyWorkAvailable)
			}
			time.Sleep(20 * time.Millisecond)
			if st := d.Stats(); st.Dispatched != 0 || pushedGrants(d) != 0 {
				t.Fatalf("dispatched=%d pushed=%d before the executor pulled, want 0 0", st.Dispatched, pushedGrants(d))
			}
			if ran := x.drain(t); ran != queued {
				t.Fatalf("the executor pulled %d tasks, want %d", ran, queued)
			}
			// Its last reply was empty: now it is waiting by its own account,
			// and the next task is handed to it.
			if err := submitRaw(d.Addr(), &gen); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the parked slot is handed the next task", func() bool {
				n := x.notified()
				return n[len(n)-1] == fproto.NotifyWorkGrant
			})
			if pushedGrants(d) != 1 {
				t.Fatalf("pushed grants = %d, want 1", pushedGrants(d))
			}
		})
	}
}

// submitRaw submits one instant task through a throw-away instance.
func submitRaw(addr string, gen *task.IDGen) error {
	cli, err := wsrpcDial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	var inst fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{}, &inst); err != nil {
		return err
	}
	return cli.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: inst.EPR, Tasks: task.Batch(gen, 1, 0)}, nil)
}

// Mixed versions, old executor: one that never announced the capability is
// only ever told that work is available — zero pushed grants over 2,000 tasks,
// all of which it completes by pulling — while a new executor registered
// beside it is handed its work.
func TestExecutorThatDoesNotAcceptGrantsPulls(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 50}, 0, executor.Options{})
	old := dialRawExec(t, d.Addr(), "old", 1, false)
	stop, stopped := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-stopped }()
	go func() {
		defer close(stopped)
		for {
			select {
			case <-old.wake:
				old.drain(t)
			case <-stop:
				return
			}
		}
	}()
	const n = 2000
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	oneAtATime(t, c, &gen, 20) // unqueued tasks too: the case a push would have taken
	for _, method := range old.notified() {
		if method != fproto.NotifyWorkAvailable {
			t.Fatalf("the old executor was sent a %s", method)
		}
	}
	if got := pushedGrants(d); got != 0 {
		t.Fatalf("pushed grants = %d with only an old executor registered, want 0", got)
	}

	// A new executor beside it: the dispatcher tells the two apart.
	ex, err := executor.Start(executor.Options{ID: "new", DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	if err := c.Submit(task.Batch(&gen, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(100, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	// The new executor was told of that work as it arrived, and its slot waits
	// by its own account only once it has pulled: the old one can drain all
	// 100 first. Which of the two idled last is a race, and the idle stack is
	// LIFO — whoever runs a lone task is the last to idle again — so the round
	// is two tasks, one for each idle executor in either order.
	waitFor(t, "the new executor has pulled and both are idle", func() bool {
		return getWorkCalls(ex) > 0 && d.Stats().BusyExecutors == 0
	})
	before := pushedGrants(d)
	if err := c.Submit(task.Batch(&gen, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if pushedGrants(d) == before {
		t.Error("the new executor was never handed a task in the push")
	}
	for _, method := range old.notified() {
		if method != fproto.NotifyWorkAvailable {
			t.Fatalf("the old executor was sent a %s once a new one had registered", method)
		}
	}
}

// Stop and the idle release racing a push. An executor that is waiting may be
// handed a grant at the moment it decides to leave; the grant is left unread
// and the deregistration has the dispatcher replay it, so every task still reaches
// the client exactly once and nothing is left busy or outstanding.
func TestLeavingExecutorRacingAPush(t *testing.T) {
	for _, how := range []string{"Stop", "idle release"} {
		t.Run(how, func(t *testing.T) {
			d, c, _ := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 1}, 1, executor.Options{})
			var gen task.IDGen
			oneAtATime(t, c, &gen, 5) // the stayer is parked
			const rounds, each = 40, 6
			total := 0
			for round := 0; round < rounds; round++ {
				opts := executor.Options{ID: fmt.Sprintf("leaver-%d", round), DispatcherAddr: d.Addr()}
				if how == "idle release" {
					opts.IdleTimeout = 3 * time.Millisecond
				}
				leaver, err := executor.Start(opts)
				if err != nil {
					t.Fatal(err)
				}
				// Tasks in twos, so that the leaver (the last to idle is the first
				// notified) and the stayer are both in play while it leaves.
				left := make(chan struct{})
				go func() {
					defer close(left)
					if how == "Stop" {
						time.Sleep(time.Duration(round%8) * 250 * time.Microsecond)
						leaver.Stop()
					} else {
						<-leaver.Done()
					}
				}()
				for i := 0; i < each; i++ {
					if err := c.Submit(task.Batch(&gen, 2, 0)); err != nil {
						t.Fatal(err)
					}
					if _, err := c.WaitN(2, 30*time.Second); err != nil {
						t.Fatalf("round %d: %v (stats %+v)", round, err, d.Stats())
					}
					total += 2
				}
				<-left
			}
			select {
			case r := <-c.Results():
				t.Fatalf("a result was delivered twice: %+v", r)
			case <-time.After(50 * time.Millisecond):
			}
			waitFor(t, "only the stayer is registered, and idle", func() bool {
				st := d.Stats()
				return st.TotalExecutors == 1 && st.BusyExecutors == 0
			})
			if st := d.Stats(); st.Completed != int64(total+5) || st.Failed != 0 || st.Queued != 0 || st.Outstanding != 0 {
				t.Fatalf("completed=%d failed=%d queued=%d outstanding=%d, want %d 0 0 0", st.Completed, st.Failed, st.Queued, st.Outstanding, total+5)
			}
			if pushedGrants(d) == 0 {
				t.Fatal("no grant was ever pushed: the race never ran")
			}
		})
	}
}

func (x *rawExec) grants() []fproto.Assignment {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append([]fproto.Assignment(nil), x.granted...)
}

// A hung executor is never fed, however many slots it has. Four slots wait by
// their own account, one is handed a task in the push, and the process goes
// silent (a SIGSTOP, a paused VM, a half-open connection). The replay timeout
// frees that one slot and says nothing for the other three, which are as silent
// as the first: the replayed task is announced to the executor, never pushed
// into it again, so it keeps its retries and runs on the executor that comes
// along. Once the quiet one speaks, it is handed work as before.
func TestSilentMultiSlotExecutorIsNotFedAgain(t *testing.T) {
	const replay = 100 * time.Millisecond
	d, c, _ := startSystem(t, dispatch.Options{ReplayTimeout: replay}, client.Options{BundleSize: 1}, 0, executor.Options{})
	x := dialRawExec(t, d.Addr(), "quiet", 4, true)
	for slot := 0; slot < 4; slot++ { // each slot's Deliver asks for more, and is answered with nothing
		var ack fproto.DeliverReply
		if err := x.cli.Call(fproto.MethodDeliver, fproto.DeliverRequest{ExecutorID: x.id, WantWork: true, MaxNew: 1}, &ack); err != nil || len(ack.Assignments) != 0 {
			t.Fatalf("deliver: %v, an empty queue handed out %d tasks", err, len(ack.Assignments))
		}
	}
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 1, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a waiting slot is handed the task", func() bool { return len(x.grants()) == 1 })
	waitFor(t, "the replay timeout takes the task back", func() bool { return d.Stats().Retried == 1 })
	time.Sleep(5 * replay) // pushed back each time, its three retries would be gone by now
	want := []string{fproto.NotifyWorkGrant, fproto.NotifyWorkAvailable}
	if st := d.Stats(); st.Retried != 1 || st.Failed != 0 || st.Queued != 1 || pushedGrants(d) != 1 || fmt.Sprint(x.notified()) != fmt.Sprint(want) {
		t.Fatalf("retried=%d failed=%d queued=%d pushed=%d, the silent executor was sent %v; want 1 0 1 1 %v",
			st.Retried, st.Failed, st.Queued, pushedGrants(d), x.notified(), want)
	}

	survivor, err := executor.Start(executor.Options{ID: "survivor", DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Stop()
	rs, err := c.WaitN(1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r := rs[0]; r.Failed() || r.ExecutorID != "survivor" || r.Attempts != 2 {
		t.Fatalf("the replayed task came back as %+v, want the survivor's second attempt", r)
	}
	survivor.Stop()
	waitFor(t, "the survivor has left", func() bool { return d.Stats().TotalExecutors == 1 })

	// The quiet executor wakes up and delivers, late: a duplicate, and word
	// that it is alive. Its empty answer leaves the slot waiting once more.
	deliver := func(a fproto.Assignment) {
		t.Helper()
		req := fproto.DeliverRequest{ExecutorID: x.id, WantWork: true, MaxNew: 1,
			Results: []fproto.TaggedResult{{EPR: a.EPR, Result: task.Result{ID: a.Task.ID}}}}
		var ack fproto.DeliverReply
		if err := x.cli.Call(fproto.MethodDeliver, req, &ack); err != nil || len(ack.Assignments) != 0 {
			t.Fatalf("deliver: %v, answered with %d tasks", err, len(ack.Assignments))
		}
	}
	deliver(x.grants()[0])
	if st := d.Stats(); st.Duplicates != 1 || st.Completed != 1 {
		t.Fatalf("duplicates=%d completed=%d after the late result, want 1 1", st.Duplicates, st.Completed)
	}
	if err := c.Submit(task.Batch(&gen, 1, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the executor that spoke is handed the next task", func() bool { return len(x.grants()) == 2 })
	deliver(x.grants()[1])
	if _, err := c.WaitN(1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Completed != 2 || st.Failed != 0 || st.Queued != 0 || st.Outstanding != 0 || pushedGrants(d) != 2 {
		t.Fatalf("completed=%d failed=%d queued=%d outstanding=%d pushed=%d, want 2 0 0 0 2", st.Completed, st.Failed, st.Queued, st.Outstanding, pushedGrants(d))
	}
}
