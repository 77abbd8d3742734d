package dispatch_test

// The push path: a handler's flush writes {3} and {8} notifications straight
// into the receiving connection's cork buffer. These tests hold what that
// path promises — frame-per-batch, per-executor order, a failed push that
// buffers instead of vanishing — and what a peer that stops reading costs
// everyone else.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// Eight executor connections deliver batches concurrently for one push-mode
// instance. Every Deliver batch must reach the client as exactly one
// ResultsNotify frame, and each executor's results must arrive in the order
// that executor delivered them (its batches are flushed from its own
// connection's read loop, one after the other).
func TestResultPushFramingAndOrder(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const execs, batch, n = 8, 4, 8 * 4 * 25
	var mu sync.Mutex
	frames := 0
	seen := make(map[string][]task.ID) // executor → result IDs in arrival order
	cli, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{OnNotify: func(method string, body json.RawMessage) {
		var rn fproto.ResultsNotify
		if method != fproto.NotifyResults || rn.DecodeJSON(body) != nil {
			return
		}
		mu.Lock()
		frames++
		for _, r := range rn.Results {
			seen[r.ExecutorID] = append(seen[r.ExecutorID], r.ID)
		}
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var inst fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{WantNotifications: true}, &inst); err != nil {
		t.Fatal(err)
	}
	var gen task.IDGen
	if err := cli.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: inst.EPR, Tasks: task.Batch(&gen, n, 0)}, nil); err != nil {
		t.Fatal(err)
	}

	sent := make([][]task.ID, execs) // what each executor delivered, in order
	var batches atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < execs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("exec-%d", i)
			ec, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer ec.Close()
			if err := ec.Call(fproto.MethodRegister, fproto.RegisterRequest{ExecutorID: id, Slots: batch}, nil); err != nil {
				t.Error(err)
				return
			}
			for {
				var work fproto.GetWorkReply
				if err := ec.Call(fproto.MethodGetWork, fproto.GetWorkRequest{ExecutorID: id, Max: batch}, &work); err != nil {
					t.Error(err)
					return
				}
				if len(work.Assignments) == 0 {
					return // queue drained
				}
				req := fproto.DeliverRequest{ExecutorID: id}
				for _, a := range work.Assignments {
					req.Results = append(req.Results, fproto.TaggedResult{EPR: a.EPR, Result: task.Result{ID: a.Task.ID}})
					sent[i] = append(sent[i], a.Task.ID)
				}
				if err := ec.Call(fproto.MethodDeliver, req, nil); err != nil {
					t.Error(err)
					return
				}
				batches.Add(1)
			}
		}()
	}
	wg.Wait()
	// Every push was written before its Deliver was acknowledged; the client
	// only has to read them.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		got := 0
		for _, ids := range seen {
			got += len(ids)
		}
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client received %d of %d results", got, n)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(frames) != batches.Load() {
		t.Errorf("%d Deliver batches reached the client as %d ResultsNotify frames", batches.Load(), frames)
	}
	for i := range sent {
		id := fmt.Sprintf("exec-%d", i)
		if fmt.Sprint(seen[id]) != fmt.Sprint(sent[i]) {
			t.Errorf("%s delivered %v, client saw %v", id, sent[i], seen[id])
		}
	}
}

// dropFirst is a dispatcher-side fault: once armed, the first connection the
// dispatcher accepted dies at its next write — a client whose connection
// breaks with a push in flight, before any disconnect handling has run.
type dropFirst struct {
	accepted atomic.Int32
	armed    atomic.Bool
}

func (f *dropFirst) DupNotify() bool { return false }

func (f *dropFirst) WrapConn(c net.Conn) net.Conn {
	if f.accepted.Add(1) != 1 {
		return c
	}
	return &dropConn{Conn: c, f: f}
}

type dropConn struct {
	net.Conn
	f *dropFirst
}

func (c *dropConn) Write(p []byte) (int, error) {
	if c.f.armed.Load() {
		c.Conn.Close()
		return 0, errors.New("injected: connection died mid-push")
	}
	return c.Conn.Write(p)
}

// A result pushed at a connection that has just died is still owed. It must
// buffer for the reattach (not vanish), stay in the resubmission dedupe set
// (so the reconnecting client's resubmit does not run the task again), and
// the failure must be counted where an operator can see it.
func TestFailedPushBuffersForReattach(t *testing.T) {
	faults := &dropFirst{}
	d := dispatch.New(dispatch.Options{JournalDir: t.TempDir(), Faults: faults, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 8, Reconnect: true}) // the first connection
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One executor, so one Deliver connection and one push at a time: each
	// push then either fails in Notify or was never attempted. (With several,
	// a frame can sit in the cork buffer behind the write that fails; like
	// bytes in a dead socket's kernel buffer it is lost with the connection,
	// and the client's resubmission re-runs that task.)
	release := make(chan struct{})
	var ran atomic.Int64 // counted here, not by Executor.TasksRun, which trails the delivery
	ex, err := executor.Start(executor.Options{
		ID:             "exec-0",
		DispatcherAddr: d.Addr(),
		Funcs: map[string]executor.Func{"held": func(task.Task) (string, int, error) {
			ran.Add(1)
			<-release
			return "ok", 0, nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()

	const n = 40
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{ID: task.ID(i + 1), Engine: task.EngineFunc, Command: "held"}
	}
	if err := c.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); d.Stats().Outstanding == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the executor never picked a held task up")
		}
	}
	// The goroutine that wrote the last Submit reply may still be on its way
	// out of the cork flusher's loop; a push that slipped in behind it would be
	// lost the same way. Let it leave.
	time.Sleep(50 * time.Millisecond)
	faults.armed.Store(true) // the very next push finds the connection dead
	close(release)

	rs, err := c.WaitN(n, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool, n)
	for _, r := range rs {
		if r.Failed() || seen[r.ID] {
			t.Fatalf("result %v failed or arrived twice: %+v", r.ID, r)
		}
		seen[r.ID] = true
	}
	if dup := c.DuplicatesDropped(); dup != 0 {
		t.Errorf("%d results reached the client twice", dup)
	}
	if ran.Load() != n {
		t.Errorf("executors ran %d tasks for %d submitted: a result lost with the connection was re-executed", ran.Load(), n)
	}
	// The failure (without one, no push hit the dead connection and nothing
	// above was tested) is on the wire for falkon-top and in the registry for
	// /metrics.
	sc, err := wsrpcDial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var st fproto.StatsReply
	if err := sc.Call(fproto.MethodStats, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.NotifyErrors == 0 || d.Metrics().Counter("falkon_notify_errors_total").Value() != st.NotifyErrors {
		t.Errorf("falkon.stats notify_errors = %d, falkon_notify_errors_total = %d; want equal and non-zero",
			st.NotifyErrors, d.Metrics().Counter("falkon_notify_errors_total").Value())
	}
}

// shortWrites is the dispatcher's side of the overload test: every write on
// every accepted connection gets a short deadline of its own (and a fixed
// socket buffer, so the kernel cannot soak up megabytes before a write
// blocks). wsrpc's write-stall bound cannot be shortened from outside that
// package, whose own tests hold the arming rule; what is under test here is
// what the dispatcher does when the bound trips.
type shortWrites struct{ deadline time.Duration }

func (f shortWrites) DupNotify() bool { return false }

func (f shortWrites) WrapConn(c net.Conn) net.Conn {
	c.(*net.TCPConn).SetWriteBuffer(256 << 10)
	return &shortWriteConn{Conn: c, d: f.deadline}
}

// deafness is the client's side: its connection stops reading on command.
type deafness struct{ stopReading atomic.Bool }

func (f *deafness) DupNotify() bool { return false }

func (f *deafness) WrapConn(c net.Conn) net.Conn {
	c.(*net.TCPConn).SetReadBuffer(8 << 10)
	return &deafConn{Conn: c, f: f, closed: make(chan struct{})}
}

type shortWriteConn struct {
	net.Conn
	d time.Duration
}

func (c *shortWriteConn) SetWriteDeadline(time.Time) error { return nil } // Write's own stands

func (c *shortWriteConn) Write(p []byte) (int, error) {
	c.Conn.SetWriteDeadline(time.Now().Add(c.d))
	return c.Conn.Write(p)
}

type deafConn struct {
	net.Conn
	f      *deafness
	once   sync.Once
	closed chan struct{}
}

func (c *deafConn) Read(p []byte) (int, error) {
	for c.f.stopReading.Load() {
		select {
		case <-c.closed:
			return 0, net.ErrClosed
		case <-time.After(10 * time.Millisecond):
		}
	}
	return c.Conn.Read(p)
}

func (c *deafConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// A push-mode client subscribes, then never reads again, while megabytes of
// results are pushed at it. Handlers must not wait on that socket beyond the
// write bound: the peer is dropped and its instance detaches, so that what
// finishes for it afterwards buffers for whoever reattaches (what was already
// written to the dead connection is lost with it, as with any connection
// that dies, and is the reconnecting client's resubmission to recover); a
// healthy client on the same dispatcher and executors keeps completing work,
// during the stall and after it; and the dispatcher's heap keeps nothing of
// the episode.
func TestNeverReadingClientIsDroppedAndBuffered(t *testing.T) {
	blob := strings.Repeat("r", 32<<10)
	release := make(chan struct{})
	eopts := executor.Options{Funcs: map[string]executor.Func{
		"blob": func(task.Task) (string, int, error) { <-release; return blob, 0, nil },
	}}
	d, healthy, _ := startSystem(t, dispatch.Options{Faults: shortWrites{deadline: 250 * time.Millisecond}},
		client.Options{BundleSize: 16}, 4, eopts)

	deaf := &deafness{}
	stalled, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 16, Faults: deaf})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	defer deaf.stopReading.Store(false) // or Close waits on a reply it cannot hear

	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	// × 32 KiB = 10 MiB: more than one write in flight plus a full cork buffer
	// (4 MiB each), so some pushers are parked on the buffer when the bound
	// trips, whoever happens to be the flusher.
	const blobs = 320
	tasks := make([]task.Task, blobs)
	for i := range tasks {
		tasks[i] = task.Task{ID: task.ID(i + 1), Engine: task.EngineFunc, Command: "blob"}
	}
	if err := stalled.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	deaf.stopReading.Store(true)
	close(release)

	// The healthy side: bundles of sleep-0 tasks, back to back, from before
	// the first blocked write until well after the drop.
	var gen task.IDGen
	start := time.Now()
	for round := 0; round < 10; round++ {
		if err := healthy.Submit(task.Batch(&gen, 64, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := healthy.WaitN(64, 20*time.Second); err != nil {
			t.Fatalf("healthy client, round %d, %v after the stall began: %v", round, time.Since(start), err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); d.Stats().NotifyErrors == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the client that never reads was not dropped")
		}
	}

	// More work finishes for the dropped client's instance; whoever
	// reattaches to it collects every one of those results. (In a function of
	// its own so that nothing of the collecting connection, whose read buffer
	// grows to the largest reply, outlives it into the heap check.)
	const late = 20
	func() {
		rc, err := wsrpcDial(d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		lateTasks := make([]task.Task, late)
		for i := range lateTasks {
			lateTasks[i] = task.Sleep(task.ID(1000+i+1), 0)
		}
		if err := rc.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: stalled.EPR(), Tasks: lateTasks}, nil); err != nil {
			t.Fatal(err)
		}
		if err := rc.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{EPR: stalled.EPR()}, nil); err != nil {
			t.Fatal(err)
		}
		got, gotLate := make(map[task.ID]bool), 0
		for deadline := time.Now().Add(20 * time.Second); gotLate < late; {
			var reply fproto.CollectReply
			if err := rc.Call(fproto.MethodCollect, fproto.CollectRequest{EPR: stalled.EPR(), WaitMillis: 200}, &reply); err != nil {
				t.Fatal(err)
			}
			for _, r := range reply.Results {
				if got[r.ID] {
					t.Fatalf("result %v collected twice", r.ID)
				}
				got[r.ID] = true
				if r.ID > 1000 {
					gotLate++
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("collected %d of the %d results that finished after the drop", gotLate, late)
			}
		}
		if len(got) == late {
			t.Error("no failed push was buffered: the pushers parked on the dead connection lost their results")
		}
	}()

	var end runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: encoding/json pools the buffer that reply was built in
	runtime.ReadMemStats(&end)
	if grew := int64(end.HeapAlloc) - int64(base.HeapAlloc); grew > 4<<20 {
		t.Errorf("heap holds %d KiB more than before the stall", grew>>10)
	}
}
