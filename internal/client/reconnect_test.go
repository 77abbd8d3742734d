package client_test

import (
	"bytes"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// cutter is a client's transport that can be made to lose what the dispatcher
// sends it: once lose is called, the connection it wrapped last drops every
// byte it reads, and cut then closes it.
type cutter struct {
	mu      sync.Mutex
	last    *lossyConn
	dropped bytes.Buffer
}

func (c *cutter) WrapConn(nc net.Conn) net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last = &lossyConn{Conn: nc, of: c}
	return c.last
}

func (*cutter) DupNotify() bool { return false }

func (c *cutter) lose() { c.mu.Lock(); c.last.losing = true; c.mu.Unlock() }

func (c *cutter) cut() { c.mu.Lock(); c.last.Close(); c.mu.Unlock() }

func (c *cutter) lost(b string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Contains(c.dropped.Bytes(), []byte(b))
}

type lossyConn struct {
	net.Conn
	of     *cutter
	losing bool // guarded by of.mu
}

func (l *lossyConn) Read(p []byte) (int, error) {
	for {
		n, err := l.Conn.Read(p)
		l.of.mu.Lock()
		losing := l.losing
		if losing {
			l.of.dropped.Write(p[:n])
		}
		l.of.mu.Unlock()
		if !losing || err != nil {
			return n, err
		}
	}
}

// A reconnecting client whose dispatcher sent some results into a connection
// that then died gets exactly one result a task, and the dispatcher re-runs
// only those: the ones it still held, outstanding at an executor, it drops
// from the resubmission as owed. The dispatcher keeps no journal; the client
// reattaches to the instance its dropped connection left.
func TestReconnectRerunsOnlyLostResults(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	faults := &cutter{}
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 4, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n, lost = 10, 3
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	d.Register(fproto.RegisterRequest{ExecutorID: "x", Slots: n}, discard{})
	as, err := d.Stock("x", n, n, nil)
	if err != nil || len(as) != n {
		t.Fatalf("stocked %d of %d: %v", len(as), n, err)
	}
	epr := c.EPR()
	deliver := func(ids ...task.ID) {
		t.Helper()
		req := fproto.DeliverRequest{ExecutorID: "x"}
		for _, id := range ids {
			req.Results = append(req.Results, fproto.TaggedResult{EPR: epr, Result: task.Result{ID: id, Stdout: "out-" + id.String()}})
		}
		if _, err := d.Deliver(&req); err != nil {
			t.Fatal(err)
		}
	}

	// The first three results are pushed and lost with the connection.
	faults.lose()
	deliver(1, 2, 3)
	waitUntil(t, "the pushed results are lost", func() bool { return faults.lost("out-t3") })
	faults.cut()
	waitUntil(t, "the client resubmits what it awaits", func() bool { return c.Resubmitted() == n })
	if got := c.Deduped(); got != n-lost {
		t.Fatalf("the dispatcher dropped %d resubmitted tasks as still owed, want the %d it held", got, n-lost)
	}

	// What it held comes back from the executor; what was lost runs again.
	deliver(4, 5, 6, 7, 8, 9, 10)
	again, err := d.Stock("x", n, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rerun []task.ID
	for _, a := range again {
		rerun = append(rerun, a.Task.ID)
	}
	sort.Slice(rerun, func(i, j int) bool { return rerun[i] < rerun[j] })
	if len(rerun) != lost || rerun[0] != 1 || rerun[1] != 2 || rerun[2] != 3 {
		t.Fatalf("the dispatcher re-runs %v, want the lost 1, 2 and 3 only", rerun)
	}
	deliver(rerun...)

	rs, err := c.WaitN(n, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[task.ID]bool{}
	for _, r := range rs {
		if seen[r.ID] || r.Stdout != "out-"+r.ID.String() {
			t.Fatalf("result %+v: seen already %v", r, seen[r.ID])
		}
		seen[r.ID] = true
	}
	select {
	case r := <-c.Results():
		t.Fatalf("an eleventh result: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	if st := d.Stats(); st.Submitted != n+lost {
		t.Fatalf("the dispatcher admitted %d tasks, want %d and the %d lost", st.Submitted, n, lost)
	}
	if owed, held := c.Holds(); owed != 0 || held != 0 {
		t.Fatalf("after every result the client awaits %d and holds %d tasks", owed, held)
	}
}

// discard is an executor inside the test's process that is told of work and
// does nothing with the news: the test asks for the work itself.
type discard struct{}

func (discard) Notify(string, any) error { return nil }

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// A client made with only the options the repo benchmark sets rides out a
// journaled dispatcher's crash and restart mid-run: it reattaches, resubmits
// what it still awaits, and gets every result exactly once.
func TestDefaultClientRidesOutAJournaledRestart(t *testing.T) {
	dir := t.TempDir()
	start := func(addr string) *dispatch.Dispatcher {
		d := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
		if err := d.Listen(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	d := start("127.0.0.1:0")
	addr := d.Addr()
	ex, err := executor.Start(executor.Options{ID: "e0", DispatcherAddr: addr, SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	c, err := client.Connect(client.Options{DispatcherAddr: addr, Name: "default", BundleSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 1000
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, time.Second)); err != nil { // 1 ms each, on one slot
		t.Fatal(err)
	}
	waitUntil(t, "some results are in", func() bool { return len(c.Results()) > 0 })
	d.Abort()
	start(addr)

	rs, err := c.WaitN(n, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[task.ID]bool{}
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("task %v delivered twice", r.ID)
		}
		seen[r.ID] = true
	}
	select {
	case r := <-c.Results():
		t.Fatalf("a result past the %d owed: %+v", n, r)
	case <-time.After(50 * time.Millisecond):
	}
	if c.Reconnects() < 1 {
		t.Fatal("the client never reconnected: the crash missed the run")
	}
	if owed, held := c.Holds(); owed != 0 || held != 0 {
		t.Fatalf("after every result the client awaits %d and holds %d tasks", owed, held)
	}
}
