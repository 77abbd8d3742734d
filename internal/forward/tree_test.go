package forward_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// fastBackoff keeps restart tests snappy.
var fastBackoff = backoff.Policy{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2}

// TestForwarderSurvivesLeafRestart is the resilience regression for the
// pass-through era, where a restarted downstream dispatcher killed (or
// wedged) the forwarder for good: the root must redial the leaf with
// backoff, re-establish its parent attachment and downstream instances, and
// replay whatever the dead leaf still owed — all without the upstream
// client noticing more than latency.
func TestForwarderSurvivesLeafRestart(t *testing.T) {
	d1 := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()
	ex, err := executor.Start(executor.Options{
		ID: "restart-exec", DispatcherAddr: addr, SleepScale: 0.001,
		Reconnect: true, Backoff: fastBackoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	f, err := forward.New(forward.Options{Dispatchers: []string{addr}, Bundle: 10, Backoff: fastBackoff, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(20, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Slow-ish tasks so some are still owed when the leaf dies.
	if err := c.Submit(task.Batch(&gen, 30, 2*time.Second)); err != nil { // 2ms real each
		t.Fatal(err)
	}
	d1.Abort() // crash: no drain, no journal — outstanding work evaporates

	// Restart a fresh dispatcher on the same address: Abort returned, so
	// the old listener is closed.
	d2 := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d2.Listen(addr); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { d2.Close() })

	rs, err := c.WaitN(30, 60*time.Second)
	if err != nil {
		t.Fatalf("tasks lost across leaf restart: %v", err)
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate result %v", r.ID)
		}
		seen[r.ID] = true
	}
	st := f.Stats()
	if len(st.Leaves) != 1 || st.Leaves[0].Reconnects < 1 {
		t.Fatalf("leaf stats = %+v, want ≥1 reconnect", st.Leaves)
	}

	// The forwarder is not wedged: fresh work still flows.
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestForwarderLeafDeathExactlyOnce kills one of two leaves mid-workload
// and requires N submitted ⇒ N unique results: the dead leaf's pending
// tasks replay through the root onto the survivor, and any replay racing an
// already-delivered original drops in the root's dedupe.
func TestForwarderLeafDeathExactlyOnce(t *testing.T) {
	var addrs []string
	var ds []*dispatch.Dispatcher
	for i := 0; i < 2; i++ {
		d := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		ex, err := executor.Start(executor.Options{
			ID: fmt.Sprintf("eo-exec-%d", i), DispatcherAddr: d.Addr(), SleepScale: 0.001,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
		addrs = append(addrs, d.Addr())
		ds = append(ds, d)
	}
	f, err := forward.New(forward.Options{Dispatchers: addrs, Bundle: 8, Backoff: fastBackoff, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 200
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, time.Second)); err != nil { // 1ms real each
		t.Fatal(err)
	}
	ds[0].Abort() // leaf 0 crashes with queued + in-flight work

	rs, err := c.WaitN(n, 60*time.Second)
	if err != nil {
		t.Fatalf("lost tasks after leaf death: %v (got %d)", err, len(rs))
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if r.Failed() {
			t.Fatalf("task %v failed: %+v", r.ID, r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate result %v", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("unique results = %d, want %d", len(seen), n)
	}
}

// TestForwarderRoutesByCapacity pins the headline routing behavior: with
// the capacity protocol live, a leaf with no executors is never fed, where
// round-robin would have parked half the workload on it.
func TestForwarderRoutesByCapacity(t *testing.T) {
	empty := dispatch.New(dispatch.Options{Logf: t.Logf}) // no executors
	if err := empty.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { empty.Close() })
	busy := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := busy.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { busy.Close() })
	for i := 0; i < 4; i++ {
		ex, err := executor.Start(executor.Options{
			ID: fmt.Sprintf("cap-exec-%d", i), DispatcherAddr: busy.Addr(), SleepScale: 0.001,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
	}
	f, err := forward.New(forward.Options{Dispatchers: []string{empty.Addr(), busy.Addr()}, Bundle: 10, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(100, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := empty.Stats(); st.Submitted != 0 {
		t.Fatalf("executor-less leaf received %d tasks", st.Submitted)
	}
	if st := busy.Stats(); st.Completed != 100 {
		t.Fatalf("busy leaf completed %d, want 100", st.Completed)
	}
}

// TestForwarderOfForwardersRoutesByCapacity is TestForwarderRoutesByCapacity
// one level up: an interior forwarder answers attach-parent with the sum of
// its leaves' hints, so the root never feeds the subtree that has no
// executors.
func TestForwarderOfForwardersRoutesByCapacity(t *testing.T) {
	var mids []string
	var ds []*dispatch.Dispatcher
	for i := 0; i < 2; i++ {
		d := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		ds = append(ds, d)
		mid, err := forward.New(forward.Options{Dispatchers: []string{d.Addr()}, Bundle: 10, Root: dispatch.Options{Logf: t.Logf}})
		if err != nil {
			t.Fatal(err)
		}
		if err := mid.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mid.Close() })
		mids = append(mids, mid.Addr())
	}
	empty, busy := ds[0], ds[1]
	for i := 0; i < 4; i++ {
		ex, err := executor.Start(executor.Options{
			ID: fmt.Sprintf("deep-exec-%d", i), DispatcherAddr: busy.Addr(), SleepScale: 0.001,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
	}
	root, err := forward.New(forward.Options{Dispatchers: mids, Bundle: 10, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatalf("a forwarder must accept a forwarder as its leaf: %v", err)
	}
	if err := root.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	if st := root.Stats(); st.Depth != 3 {
		t.Fatalf("depth = %d, want 3", st.Depth)
	}

	c, err := client.Connect(client.Options{DispatcherAddr: root.Addr(), BundleSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(100, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st := empty.Stats(); st.Submitted != 0 {
		t.Fatalf("executor-less subtree received %d tasks", st.Submitted)
	}
	if st := busy.Stats(); st.Completed != 100 {
		t.Fatalf("busy subtree completed %d, want 100", st.Completed)
	}
}

// TestForwarderRejectsLeafWithoutCapacityProtocol pins the end of the
// round-robin fallback: every dispatcher in this repo answers attach-parent,
// so a leaf that does not is a misconfiguration New reports, not a peer to
// route blind.
func TestForwarderRejectsLeafWithoutCapacityProtocol(t *testing.T) {
	srv := wsrpc.NewServer(wsrpc.ServerOptions{Logf: t.Logf}) // no attach-parent handler
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	f, err := forward.New(forward.Options{Dispatchers: []string{srv.Addr()}, Root: dispatch.Options{Logf: t.Logf}})
	if err == nil {
		f.Close()
		t.Fatal("New accepted a leaf that refuses attach-parent")
	}
}

// TestForwarderAttachCapacityPushRace pins a startup ordering bug: a leaf
// starts pushing capacity notifies the moment attach-parent lands, and a
// push can outrace the attach reply — the notify handler used to index the
// leaf table before New had populated it, panicking the root's read loop.
// The fake leaf notifies before replying; the client's in-order frame
// dispatch turns that into a deterministic reproduction.
func TestForwarderAttachCapacityPushRace(t *testing.T) {
	srv := wsrpc.NewServer(wsrpc.ServerOptions{Logf: t.Logf})
	srv.Register(fproto.MethodAttachParent, func(p *wsrpc.Peer, _ json.RawMessage) (any, error) {
		if err := p.Notify(fproto.NotifyCapacity, fproto.CapacityHint{Executors: 3, Seq: 9}); err != nil {
			return nil, err
		}
		return fproto.CapacityHint{Executors: 3, Seq: 1}, nil
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	f, err := forward.New(forward.Options{Dispatchers: []string{srv.Addr()}, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatalf("New must survive a capacity push racing the attach reply: %v", err)
	}
	f.Close()
}
