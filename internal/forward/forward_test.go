package forward_test

import (
	"fmt"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// startTier brings up nDisp dispatchers each with nExec executors, plus a
// forwarder in front with root→leaf bundles of bundle tasks (0: the default).
func startTier(t *testing.T, nDisp, nExec, bundle int) (*forward.Forwarder, []*dispatch.Dispatcher) {
	t.Helper()
	var addrs []string
	var dispatchers []*dispatch.Dispatcher
	for i := 0; i < nDisp; i++ {
		d := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		for j := 0; j < nExec; j++ {
			ex, err := executor.Start(executor.Options{
				ID:             fmt.Sprintf("d%d-e%d", i, j),
				DispatcherAddr: d.Addr(),
				SleepScale:     0.001,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ex.Stop)
		}
		addrs = append(addrs, d.Addr())
		dispatchers = append(dispatchers, d)
	}
	f, err := forward.New(forward.Options{Dispatchers: addrs, Bundle: bundle, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, dispatchers
}

// parked is an executor inside a leaf's process that never pulls: the leaf
// counts its slot, and what the leaf is stocked with stays queued there.
type parked struct{}

func (parked) Notify(string, any) error { return nil }

func TestForwarderEndToEnd(t *testing.T) {
	f, _ := startTier(t, 2, 2, 0)
	// The ordinary client library talks to the forwarder unchanged.
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 100, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(100, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 100 {
		t.Fatalf("results = %d", len(rs))
	}
	for _, r := range rs {
		if r.Failed() {
			t.Fatalf("failed: %+v", r)
		}
	}
}

// A link holds no more than is due to its leaf — a bundle per worker slot —
// and what a submit brings past that waits at the root for the next leaf with
// room. Leaf 0 has one slot that never runs anything, so it is never due more
// than one bundle: of four clients' submits, each larger than that bundle, the
// rest must go to leaf 1; and once leaf 0 has an executor that pulls, every
// client gets each of its tasks once.
func TestForwarderSpreadsInstancesAcrossDispatchers(t *testing.T) {
	const bundle, clients, each = 4, 4, 5
	f, dispatchers := startTier(t, 2, 0, bundle)
	dispatchers[0].Register(fproto.RegisterRequest{ExecutorID: "parked", Slots: 1}, parked{})
	startExec(t, executor.Options{ID: "d1-e0", DispatcherAddr: dispatchers[1].Addr()})
	if !within(5*time.Second, func() bool { return f.Dispatcher.Stats().TotalExecutors == 2 }) {
		t.Fatal("the root never registered a link to each leaf")
	}

	cs := make([]*client.Client, clients)
	owed := make([]map[task.ID]bool, clients)
	var gen task.IDGen
	for i := range cs {
		c, err := client.Connect(client.Options{DispatcherAddr: f.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ts := task.Batch(&gen, each, 0)
		owed[i] = make(map[task.ID]bool, each)
		for _, tk := range ts {
			owed[i][tk.ID] = true
		}
		if err := c.Submit(ts); err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}

	var rows []fproto.LeafStats
	if !within(10*time.Second, func() bool {
		rows = f.Stats().Leaves
		return rows[0].Tasks+rows[1].Tasks == clients*each
	}) {
		t.Fatalf("the leaves were stocked with %+v, want %d tasks in all", rows, clients*each)
	}
	if rows[0].Tasks > bundle {
		t.Fatalf("leaf 0 was stocked with %d tasks it cannot run, more than the bundle of %d due to its slot", rows[0].Tasks, bundle)
	}
	t.Logf("stocked: leaf 0 %d tasks, leaf 1 %d", rows[0].Tasks, rows[1].Tasks)

	startExec(t, executor.Options{ID: "d0-e0", DispatcherAddr: dispatchers[0].Addr()})
	for i, c := range cs {
		rs, err := c.WaitN(each, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.Failed() || !owed[i][r.ID] {
				t.Fatalf("client %d: result %+v failed, is another client's, or came twice", i, r)
			}
			delete(owed[i], r.ID)
		}
	}
}

func TestForwarderPollMode(t *testing.T) {
	f, _ := startTier(t, 2, 1, 0)
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), Poll: true, PollInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(20, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestForwarderAggregatedStats(t *testing.T) {
	f, _ := startTier(t, 3, 2, 0)
	cli, err := wsrpc.Dial(f.Addr(), wsrpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var st fproto.StatsReply
	if err := cli.Call(fproto.MethodStats, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.TotalExecutors != 6 {
		t.Fatalf("aggregated executors = %d, want 6", st.TotalExecutors)
	}
}

func TestForwarderUnknownInstance(t *testing.T) {
	f, _ := startTier(t, 1, 1, 0)
	cli, err := wsrpc.Dial(f.Addr(), wsrpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	err = cli.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: "fwd-999", Tasks: []task.Task{{ID: 1}}}, nil)
	if err == nil {
		t.Fatal("unknown instance accepted")
	}
}

func TestForwarderRequiresDispatchers(t *testing.T) {
	if _, err := forward.New(forward.Options{}); err == nil {
		t.Fatal("empty dispatcher list accepted")
	}
}

func TestForwarderDestroyInstance(t *testing.T) {
	f, dispatchers := startTier(t, 1, 1, 0)
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 3, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(3, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Close destroys through the forwarder, which destroys downstream
	// before it replies: nothing to wait for.
	c.Close()
	if st := dispatchers[0].Stats(); st.Instances != 0 {
		t.Fatalf("downstream instance not destroyed: %+v", st)
	}
}

func TestForwarderSecureBothTiers(t *testing.T) {
	psk := []byte("three-tier-key")
	sec := wsrpc.SecuritySecureConversation
	d := dispatch.New(dispatch.Options{Security: sec, PSK: psk, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ex, err := executor.Start(executor.Options{
		ID: "sec-exec", DispatcherAddr: d.Addr(), Security: sec, PSK: psk, SleepScale: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	f, err := forward.New(forward.Options{Dispatchers: []string{d.Addr()}, Root: dispatch.Options{Security: sec, PSK: psk, Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), Security: sec, PSK: psk, BundleSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 25, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(25, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestForwarderMergeSurvivesDownstreamDisconnect: a dispatcher dying
// between snapshots must not fail the forwarder's merged metrics or event
// window — the dead downstream drops out of the sample and the live side's
// data (counters, histograms, traced span events) still comes through.
func TestForwarderMergeSurvivesDownstreamDisconnect(t *testing.T) {
	f, dispatchers := startTier(t, 2, 1, 0)
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c2, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Baseline: both downstreams contribute.
	if ms, err := c2.Metrics(); err != nil {
		t.Fatal(err)
	} else if got := ms.Counters["falkon_tasks_completed_total"]; got != 20 {
		t.Fatalf("merged completed before disconnect = %d, want 20", got)
	}

	// The disconnect lands between one snapshot and the next — exactly the
	// mid-run failure an operator's dashboard poll would hit.
	survivorCompleted := dispatchers[1].MetricsSnapshot().Counters["falkon_tasks_completed_total"]
	dispatchers[0].Close()

	ms, err := c2.Metrics()
	if err != nil {
		t.Fatalf("merged metrics after downstream disconnect: %v", err)
	}
	if got := ms.Counters["falkon_tasks_completed_total"]; got != survivorCompleted {
		t.Fatalf("merged completed after disconnect = %d, want survivor's %d", got, survivorCompleted)
	}
	if h := ms.Histogram(obs.MetricE2ESeconds); h.Count != survivorCompleted {
		t.Fatalf("merged e2e count after disconnect = %d, want %d", h.Count, survivorCompleted)
	}

	// The span window likewise degrades to the live side: still time-ordered,
	// still carrying submit-time trace IDs for the merge tooling.
	er, err := c2.Events(0, 0)
	if err != nil {
		t.Fatalf("merged events after downstream disconnect: %v", err)
	}
	delivered, traced := 0, 0
	for i, ev := range er.Events {
		if i > 0 && ev.At < er.Events[i-1].At {
			t.Fatalf("events out of order at %d after disconnect", i)
		}
		if ev.Kind == obs.EvDelivered {
			delivered++
			if ev.Trace != 0 {
				traced++
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered events from the surviving dispatcher")
	}
	if traced != delivered {
		t.Fatalf("only %d/%d delivered events carry trace IDs", traced, delivered)
	}
}

func TestForwarderMergesMetricsAndEvents(t *testing.T) {
	f, dispatchers := startTier(t, 2, 1, 0)
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A second instance lands on the second dispatcher (round-robin), so
	// both backends carry work.
	c2, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), BundleSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Submit(task.Batch(&gen, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(20, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.WaitN(20, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	ms, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// The merged snapshot must equal the sum over both dispatchers.
	var want int64
	for _, d := range dispatchers {
		want += d.MetricsSnapshot().Counters["falkon_tasks_completed_total"]
	}
	if want != 40 {
		t.Fatalf("dispatchers completed %d, want 40", want)
	}
	if got := ms.Counters["falkon_tasks_completed_total"]; got != want {
		t.Fatalf("merged completed = %d, want %d", got, want)
	}
	if h := ms.Histogram(obs.MetricE2ESeconds); h.Count != 40 {
		t.Fatalf("merged e2e count = %d, want 40", h.Count)
	}
	// Both sides' work interleaves into one time-ordered event stream, with
	// pagination unavailable (NextSeq 0).
	er, err := c.Events(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if er.NextSeq != 0 {
		t.Fatalf("NextSeq through forwarder = %d, want 0", er.NextSeq)
	}
	delivered := 0
	for i, ev := range er.Events {
		if i > 0 && ev.At < er.Events[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
		if ev.Kind == obs.EvDelivered {
			delivered++
		}
	}
	if delivered != 40 {
		t.Fatalf("merged delivered events = %d, want 40", delivered)
	}
}
