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
// forwarder in front.
func startTier(t *testing.T, nDisp, nExec int) (*forward.Forwarder, []*dispatch.Dispatcher) {
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
	f, err := forward.New(forward.Options{Dispatchers: addrs, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, dispatchers
}

func TestForwarderEndToEnd(t *testing.T) {
	f, _ := startTier(t, 2, 2)
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

func TestForwarderSpreadsInstancesAcrossDispatchers(t *testing.T) {
	f, dispatchers := startTier(t, 2, 1)
	clients := make([]*client.Client, 4)
	for i := range clients {
		c, err := client.Connect(client.Options{DispatcherAddr: f.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	var gen task.IDGen
	for _, c := range clients {
		if err := c.Submit(task.Batch(&gen, 5, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		if _, err := c.WaitN(5, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin: each dispatcher should have served some work.
	for i, d := range dispatchers {
		if st := d.Stats(); st.Completed == 0 {
			t.Fatalf("dispatcher %d served nothing", i)
		}
	}
}

func TestForwarderPollMode(t *testing.T) {
	f, _ := startTier(t, 2, 1)
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
	f, _ := startTier(t, 3, 2)
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
	f, _ := startTier(t, 1, 1)
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
	f, dispatchers := startTier(t, 1, 1)
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
	f, dispatchers := startTier(t, 2, 1)
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
	f, dispatchers := startTier(t, 2, 1)
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
