package dispatch_test

import (
	"math"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// TestStageLatencyPartitionsEndToEnd is the acceptance check for the
// Figure-10 breakdown: over a live run, the four per-task stage latencies
// (enqueue→notify, notify→pull, pull→start, start→deliver) must sum to the
// observed end-to-end latency — the clamps in the dispatcher make the
// partition exact, so only float rounding separates the two sums.
func TestStageLatencyPartitionsEndToEnd(t *testing.T) {
	const n = 200
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 20}, 4, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	ms := d.MetricsSnapshot()
	e2e := ms.Histogram(obs.MetricE2ESeconds)
	if e2e.Count != n {
		t.Fatalf("e2e count = %d, want %d", e2e.Count, n)
	}
	var stageSum float64
	for _, stage := range obs.Stages {
		h := ms.Histogram(obs.StageKey(stage))
		if h.Count != n {
			t.Fatalf("stage %s count = %d, want %d", stage, h.Count, n)
		}
		if h.Sum < 0 {
			t.Fatalf("stage %s sum = %v, want >= 0", stage, h.Sum)
		}
		stageSum += h.Sum
	}
	if diff := math.Abs(stageSum - e2e.Sum); diff > 1e-6*math.Max(1, e2e.Sum) {
		t.Fatalf("stage sums = %v s, e2e sum = %v s (diff %v)", stageSum, e2e.Sum, diff)
	}
	// The run stage dominates for 50 ms (scaled to 50 µs) sleeps but every
	// task spent some time end to end.
	if e2e.Sum <= 0 {
		t.Fatalf("e2e sum = %v, want > 0", e2e.Sum)
	}
}

// TestMetricsRPCRoundTrip exercises falkon.metrics over the wire: lifecycle
// counters, per-method wsrpc instruments, and stage histograms must all
// survive the JSON round trip.
func TestMetricsRPCRoundTrip(t *testing.T) {
	const n = 30
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{}, 2, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	ms, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := ms.Counters["falkon_tasks_completed_total"]; got != n {
		t.Fatalf("falkon_tasks_completed_total = %d, want %d", got, n)
	}
	if got := ms.Counters["falkon_tasks_submitted_total"]; got != n {
		t.Fatalf("falkon_tasks_submitted_total = %d, want %d", got, n)
	}
	if got := ms.Counters[obs.Labeled("wsrpc_calls_total", "method", "falkon.submit")]; got < 1 {
		t.Fatalf("wsrpc submit calls = %d, want >= 1", got)
	}
	if got := ms.Histograms[obs.Labeled("wsrpc_call_seconds", "method", "falkon.deliver")]; got.Count < 1 {
		t.Fatalf("wsrpc deliver latency count = %d, want >= 1", got.Count)
	}
	h := ms.Histogram(obs.MetricE2ESeconds)
	if h.Count != n {
		t.Fatalf("e2e count over RPC = %d, want %d", h.Count, n)
	}
	if q := h.Quantile(0.99); q < h.Min || q > h.Max {
		t.Fatalf("p99 %v outside [%v, %v] after round trip", q, h.Min, h.Max)
	}
	// The wire snapshot must agree with the in-process one.
	local := d.MetricsSnapshot()
	if local.Counters["falkon_tasks_completed_total"] != ms.Counters["falkon_tasks_completed_total"] {
		t.Fatal("wire and local snapshots disagree on completed count")
	}
}

// TestEventsRPCRoundTrip exercises falkon.events: every task's lifecycle
// must appear in order, and NextSeq-based pagination must tail cleanly.
func TestEventsRPCRoundTrip(t *testing.T) {
	const n = 10
	_, c, _ := startSystem(t, dispatch.Options{}, client.Options{}, 1, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	er, err := c.Events(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(er.Events) == 0 || er.NextSeq == 0 {
		t.Fatalf("events = %d, next = %d", len(er.Events), er.NextSeq)
	}
	// Per-task lifecycle: enqueued before everything else, all kinds decoded.
	// "Before" is by timestamp: the ring is in recording order, and handlers
	// record after releasing the scheduler lock, so the Deliver that piggy-backs a
	// task out may record its pickup ahead of the Submit that enqueued it.
	first := make(map[task.ID]obs.Event)
	delivered := 0
	for _, ev := range er.Events {
		if ev.Kind == 0 {
			t.Fatalf("event kind lost in transit: %+v", ev)
		}
		if ev.Task == 0 {
			continue // executor-level notify events
		}
		if f, seen := first[ev.Task]; !seen || ev.At < f.At || (ev.At == f.At && ev.Kind == obs.EvEnqueued) {
			first[ev.Task] = ev
		}
		if ev.Kind == obs.EvDelivered {
			delivered++
		}
	}
	if delivered != n {
		t.Fatalf("delivered events = %d, want %d", delivered, n)
	}
	for id, ev := range first {
		if ev.Kind != obs.EvEnqueued {
			t.Fatalf("task %v earliest event = %v, want enqueued", id, ev.Kind)
		}
	}
	// Tailing from NextSeq with no new work returns nothing new.
	tail, err := c.Events(er.NextSeq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Events) != 0 {
		t.Fatalf("tail returned %d events, want 0", len(tail.Events))
	}
}

// An executor stamps on its monotonic clock against a base read at register;
// the dispatcher on its own against its epoch. Placed on one timeline, an
// in-process executor's start and finish of every task fall between the
// dispatcher's stamps of handing it out and taking its result back.
func TestExecutorStampsFallInsideTheDispatchersSpan(t *testing.T) {
	const n = 600
	d, c, execs := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 50}, 2, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	type span struct{ dispatched, delivered, started, finished time.Duration }
	spans := make(map[task.ID]*span, n)
	at := func(id task.ID) *span {
		if spans[id] == nil {
			spans[id] = &span{dispatched: -1, delivered: -1, started: -1, finished: -1}
		}
		return spans[id]
	}
	evs, _ := d.Tracer().Since(0, 0)
	for _, ev := range evs {
		switch ev.Kind {
		case obs.EvPulled, obs.EvAcked, obs.EvPushed:
			at(ev.Task).dispatched = ev.At
		case obs.EvDelivered:
			at(ev.Task).delivered = ev.At
		}
	}
	// An executor records a batch's events once its Deliver has returned,
	// which the client's last result can beat.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		seen := 0
		for _, ex := range execs {
			evs, _ := ex.Tracer().Since(0, 0)
			for _, ev := range evs {
				switch ev.Kind {
				case obs.EvStarted:
					at(ev.Task).started = ev.At
				case obs.EvFinished:
					at(ev.Task).finished = ev.At
					seen++
				}
			}
		}
		if seen == n || time.Now().After(deadline) {
			break
		}
	}
	if len(spans) != n {
		t.Fatalf("events name %d tasks, want %d", len(spans), n)
	}
	for id, s := range spans {
		if s.dispatched < 0 || s.started < s.dispatched || s.finished < s.started || s.delivered < s.finished {
			t.Fatalf("task %v: dispatched %v, started %v, finished %v, delivered %v: want them in that order (-1s is none)",
				id, s.dispatched, s.started, s.finished, s.delivered)
		}
	}
}

// TestExecutorTracerRecordsLifecycle checks the executor-side trace ring:
// pulled/started/finished/delivered events on the dispatcher timeline.
func TestExecutorTracerRecordsLifecycle(t *testing.T) {
	_, c, execs := startSystem(t, dispatch.Options{}, client.Options{}, 1, executor.Options{})
	if err := c.Submit([]task.Task{{ID: 7, Engine: task.EngineSleep}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The executor stamps delivered after its Deliver RPC returns, which
	// races with the client receiving the result; poll briefly.
	want := []obs.EventKind{obs.EvPulled, obs.EvStarted, obs.EvFinished, obs.EvDelivered}
	kinds := make(map[obs.EventKind]bool)
	deadline := time.Now().Add(5 * time.Second)
	for len(kinds) < len(want) {
		events, _ := execs[0].Tracer().Since(0, 0)
		clear(kinds)
		for _, ev := range events {
			if ev.Task == 7 {
				kinds[ev.Kind] = true
			}
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, k := range want {
		if !kinds[k] {
			t.Fatalf("executor trace missing %v (have %v)", k, kinds)
		}
	}
	reg := execs[0].Metrics().Snapshot()
	if got := reg.Counters["falkon_executor_tasks_total"]; got != 1 {
		t.Fatalf("falkon_executor_tasks_total = %d, want 1", got)
	}
	if h := reg.Histograms["falkon_executor_run_seconds"]; h.Count != 1 {
		t.Fatalf("run histogram count = %d, want 1", h.Count)
	}
}
