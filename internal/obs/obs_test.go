package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"falkon/internal/task"
)

func TestTracerRingAndPagination(t *testing.T) {
	tr := NewTracer(8)
	for i := 1; i <= 20; i++ {
		tr.Record(time.Duration(i)*time.Millisecond, EvEnqueued, 0, task.ID(i), "epr", "")
	}
	// Ring holds the last 8 (seqs 13..20).
	events, next := tr.Since(0, 0)
	if next != 20 || len(events) != 8 {
		t.Fatalf("got %d events next=%d", len(events), next)
	}
	if events[0].Seq != 13 || events[7].Seq != 20 {
		t.Fatalf("ring window = [%d, %d]", events[0].Seq, events[7].Seq)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	// Pagination: pick up from the middle, bounded by max.
	events, next = tr.Since(15, 3)
	if len(events) != 3 || events[0].Seq != 16 || next != 20 {
		t.Fatalf("paged = %+v next=%d", events, next)
	}
	// Caught up: nothing new.
	events, _ = tr.Since(20, 0)
	if len(events) != 0 {
		t.Fatalf("expected no new events, got %d", len(events))
	}
}

// One RecordAll that crosses the ring's end, and one larger than the ring:
// Since hands back contiguous Seqs and, at each, the event recorded there.
func TestTracerRecordAllAcrossTheWrap(t *testing.T) {
	batch := func(first, n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Seq: 999, Kind: EvEnqueued, Task: task.ID(first + i)}
		}
		return evs
	}
	tr := NewTracer(8)
	tr.RecordAll(batch(1, 5))
	tr.RecordAll(batch(6, 6)) // seqs 6..11: three at the end of the ring, three at its start
	check := func(since uint64, wantFirst, wantLast int) {
		t.Helper()
		evs, next := tr.Since(since, 0)
		if next != uint64(wantLast) || len(evs) != wantLast-wantFirst+1 {
			t.Fatalf("Since(%d): %d events, next %d; want %d..%d", since, len(evs), next, wantFirst, wantLast)
		}
		for i, ev := range evs {
			if want := wantFirst + i; ev.Seq != uint64(want) || ev.Task != task.ID(want) {
				t.Fatalf("Since(%d)[%d] = seq %d task %d, want %d", since, i, ev.Seq, ev.Task, want)
			}
		}
	}
	check(0, 4, 11)
	check(7, 8, 11)
	tr.RecordAll(batch(12, 19)) // seqs 12..30: only 23..30 survive
	check(0, 23, 30)
	check(25, 26, 30)
	check(30, 31, 30)
}

// BenchmarkTracerRecordAll is what recording costs per call of 16 events, a
// typical batch (per event: divide by 16).
func BenchmarkTracerRecordAll(b *testing.B) {
	tr := NewTracer(0)
	evs := make([]Event, 16)
	for i := range evs {
		evs[i] = Event{At: time.Duration(i), Kind: EvStarted, Trace: uint64(i), Task: task.ID(i), EPR: "epr-1", Executor: "ex-1"}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordAll(evs)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(0, EvEnqueued, 0, 1, "", "")
	if ev, next := tr.Since(0, 0); ev != nil || next != 0 {
		t.Fatal("nil tracer must discard")
	}
}

func TestEventKindJSONRoundTrip(t *testing.T) {
	for k := EvEnqueued; k <= EvFailed; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back EventKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Fatalf("%v round-tripped to %v", k, back)
		}
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a_total")
	c2 := r.Counter("a_total")
	if c1 != c2 {
		t.Fatal("same name must return same counter")
	}
	c1.Inc()
	if r.Snapshot().Counters["a_total"] != 1 {
		t.Fatal("snapshot missed counter")
	}
	if r.Gauge("g") == r.Gauge("h") {
		t.Fatal("distinct names must be distinct gauges")
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(3)
	r.Histogram("z").Observe(1)
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil registry must snapshot empty")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(2)
	b.Counter("c").Add(3)
	b.Counter("only_b").Inc()
	a.Gauge("g").Set(5)
	b.Gauge("g").Set(7)
	a.Histogram("h").Observe(0.1)
	b.Histogram("h").Observe(0.3)
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["c"] != 5 || s.Counters["only_b"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 12 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if h := s.Histogram("h"); h.Count != 2 || h.Max != 0.3 {
		t.Fatalf("hist = %+v", h)
	}
}

func TestLabeledAndProm(t *testing.T) {
	key := Labeled("wsrpc_calls_total", "method", "falkon.submit")
	if key != `wsrpc_calls_total{method="falkon.submit"}` {
		t.Fatalf("key = %s", key)
	}
	r := NewRegistry()
	r.Counter(key).Add(4)
	r.Gauge("falkon_queue_depth").Set(9)
	r.Histogram(StageKey(StagePullStart)).Observe(0.002)
	var b strings.Builder
	if err := r.Snapshot().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`wsrpc_calls_total{method="falkon.submit"} 4`,
		"falkon_queue_depth 9",
		`falkon_stage_seconds{stage="pull_start",quantile="0.5"}`,
		`falkon_stage_seconds_sum{stage="pull_start"}`,
		`falkon_stage_seconds_count{stage="pull_start"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_total").Inc()
	tr := NewTracer(16)
	tr.Record(time.Millisecond, EvEnqueued, 0, 7, "epr-1", "")
	d, err := ServeDebug("127.0.0.1:0", r, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	out := get("/metrics")
	if !strings.Contains(out, "demo_total 1") {
		t.Fatalf("/metrics = %q", out)
	}
	// The process's own heap and goroutines, read at the scrape: a heap of at
	// least the registry and tracer, and this goroutine and the server's.
	for name, least := range map[string]int64{"falkon_process_heap_bytes": 1 << 10, "falkon_process_goroutines": 2} {
		m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("/metrics has no %s:\n%s", name, out)
		}
		if v, _ := strconv.ParseInt(m[1], 10, 64); v < least {
			t.Fatalf("%s %d, want at least %d", name, v, least)
		}
	}
	if out := get("/events.json"); !strings.Contains(out, `"kind":"enqueued"`) {
		t.Fatalf("/events.json = %q", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatal("pprof cmdline empty")
	}
}
