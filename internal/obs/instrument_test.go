package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("counter = %d, want 16000", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 ms observed in seconds.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		got := s.Quantile(q)
		want := q // uniform on (0, 1]
		// One log-bucket of error: bounds grow by 2^(1/4) ≈ 19%.
		if got < want/1.25 || got > want*1.25 {
			t.Fatalf("q%.2f = %v, want within 25%% of %v", q, got, want)
		}
	}
	if got := s.Quantile(0); got != 0.001 {
		t.Fatalf("q0 = %v, want exact min", got)
	}
	if got := s.Quantile(1); got != 1.0 {
		t.Fatalf("q1 = %v, want exact max", got)
	}
	if mean := s.Mean(); math.Abs(mean-0.5005) > 1e-9 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramBoundedMemoryAndExtremes(t *testing.T) {
	var h Histogram
	h.Observe(0)    // below first bound
	h.Observe(-3)   // clamps to zero
	h.Observe(1e12) // beyond last bound
	s := h.Snapshot()
	if s.Count != 3 || s.Min != 0 || s.Max != 1e12 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Buckets) > fixedBuckets {
		t.Fatalf("bucket slice grew beyond layout: %d", len(s.Buckets))
	}
	if got := s.Quantile(0.99); got > 1e12 {
		t.Fatalf("quantile above max: %v", got)
	}
}

func TestHistSnapshotMergeMatchesCombinedObservations(t *testing.T) {
	var a, b, both Histogram
	for i := 0; i < 500; i++ {
		v := float64(i%37+1) / 100
		a.Observe(v)
		both.Observe(v)
	}
	for i := 0; i < 300; i++ {
		v := float64(i%11+1) / 10
		b.Observe(v)
		both.Observe(v)
	}
	m := a.Snapshot()
	m.Merge(b.Snapshot())
	w := both.Snapshot()
	if m.Count != w.Count || math.Abs(m.Sum-w.Sum) > 1e-9 || m.Min != w.Min || m.Max != w.Max {
		t.Fatalf("merged %+v != combined %+v", m, w)
	}
	for _, q := range []float64{0.25, 0.5, 0.9} {
		if got, want := m.Quantile(q), w.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Fatalf("q%.2f merged %v != combined %v", q, got, want)
		}
	}
}

func TestHistSnapshotJSONRoundTrip(t *testing.T) {
	var h Histogram
	h.Observe(0.5)
	h.Observe(2.5)
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back HistSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != 2 || back.Quantile(1) != 2.5 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d", g.Value())
	}
	if n := h.Snapshot().Count; n != 8000 {
		t.Fatalf("hist count = %d", n)
	}
}
