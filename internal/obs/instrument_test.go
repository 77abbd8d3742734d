package obs

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"slices"
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

// logIndex is the bucket index as the logarithm defines it, which fixedIndex
// reads from a float's bits instead.
func logIndex(v float64) int {
	if v < fixedLo {
		return 0
	}
	return min(1+int(math.Floor(math.Log(v/fixedLo)/fixedLnG)), fixedBuckets-1)
}

// fixedIndex puts a million seeded values, log-uniform over the layout's span
// and past both ends, in the bucket the logarithm does; on each bucket bound
// and two ulps either side of it the two may differ by one bucket, the
// rounding of a logarithm taken that close to its own bucket's edge.
func TestFixedIndexMatchesLogarithm(t *testing.T) {
	r := rand.New(rand.NewPCG(38, 1))
	for n := 0; n < 1_000_000; n++ {
		v := fixedLo * math.Exp2(r.Float64()*40-2)
		if got, want := fixedIndex(v), logIndex(v); got != want {
			t.Fatalf("value %v (bits %#x): bucket %d, the logarithm says %d", v, math.Float64bits(v), got, want)
		}
	}
	for i := 0; i < fixedBuckets+4; i++ {
		b := fixedBound(i)
		for _, v := range []float64{b, math.Nextafter(b, 0), math.Nextafter(math.Nextafter(b, 0), 0),
			math.Nextafter(b, math.Inf(1)), math.Nextafter(math.Nextafter(b, math.Inf(1)), math.Inf(1))} {
			if got, want := fixedIndex(v), logIndex(v); got < want-1 || got > want+1 {
				t.Fatalf("bound %d, value %v: bucket %d, the logarithm says %d", i, v, got, want)
			}
		}
	}
	// The ends; the logarithm's index overflows on the last two.
	last := fixedBuckets - 1
	for v, want := range map[float64]int{0: 0, fixedLo / 2: 0, fixedLo: 1, 1e12: last, math.MaxFloat64: last, math.Inf(1): last} {
		if got := fixedIndex(v); got != want {
			t.Fatalf("value %v: bucket %d, want %d", v, got, want)
		}
	}
}

// ObserveAll over a batch leaves the snapshot Observe over each value does:
// count, min, max, buckets, and the sum to the bit.
func TestObserveAllMatchesObserve(t *testing.T) {
	r := rand.New(rand.NewPCG(38, 2))
	vs := make([]float64, 10_000)
	for i := range vs {
		vs[i] = fixedLo * math.Exp2(r.Float64()*30-4)
	}
	vs[17], vs[18] = -1, 0
	var one, all Histogram
	for _, v := range vs {
		one.Observe(v)
	}
	for i := 0; i < len(vs); i += 16 {
		all.ObserveAll(vs[i:min(i+16, len(vs))])
	}
	all.ObserveAll(nil)
	a, b := one.Snapshot(), all.Snapshot()
	if a.Count != b.Count || a.Min != b.Min || a.Max != b.Max || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || !slices.Equal(a.Buckets, b.Buckets) {
		t.Fatalf("ObserveAll %+v\n    Observe %+v", b, a)
	}
}

// BenchmarkHistogramObserve is what one observation costs, alone and in a
// batch of 16 (per observation: divide the batch's ns/op by 16).
func BenchmarkHistogramObserve(b *testing.B) {
	vs := make([]float64, 16)
	for i := range vs {
		vs[i] = float64(i+1) * 37e-6
	}
	b.Run("one", func(b *testing.B) {
		var h Histogram
		for i := 0; i < b.N; i++ {
			h.Observe(vs[i&15])
		}
	})
	b.Run("batch16", func(b *testing.B) {
		var h Histogram
		for i := 0; i < b.N; i++ {
			h.ObserveAll(vs)
		}
	})
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
