package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

// No Benchmark* functions live here on purpose: the benchmark is the
// program, and `go test -bench=.` must not start it.

func exactQuantile(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	samples := make([]int64, 200_000)
	for i := range samples {
		// Log-uniform from 1 µs to 10 s: every octave the benchmark can see.
		samples[i] = int64(1e3 * math.Pow(1e7, rng.Float64()))
		h.add(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		got, want := h.quantile(q), exactQuantile(samples, q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("quantile(%v) = %.0f, exact %.0f: off by %.2f%%", q, got, want, 100*rel)
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prevHi := 0.0
	for b := 0; b < histBuckets; b++ {
		lo, width := histBounds(b)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %v, previous ended at %v", b, lo, prevHi)
		}
		if got := histBucket(int64(lo)); got != b {
			t.Fatalf("histBucket(%v) = %d, want %d", lo, got, b)
		}
		if got := histBucket(int64(lo + width - 1)); got != b {
			t.Fatalf("histBucket(%v) = %d, want %d", lo+width-1, got, b)
		}
		if b >= histSub && width/lo > 1.0/histSub {
			t.Fatalf("bucket %d is %v wide at %v: more than 1/%d", b, width, lo, histSub)
		}
		prevHi = lo + width
	}
	if got := histBucket(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("the largest value lands in bucket %d, want the last, %d", got, histBuckets-1)
	}
	if got := histBucket(-5); got != 0 {
		t.Fatalf("a negative value lands in bucket %d, want 0", got)
	}
}

func TestHistMergeAndEmpty(t *testing.T) {
	var a, b, all, empty hist
	for i := int64(1); i <= 10_000; i++ {
		v := i * 137
		if i%2 == 0 {
			a.add(v)
		} else {
			b.add(v)
		}
		all.add(v)
	}
	a.merge(&b)
	a.merge(&empty)
	if a != all {
		t.Fatal("merging the halves differs from adding everything to one histogram")
	}
	if got := empty.quantile(0.5); got != 0 {
		t.Fatalf("quantile of an empty histogram = %v, want 0", got)
	}
}

func TestWindowReducers(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of no windows = %v, want 0", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread of no windows = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median(5,1,4) = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := midmean(nil); got != 0 {
		t.Errorf("midmean of no windows = %v, want 0", got)
	}
	if got := midmean([]float64{7}); got != 7 {
		t.Errorf("midmean(7) = %v, want 7", got)
	}
	// Five set-ups: the fastest and the slowest are dropped.
	if got := midmean([]float64{100, 3, 1, 2, 0}); got != 2 {
		t.Errorf("midmean(100,3,1,2,0) = %v, want 2", got)
	}
	// Eight windows, two of them disturbed each way: the middle four count.
	if got := midmean([]float64{1, 1, 10, 12, 14, 16, 99, 99}); got != 13 {
		t.Errorf("midmean = %v, want 13", got)
	}
	if got := lowerHalfMean(nil); got != 0 {
		t.Errorf("lowerHalfMean of no windows = %v, want 0", got)
	}
	// Six windows, the three with the smallest tails count; of five, three.
	if got := lowerHalfMean([]float64{9, 2, 50, 1, 3, 7}); got != 2 {
		t.Errorf("lowerHalfMean(9,2,50,1,3,7) = %v, want 2", got)
	}
	if got := lowerHalfMean([]float64{50, 1, 3, 2, 7}); got != 2 {
		t.Errorf("lowerHalfMean(50,1,3,2,7) = %v, want 2", got)
	}
	if got := spread([]float64{90, 100, 120}); got != 0.3 {
		t.Errorf("spread(90,100,120) = %v, want 0.3", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{3, 1, 2, 6, 5, 4, 9, 8, 7, 10}
	if got := iqrShare(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 13, 20, 21], n=4) == [10.5, 13.0, 20.5]
	if got, want := iqrShare([]float64{21, 10, 13, 11, 20}), 10.0/13; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSpanRingKeepsNewest(t *testing.T) {
	r := newSpanRing()
	const extra = 10
	for i := uint64(0); i < spanRingSize+extra; i++ {
		r.add(span{ID: i})
	}
	next := uint64(extra)
	r.each(func(s span) {
		if s.ID != next {
			t.Fatalf("visited span %d, want %d", s.ID, next)
		}
		next++
	})
	if next != spanRingSize+extra {
		t.Fatalf("visited up to span %d, want %d", next, spanRingSize+extra)
	}
}

// TestSmoke keeps the benchmark compiling and exactly-once: a few thousand
// tasks through each of the four workloads, none lost, duplicated or failed.
func TestSmoke(t *testing.T) {
	var out strings.Builder
	err := smoke(t.TempDir(), &out)
	t.Log("\n" + out.String())
	if err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONNamesWhatTheProgramPrints keeps BENCHMARK.json and the
// program in step: the same workloads, metrics and units.
func TestBenchmarkJSONNamesWhatTheProgramPrints(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%s) in BENCHMARK.json, %q (%s) in the program", i, got.Name, got.Why, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndMetrics, true)
	check("per-layer", spec.PerLayer, perLayerMetrics, false)
}
