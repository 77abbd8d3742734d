package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesRecordAndStats(t *testing.T) {
	s := NewSeries("x")
	for i := 1; i <= 4; i++ {
		s.Record(time.Duration(i)*time.Second, float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.Max(); got != 4 {
		t.Fatalf("max = %v, want 4", got)
	}
	if last := s.At(s.Len() - 1); last.Value != 4 {
		t.Fatalf("last = %+v", last)
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Record(2*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Record did not panic")
		}
	}()
	s.Record(1*time.Second, 2)
}

func TestMovingAverageWindow(t *testing.T) {
	s := NewSeries("raw")
	vals := []float64{0, 10, 20, 30, 40}
	for i, v := range vals {
		s.Record(time.Duration(i)*time.Second, v)
	}
	ma := s.MovingAverage(3)
	want := []float64{0, 5, 10, 20, 30}
	for i := range want {
		if got := ma.At(i).Value; math.Abs(got-want[i]) > 1e-9 {
			t.Fatalf("ma[%d] = %v, want %v", i, got, want[i])
		}
	}
}

func TestMovingAverageMatchesMeanForFullWindow(t *testing.T) {
	s := NewSeries("raw")
	for i := 0; i < 100; i++ {
		s.Record(time.Duration(i)*time.Second, float64(i%7))
	}
	ma := s.MovingAverage(100)
	// 14 whole cycles of 0..6 (sum 21 each) plus 0 and 1: 295 over 100.
	last := ma.At(ma.Len() - 1)
	if math.Abs(last.Value-2.95) > 1e-9 {
		t.Fatalf("full-window MA %v != mean 2.95", last.Value)
	}
}

func TestDownsample(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i < 1000; i++ {
		s.Record(time.Duration(i)*time.Second, float64(i))
	}
	ds := s.Downsample(11)
	if len(ds) != 11 {
		t.Fatalf("len = %d, want 11", len(ds))
	}
	if ds[0].Value != 0 || ds[10].Value != 999 {
		t.Fatalf("endpoints = %v, %v", ds[0].Value, ds[10].Value)
	}
	// Short series pass through untouched.
	if got := s.Downsample(2000); len(got) != 1000 {
		t.Fatalf("oversized downsample len = %d", len(got))
	}
}

func TestRateSamplerEmitsPerIntervalRates(t *testing.T) {
	r := NewRateSampler("tput", time.Second)
	// 5 events in second one, 0 in second two, 2 in second three.
	for i := 0; i < 5; i++ {
		r.Observe(500*time.Millisecond, 1)
	}
	r.Observe(2500*time.Millisecond, 2)
	s := r.Finish(3 * time.Second)
	if s.Len() < 3 {
		t.Fatalf("len = %d, want >= 3", s.Len())
	}
	if got := s.At(0).Value; got != 5 {
		t.Fatalf("interval 1 rate = %v, want 5", got)
	}
	if got := s.At(1).Value; got != 0 {
		t.Fatalf("interval 2 rate = %v, want 0", got)
	}
	if got := s.At(2).Value; got != 2 {
		t.Fatalf("interval 3 rate = %v, want 2", got)
	}
}

func TestRateSamplerTotalEventsConserved(t *testing.T) {
	prop := func(counts []uint8) bool {
		r := NewRateSampler("x", time.Second)
		var total int64
		at := time.Duration(0)
		for _, c := range counts {
			at += 100 * time.Millisecond
			r.Observe(at, int64(c))
			total += int64(c)
		}
		s := r.Finish(at)
		var sum float64
		for _, smp := range s.Samples() {
			sum += smp.Value // interval = 1 s, so rate == count
		}
		return math.Abs(sum-float64(total)) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateSamplerZeroGapEmitsZeroSamples(t *testing.T) {
	r := NewRateSampler("x", time.Second)
	r.Observe(500*time.Millisecond, 3)
	// Nothing for 4 seconds, then one event.
	r.Observe(4500*time.Millisecond, 1)
	s := r.Finish(5 * time.Second)
	if s.Len() < 5 {
		t.Fatalf("len = %d, want >= 5", s.Len())
	}
	for i := 1; i <= 3; i++ {
		if got := s.At(i).Value; got != 0 {
			t.Fatalf("gap interval %d rate = %v, want 0", i, got)
		}
	}
}

func TestRateSamplerFinishFlushesPartialInterval(t *testing.T) {
	r := NewRateSampler("x", time.Second)
	r.Observe(300*time.Millisecond, 7)
	// Finish mid-interval: the pending 7 events must still appear.
	s := r.Finish(400 * time.Millisecond)
	var sum float64
	for _, smp := range s.Samples() {
		sum += smp.Value
	}
	if sum != 7 {
		t.Fatalf("flushed events = %v, want 7", sum)
	}
}

func TestRateSamplerNonMonotonicPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time going backwards")
		}
	}()
	r := NewRateSampler("x", time.Second)
	r.Observe(2*time.Second, 1)
	r.Observe(1*time.Second, 1)
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := h.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if h.Max() != 100 {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []float64{-5, 0, 1, 5, 9, 10, 15} {
		h.Observe(v)
	}
	b := h.Buckets(0, 10, 2)
	// -5, 0, 1 clamp/fall into bucket 0 plus 5 → bucket 1? 5 is in [5,10).
	if b[0] != 3 || b[1] != 4 {
		t.Fatalf("buckets = %v, want [3 4]", b)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	prop := func(vals []float64, q1, q2 float64) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			h.Observe(v)
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return h.Quantile(a) <= h.Quantile(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestASCIIPlotShape(t *testing.T) {
	s := NewSeries("ramp")
	for i := 0; i <= 100; i++ {
		s.Record(time.Duration(i)*time.Second, float64(i))
	}
	out := ASCIIPlot(s, 40, 8)
	if !strings.Contains(out, "ramp") {
		t.Fatalf("missing name: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// name + 8 grid rows + axis + time label.
	if len(lines) != 11 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Monotone ramp: stars march rightward down the grid; top row's star is
	// right of the bottom row's.
	top := strings.IndexByte(lines[1], '*')
	bottom := strings.IndexByte(lines[8], '*')
	if top <= bottom {
		t.Fatalf("ramp not increasing: top star at %d, bottom at %d", top, bottom)
	}
}

func TestASCIIPlotEmptyAndFlat(t *testing.T) {
	if out := ASCIIPlot(NewSeries("empty"), 20, 5); !strings.Contains(out, "(empty)") {
		t.Fatalf("empty plot = %q", out)
	}
	flat := NewSeries("flat")
	flat.Record(0, 5)
	flat.Record(time.Second, 5)
	out := ASCIIPlot(flat, 20, 5)
	if !strings.Contains(out, "*") {
		t.Fatalf("flat plot lost points: %q", out)
	}
}

func TestASCIIPlotMinimumDimensions(t *testing.T) {
	s := NewSeries("x")
	s.Record(0, 1)
	out := ASCIIPlot(s, 1, 1) // clamped up internally
	if out == "" {
		t.Fatal("empty output")
	}
}
