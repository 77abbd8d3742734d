package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Sample is one (time, value) observation.
type Sample struct {
	At    time.Duration
	Value float64
}

// Series is an append-only ordered sequence of samples. It is not
// concurrency safe; the engine is single-threaded.
type Series struct {
	Name    string
	samples []Sample
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends an observation. Observations must be appended in
// non-decreasing time order.
func (s *Series) Record(at time.Duration, v float64) {
	if n := len(s.samples); n > 0 && at < s.samples[n-1].At {
		panic(fmt.Sprintf("sim: series %q sample at %v before last %v", s.Name, at, s.samples[n-1].At))
	}
	s.samples = append(s.samples, Sample{At: at, Value: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// At returns the i'th sample.
func (s *Series) At(i int) Sample { return s.samples[i] }

// Samples returns the underlying samples; callers must not mutate it.
func (s *Series) Samples() []Sample { return s.samples }

// Max returns the largest value in the series (0 for an empty series).
func (s *Series) Max() float64 {
	max := 0.0
	for i, smp := range s.samples {
		if i == 0 || smp.Value > max {
			max = smp.Value
		}
	}
	return max
}

// MovingAverage returns a new series whose value at each point is the mean
// of the trailing window samples (fewer at the start). This is exactly the
// paper's Figure 8 smoothing: a 60-sample moving average over 1 s samples.
func (s *Series) MovingAverage(window int) *Series {
	if window <= 0 {
		panic("sim: MovingAverage window must be positive")
	}
	out := NewSeries(s.Name + fmt.Sprintf("/ma%d", window))
	sum := 0.0
	for i, smp := range s.samples {
		sum += smp.Value
		if i >= window {
			sum -= s.samples[i-window].Value
		}
		n := i + 1
		if n > window {
			n = window
		}
		out.Record(smp.At, sum/float64(n))
	}
	return out
}

// Downsample returns at most n evenly spaced samples, always including the
// first and last; used to print compact figure series.
func (s *Series) Downsample(n int) []Sample {
	if n <= 0 || len(s.samples) <= n {
		return s.samples
	}
	out := make([]Sample, 0, n)
	step := float64(len(s.samples)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, s.samples[int(math.Round(float64(i)*step))])
	}
	return out
}

// RateSampler turns discrete events into a fixed-interval rate series
// (events per second sampled once per interval), mirroring the paper's
// once-per-second raw throughput samples.
type RateSampler struct {
	series   *Series
	interval time.Duration
	nextAt   time.Duration
	pending  int64
	lastAt   time.Duration
}

// NewRateSampler creates a sampler emitting one sample per interval.
func NewRateSampler(name string, interval time.Duration) *RateSampler {
	if interval <= 0 {
		panic("sim: RateSampler interval must be positive")
	}
	return &RateSampler{series: NewSeries(name), interval: interval, nextAt: interval}
}

// Observe records n events occurring at time at, flushing any elapsed
// sample intervals first. Times must be non-decreasing; going backwards
// would silently misattribute events to a later interval, so it panics.
func (r *RateSampler) Observe(at time.Duration, n int64) {
	if at < r.lastAt {
		panic(fmt.Sprintf("sim: RateSampler %q observation at %v before last %v", r.series.Name, at, r.lastAt))
	}
	r.lastAt = at
	r.flushTo(at)
	r.pending += n
}

// flushTo emits zero-or-more interval samples covering (nextAt, at].
func (r *RateSampler) flushTo(at time.Duration) {
	for at >= r.nextAt {
		perSec := float64(r.pending) / r.interval.Seconds()
		r.series.Record(r.nextAt, perSec)
		r.pending = 0
		r.nextAt += r.interval
	}
}

// Finish flushes through time end and returns the rate series.
func (r *RateSampler) Finish(end time.Duration) *Series {
	r.flushTo(end + r.interval)
	return r.series
}

// Histogram collects float64 observations for percentile/statistic
// extraction. Observations are stored exactly; memory is one float64 each.
type Histogram struct {
	mu     sync.Mutex
	vals   []float64
	sorted bool
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.vals = append(h.vals, v)
	h.sorted = false
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int { h.mu.Lock(); defer h.mu.Unlock(); return len(h.vals) }

// sortLocked sorts observations if needed; callers hold h.mu.
func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Float64s(h.vals)
		h.sorted = true
	}
}

// Quantile returns the q'th quantile (0 <= q <= 1) by linear interpolation,
// or 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.vals) == 0 {
		return 0
	}
	h.sortLocked()
	if q <= 0 {
		return h.vals[0]
	}
	if q >= 1 {
		return h.vals[len(h.vals)-1]
	}
	pos := q * float64(len(h.vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return h.vals[lo]
	}
	frac := pos - float64(lo)
	return h.vals[lo]*(1-frac) + h.vals[hi]*frac
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.vals) == 0 {
		return 0
	}
	h.sortLocked()
	return h.vals[len(h.vals)-1]
}

// Buckets returns counts of observations falling in n equal-width buckets
// spanning [lo, hi); values outside the range clamp to the end buckets.
func (h *Histogram) Buckets(lo, hi float64, n int) []int {
	if n <= 0 || hi <= lo {
		panic("sim: invalid bucket spec")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, n)
	width := (hi - lo) / float64(n)
	for _, v := range h.vals {
		i := int((v - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		out[i]++
	}
	return out
}
