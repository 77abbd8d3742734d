package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a concurrency-safe monotonically increasing counter. It is
// lock-free (a single atomic) because counters sit on the dispatch hot path
// once registered in a Registry.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta (which must be >= 0).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("obs: negative Counter delta")
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a concurrency-safe instantaneous value (lock-free).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is the runtime's bounded-memory histogram: instead of storing
// every observation it counts them into a fixed set of logarithmically
// spaced buckets, so memory stays constant over arbitrarily long live runs.
// Quantiles are approximate (linear interpolation within a bucket, at most
// one bucket width of error — ~19% with the default layout); the exact
// sim.Histogram remains the right tool for the simulator's figure
// reproduction.
//
// All Histograms share one bucket layout so snapshots taken on different
// processes (dispatcher, forwarder, executors) merge by summing bucket
// counts.
type Histogram struct {
	mu      sync.Mutex
	buckets [fixedBuckets]int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// The shared layout: bucket 0 holds values below fixedLo; bucket i (i >= 1)
// holds [fixedLo*g^(i-1), fixedLo*g^i) with g = 2^(1/4); the last bucket
// absorbs everything larger. The span covers 1µs to ~2.7ks when observing
// seconds, and 1 to ~2.7e9 when observing bytes scaled by 1e6*fixedLo — in
// practice any positive range, since out-of-span values clamp to the ends.
const (
	fixedLo      = 1e-6
	fixedBuckets = 136
)

var fixedLnG = math.Log(2) / 4

// fixedQuarters are the mantissa fields of 2^¼, 2^½ and 2^¾: where the
// second, third and fourth bucket of an octave begin.
var fixedQuarters = [3]uint64{
	math.Float64bits(math.Pow(2, 0.25)) & fracMask,
	math.Float64bits(math.Sqrt2) & fracMask,
	math.Float64bits(math.Pow(2, 0.75)) & fracMask,
}

const fracMask = 1<<52 - 1

// fixedBound returns the upper bound of bucket i.
func fixedBound(i int) float64 {
	return fixedLo * math.Exp(float64(i)*fixedLnG)
}

// fixedIndex maps a value to its bucket, 1 + ⌊4·log2(v/fixedLo)⌋, read from
// the bits of v/fixedLo: with four buckets to an octave the binary exponent
// is a quarter of the index, and the mantissa against 2^¼, 2^½ and 2^¾ the
// rest. No logarithm is taken.
func fixedIndex(v float64) int {
	if v < fixedLo {
		return 0
	}
	b := math.Float64bits(v / fixedLo)
	i := 1 + 4*(int(b>>52)-1023)
	for _, q := range fixedQuarters {
		if b&fracMask >= q {
			i++
		}
	}
	return min(i, fixedBuckets-1)
}

// Observe records one value. Negative values count as zero.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.observe(v)
	h.mu.Unlock()
}

// ObserveAll records vs in order under one acquisition of the lock: a
// handler's or a batch's worth. It leaves what Observe over each would, the
// sum included (added in the same order).
func (h *Histogram) ObserveAll(vs []float64) {
	if len(vs) == 0 {
		return
	}
	h.mu.Lock()
	for _, v := range vs {
		h.observe(v)
	}
	h.mu.Unlock()
}

// observe is Observe with h.mu held.
func (h *Histogram) observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.buckets[fixedIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Snapshot copies the histogram state into a mergeable, JSON-encodable
// form. Trailing empty buckets are trimmed to keep wire payloads small.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	last := -1
	for i, c := range h.buckets {
		if c > 0 {
			last = i
		}
	}
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if last >= 0 {
		s.Buckets = append([]int64(nil), h.buckets[:last+1]...)
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, suitable for JSON
// transport (the falkon.metrics RPC) and cross-process merging.
type HistSnapshot struct {
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Merge folds o into s (counts and buckets sum; min/max widen). Snapshots
// from any Histogram share the same bucket layout, so this is exact.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.Count == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if len(o.Buckets) > len(s.Buckets) {
		s.Buckets = append(s.Buckets, make([]int64, len(o.Buckets)-len(s.Buckets))...)
	}
	for i, c := range o.Buckets {
		s.Buckets[i] += c
	}
}

// Mean returns the arithmetic mean (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns the approximate q'th quantile by locating the bucket
// containing the target rank and interpolating linearly inside it. Results
// clamp to the exact observed [Min, Max].
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := 0.0
			if i > 0 {
				lo = fixedBound(i - 1)
			}
			hi := fixedBound(i)
			v := lo + (hi-lo)*(target-cum)/float64(c)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
	}
	return s.Max
}
