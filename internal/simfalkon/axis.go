package simfalkon

import "time"

// The paper attributes the throughput drop for bundles larger than ~300
// tasks (Figure 5, §4.3) to the Axis SOAP array implementation inside GT4:
// the bundled-task array is stored in a grow-able array that copies to a new
// bigger array each time its size increases, so serializing an n-task bundle
// costs O(n²) element copies on top of the O(n) per-element marshalling
// work. AxisCostModel reproduces that envelope so the simulator (and the
// bundling ablation) exhibit the same rise-peak-decline shape.
type AxisCostModel struct {
	// PerMessage is the fixed cost of one WS round trip (connection
	// handling, envelope parsing). Calibrated so a bundle of 1 achieves
	// roughly the paper's ~20 tasks/s unbundled submission rate.
	PerMessage time.Duration
	// PerTask is the linear marshalling cost per bundled task.
	PerTask time.Duration
	// CopyPerTaskPair is the quadratic grow-copy coefficient: serializing n
	// tasks costs CopyPerTaskPair * n*(n-1)/2.
	CopyPerTaskPair time.Duration
}

// DefaultAxisCostModel is calibrated to Figure 5: throughput climbs from
// ~20 tasks/s at bundle size 1 to a peak just under 1,500 tasks/s around
// bundle size 300, then declines as the quadratic term dominates.
func DefaultAxisCostModel() AxisCostModel {
	return AxisCostModel{
		PerMessage:      48 * time.Millisecond,
		PerTask:         350 * time.Microsecond,
		CopyPerTaskPair: 1100 * time.Nanosecond,
	}
}

// MessageCost returns the time to process one bundle of n tasks.
func (m AxisCostModel) MessageCost(n int) time.Duration {
	if n < 0 {
		panic("simfalkon: negative bundle size")
	}
	pairs := int64(n) * int64(n-1) / 2
	return m.PerMessage + time.Duration(n)*m.PerTask + time.Duration(pairs)*m.CopyPerTaskPair
}

// PerTaskCost returns the amortized per-task submission cost for bundles of
// n tasks (Figure 5's right-hand axis).
func (m AxisCostModel) PerTaskCost(n int) time.Duration {
	if n <= 0 {
		panic("simfalkon: non-positive bundle size")
	}
	return m.MessageCost(n) / time.Duration(n)
}

// Throughput returns tasks per second achievable at bundle size n.
func (m AxisCostModel) Throughput(n int) float64 {
	c := m.MessageCost(n)
	if c <= 0 {
		return 0
	}
	return float64(n) / c.Seconds()
}

// OptimalBundle returns the bundle size in [1, max] with the highest
// throughput.
func (m AxisCostModel) OptimalBundle(max int) int {
	best, bestTput := 1, m.Throughput(1)
	for n := 2; n <= max; n++ {
		if t := m.Throughput(n); t > bestTput {
			best, bestTput = n, t
		}
	}
	return best
}
