package bench

import (
	"fmt"

	"falkon/internal/data"
	"falkon/internal/simfalkon"
)

func init() {
	register("fig4", fig4)
	register("fig5", fig5)
}

// fig4Sizes sweeps 1 B to 1 GB in decades, as in Figure 4's log axis.
var fig4Sizes = []int64{
	1, 10, 100, 1 << 10, 10 << 10, 100 << 10,
	1 << 20, 10 << 20, 100 << 20, 1 << 30,
}

// fig4 regenerates Figure 4: throughput as a function of data size on 64
// nodes (128 executors), for the four storage configurations.
func fig4(_ float64) *Result {
	const dispatchCap = 487 // peak task rate from Figure 3
	res := &Result{
		ID:    "fig4",
		Title: "Throughput vs data size, 128 executors on 64 nodes",
		Header: []string{"data size",
			"GPFS r (tasks/s)", "GPFS r+w (tasks/s)", "LOCAL r (tasks/s)", "LOCAL r+w (tasks/s)",
			"GPFS r (Mb/s)", "GPFS r+w (Mb/s)", "LOCAL r (Mb/s)", "LOCAL r+w (Mb/s)"},
	}
	for _, size := range fig4Sizes {
		row := []string{byteSize(size)}
		for _, p := range []data.Profile{data.GPFSRead, data.GPFSReadWrite, data.LocalRead, data.LocalReadWrite} {
			row = append(row, f2(p.TaskThroughput(size, dispatchCap)))
		}
		for _, p := range []data.Profile{data.GPFSRead, data.GPFSReadWrite, data.LocalRead, data.LocalReadWrite} {
			row = append(row, f1(p.DataMbps(size, dispatchCap)))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper plateaus: GPFS read 3,067 Mb/s; GPFS read+write 326 Mb/s (150 tasks/s cap); LOCAL read 52,015 Mb/s; LOCAL read+write 32,667 Mb/s",
		"paper at 1 GB: 0.4, 0.04, 6.81, 4.28 tasks/s respectively")
	return res
}

// byteSize renders a size like the figure's axis labels.
func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fig5 regenerates Figure 5: bundling throughput and per-task cost as a
// function of bundle size, under the Axis grow-able-array cost model.
func fig5(_ float64) *Result {
	m := simfalkon.DefaultAxisCostModel()
	res := &Result{
		ID:     "fig5",
		Title:  "Bundling throughput and cost per task vs bundle size",
		Header: []string{"bundle size", "throughput (tasks/s)", "cost per task (ms)"},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 300, 384, 512, 768, 1024, 1536, 1920} {
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n),
			f1(m.Throughput(n)),
			f2(float64(m.PerTaskCost(n).Microseconds()) / 1000),
		})
	}
	opt := m.OptimalBundle(1920)
	res.Notes = append(res.Notes,
		fmt.Sprintf("optimal bundle %d at %.0f tasks/s (paper: peak just under 1,500 tasks/s near 300 tasks/bundle, ~20 tasks/s unbundled)", opt, m.Throughput(opt)),
		"decline past the peak reproduces the Axis grow-able-array quadratic copy cost (§4.3)")
	return res
}
