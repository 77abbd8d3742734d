package bench

import (
	"fmt"
	"time"

	"falkon/internal/data"
	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

func init() {
	register("fig4-sim", "Figure 4", fig4Sim)
}

// fig4Sim re-derives Figure 4 dynamically instead of analytically: 128
// executor models stage data through a shared-bandwidth Stager (concurrent
// stagings split the tier's aggregate), so the task-throughput plateaus and
// the 1/size fall-off EMERGE from contention rather than being read off the
// envelope. Cross-validates the fig4 analytic model.
func fig4Sim(scale float64) *Result {
	res := &Result{
		ID:     "fig4-sim",
		Title:  "Throughput vs data size, dynamic contention simulation (128 executors)",
		Header: []string{"data size", "GPFS r", "GPFS r+w", "LOCAL r", "LOCAL r+w", "analytic GPFS r"},
	}
	nTasks := scaled(4000, scale, 400)
	run := func(p data.Profile, size int64) float64 {
		e := sim.New(44)
		m := simfalkon.New(e, simfalkon.NoSecurity())
		m.Stager = func(bytes int64, concurrent int) time.Duration {
			return p.StageTime(bytes, concurrent)
		}
		for i := 0; i < 128; i++ {
			m.AddExecutor(0, nil)
		}
		specs := make([]simfalkon.Spec, nTasks)
		for i := range specs {
			specs[i] = simfalkon.Spec{StageBytes: size}
		}
		m.Submit(specs, 100)
		end := e.Run()
		return float64(nTasks) / end.Seconds()
	}
	sizes := []int64{1 << 10, 100 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30}
	for _, size := range sizes {
		row := []string{byteSize(size)}
		for _, p := range []data.Profile{data.GPFSRead, data.GPFSReadWrite, data.LocalRead, data.LocalReadWrite} {
			row = append(row, f2(run(p, size)))
		}
		row = append(row, f2(data.GPFSRead.TaskThroughput(size, 487)))
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d staged tasks per cell; the dynamic simulation tracks the analytic envelope within the contention model's slack", nTasks),
		"paper at 1 GB: 0.4 / 0.04 / 6.81 / 4.28 tasks/s for GPFS r / GPFS r+w / LOCAL r / LOCAL r+w")
	return res
}
