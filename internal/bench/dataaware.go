package bench

import (
	"fmt"
	"time"

	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

func init() {
	register("abl-dataaware", ablDataAware)
}

// ablDataAware evaluates the paper's §6 proposal — data caching in
// executors plus a data-aware dispatcher — on a locality-rich workload:
// many tasks re-reading a modest set of datasets (the paper's motivating
// AstroPortal stacking service has exactly this shape). Compares the
// next-available baseline, a dispatcher that does not know what a task
// reads (the tasks name no dataset, so every read stages from shared
// storage), against the same tasks naming their datasets, which places them
// by locality onto per-executor LRU caches of 16.
func ablDataAware(scale float64) *Result {
	res := &Result{
		ID:     "abl-dataaware",
		Title:  "Data-aware dispatch + executor caching (64 executors, 512 datasets, 8 reads each)",
		Header: []string{"policy", "makespan (s)", "cache hit rate", "aggregate staging time (s)"},
	}
	const (
		nExec     = 64
		nDatasets = 512
		reads     = 8
		stageIn   = 2 * time.Second        // shared-FS staging per miss
		compute   = 500 * time.Millisecond // per-task compute
	)
	nTasks := scaled(nDatasets*reads, scale, nDatasets)

	run := func(dataAware bool) (time.Duration, float64, time.Duration) {
		e := sim.New(61)
		m := simfalkon.New(e, simfalkon.NoSecurity())
		for i := 0; i < nExec; i++ {
			m.AddExecutor(0, nil)
		}
		// Tasks arrive in dataset-interleaved order (worst case for
		// accidental locality): d0,d1,...,d511,d0,d1,...
		specs := make([]simfalkon.Spec, nTasks)
		for i := range specs {
			specs[i] = simfalkon.Spec{Dur: compute, StageIn: stageIn}
			if dataAware {
				specs[i].Dataset = fmt.Sprintf("d%03d", i%nDatasets)
			}
		}
		var staged time.Duration
		m.OnTaskDone = func(r simfalkon.Rec) {
			// Staging shows up as extra pre-run time beyond the profile's
			// ExecOverhead.
			if over := r.Started - r.Dispatched - m.P.ExecOverhead; over > stageIn/2 {
				staged += stageIn
			}
		}
		m.Submit(specs, 100)
		end := e.Run()
		hits, misses := m.CacheStats()
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		return end, rate, staged
	}

	naEnd, _, naStaged := run(false)
	daEnd, daRate, daStaged := run(true)
	res.Rows = append(res.Rows, []string{"next-available (paper)", f1(naEnd.Seconds()), "0.0%", f0(naStaged.Seconds())})
	res.Rows = append(res.Rows, []string{"data-aware + cache", f1(daEnd.Seconds()), pct(daRate), f0(daStaged.Seconds())})
	res.Notes = append(res.Notes,
		fmt.Sprintf("data-aware dispatch cuts the makespan %.1fx by serving repeat reads from node-local caches", naEnd.Seconds()/daEnd.Seconds()),
		"the paper proposes exactly this in §6 ('data caching, proactive replication, and data-aware scheduling'); implemented here as an extension")
	return res
}
