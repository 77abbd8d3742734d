package bench

import (
	"fmt"
	"time"

	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

func init() {
	register("abl-3tier", "DESIGN.md §13", abl3Tier)
}

// abl3Tier evaluates the paper's §6 3-tier aspiration at scale: "scaling
// Falkon to two or more orders of magnitude more executors, as will be
// required for ... the IBM BlueGene/P, that may have 256,000 or more
// processors." A forwarder spreads one workload over K dispatchers, each
// managing its share of executors; with one dispatcher the 54K-executor
// ramp already takes ~400 s, and a BG/P-sized machine would take ~30
// minutes to even start — sharding the dispatch tier recovers it.
func abl3Tier(scale float64) *Result {
	res := &Result{
		ID:     "abl-3tier",
		Title:  "3-tier sharding at BlueGene/P scale (sleep-480 tasks, one per executor)",
		Header: []string{"executors", "dispatchers", "ramp to all-busy (s)", "peak busy", "makespan (s)", "overall tasks/s"},
	}
	run := func(total, dispatchers int) (ramp, makespan time.Duration, peak int, tput float64) {
		// Round to a multiple of the shard count so every shard gets the
		// same share and the completion check is exact.
		total = (total / dispatchers) * dispatchers
		e := sim.New(101)
		models := make([]*simfalkon.Model, dispatchers)
		completed := 0
		busyAll := func() int {
			n := 0
			for _, m := range models {
				n += m.BusyExecutors()
			}
			return n
		}
		per := total / dispatchers
		for i := range models {
			p := simfalkon.NoSecurity()
			p.ExecOverhead = 60 * time.Millisecond
			p.ExecOverheadJitter = 45 * time.Millisecond
			p.ExecOverheadCap = 1300 * time.Millisecond
			m := simfalkon.New(e, p)
			m.OnTaskDone = func(simfalkon.Rec) { completed++ }
			for j := 0; j < per; j++ {
				m.AddExecutor(0, nil)
			}
			models[i] = m
		}
		// The forwarder splits the submission stream round-robin; each
		// shard receives its slice as bundled submissions.
		for _, m := range models {
			m.SubmitSleepStream(per, 480*time.Second, 300)
		}
		e.Every(5*time.Second, func() bool {
			if b := busyAll(); b > peak {
				peak = b
			}
			if ramp == 0 && peak == total {
				ramp = e.Now()
			}
			return completed < total
		})
		end := e.Run()
		return ramp, end, peak, float64(total) / end.Seconds()
	}

	type cfg struct {
		total       int
		dispatchers int
	}
	cases := []cfg{
		{54000, 1}, // the paper's Figure 9 configuration
		{54000, 4},
		{262144, 1}, // BlueGene/P-sized, single dispatcher: dispatch-bound
		{262144, 8},
		{262144, 32},
	}
	for _, c := range cases {
		total := scaled(c.total, scale, c.dispatchers*100)
		total = (total / c.dispatchers) * c.dispatchers
		ramp, makespan, peak, tput := run(total, c.dispatchers)
		rampCell := f0(ramp.Seconds())
		if ramp == 0 {
			// Tasks began completing before the last executors ever got
			// work: the dispatcher cannot even fill the machine.
			rampCell = "never"
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(total), fmt.Sprint(c.dispatchers),
			rampCell, fmt.Sprint(peak), f0(makespan.Seconds()), f1(tput),
		})
	}
	res.Notes = append(res.Notes,
		"a single dispatcher ramps 256K executors in ~30+ minutes (dispatch-bound); sharding across dispatchers behind a forwarder divides the ramp by the shard count",
		"this quantifies the paper's §6 claim that the 3-tier architecture is what BlueGene/P-scale deployments require")
	return res
}
