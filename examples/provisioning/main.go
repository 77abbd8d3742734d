// Provisioning: run the paper's 18-stage synthetic workload (§4.6) under
// dynamic resource provisioning at several idle-release settings, printing
// the Table 3/4 trade-off — higher utilization (short idle timeouts) costs
// longer completion times.
//
// Everything runs on the virtual clock: the full 1,000-task workload with a
// simulated PBS cluster behind a GRAM4 gateway replays in milliseconds.
package main

import (
	"fmt"
	"time"

	"falkon/internal/lrm"
	"falkon/internal/provision"
	"falkon/internal/sim"
	"falkon/internal/simfalkon"
	"falkon/internal/workloads"
)

func main() {
	w := workloads.Synthetic18()
	fmt.Printf("18-stage synthetic workload: %d tasks, %.0f CPU s, ideal %.0f s on 32 machines\n\n",
		w.TotalTasks(), w.TotalCPU().Seconds(), w.IdealMakespan(32).Seconds())

	fmt.Printf("%-12s  %10s  %12s  %12s  %12s\n", "strategy", "time (s)", "utilization", "efficiency", "allocations")
	for _, cfg := range []struct {
		name string
		idle time.Duration
	}{
		{"Falkon-15", 15 * time.Second},
		{"Falkon-60", 60 * time.Second},
		{"Falkon-120", 120 * time.Second},
		{"Falkon-180", 180 * time.Second},
		{"Falkon-inf", 0},
	} {
		makespan, util, allocs := run(w, cfg.idle)
		fmt.Printf("%-12s  %10.0f  %11.0f%%  %11.0f%%  %12d\n",
			cfg.name, makespan.Seconds(), 100*util,
			100*w.IdealMakespan(32).Seconds()/makespan.Seconds(), allocs)
	}
	fmt.Println("\npaper (Table 4): Falkon-15 1754s/89%, Falkon-60 1680s/75%, Falkon-120 1507s/65%,")
	fmt.Println("                 Falkon-180 1484s/59%, Falkon-inf 1276s/44% — the same trade-off.")
}

// run executes the workload with one idle-release setting; idle == 0 means
// a statically pre-provisioned 32-machine pool (Falkon-∞).
func run(w workloads.Workload, idle time.Duration) (time.Duration, float64, int) {
	e := sim.New(7)
	m := simfalkon.New(e, simfalkon.NoSecurity())
	if idle == 0 {
		for i := 0; i < 32; i++ {
			m.AddExecutor(0, nil)
		}
	}
	done := false
	var makespan time.Duration
	simfalkon.RunStaged(m, w, 32, func() { done = true; makespan = e.Now() })
	// The provisioner is the one the live runtime ships (falkon.Config's
	// Provisioning); only its allocator and its clock are simulated.
	var prov *provision.Provisioner
	if idle != 0 {
		gw := lrm.NewGateway(e, lrm.New(e, lrm.PBS(), 100), lrm.GRAM4())
		prov, _ = simfalkon.StartProvisioner(m, gw, provision.Options{
			MaxExecutors: 32,
			Acquisition:  provision.AllAtOnce(),
			IdleTimeout:  idle,
		}, func() bool { return done })
	}
	e.Run()

	var wasted time.Duration
	for _, x := range m.Executors() {
		wasted += x.Lifetime(makespan) - x.BusyFor()
	}
	used := w.TotalCPU()
	util := used.Seconds() / (used + wasted).Seconds()
	allocs := 0
	if prov != nil {
		allocs = prov.Allocations()
	}
	return makespan, util, allocs
}
