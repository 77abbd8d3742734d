package bench

import (
	"fmt"
	"time"

	"falkon/internal/lrm"
	"falkon/internal/provision"
	"falkon/internal/sim"
	"falkon/internal/simfalkon"
	"falkon/internal/workloads"
)

func init() {
	register("fig11", "Figure 11", fig11)
	register("table3", "Table 3", table3)
	register("table4", "Table 4", table4)
	register("fig12", "Figure 12", func(scale float64) *Result { return figTrace("fig12", 15*time.Second) })
	register("fig13", "Figure 13", func(scale float64) *Result { return figTrace("fig13", 180*time.Second) })
}

// fig11 prints the 18-stage synthetic workload (Figure 11).
func fig11(_ float64) *Result {
	w := workloads.Synthetic18()
	res := &Result{
		ID:     "fig11",
		Title:  "18-stage synthetic workload",
		Header: []string{"stage", "tasks", "task length (s)", "machines needed (<=32)"},
	}
	machines := w.MachinesNeeded(32)
	for i, s := range w.Stages {
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(i + 1), fmt.Sprint(s.Count), f0(s.Duration.Seconds()), fmt.Sprint(machines[i]),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("totals: %d tasks, %.0f CPU seconds, ideal %.0f s on 32 machines, ideal avg queue %.1f s (paper: 1,000 / 17,820 / 1,260 / 42.2)",
			w.TotalTasks(), w.TotalCPU().Seconds(), w.IdealMakespan(32).Seconds(), w.IdealAvgQueueTime(32).Seconds()))
	return res
}

// provOutcome is one §4.6 strategy's measurements.
type provOutcome struct {
	name        string
	makespan    time.Duration
	avgQueue    time.Duration
	avgExec     time.Duration
	used        time.Duration
	wasted      time.Duration
	allocations int

	allocated  *sim.Series
	registered *sim.Series
	active     *sim.Series
}

func (o *provOutcome) utilization() float64 {
	total := o.used + o.wasted
	if total <= 0 {
		return 0
	}
	return o.used.Seconds() / total.Seconds()
}

// runFalkonStrategy executes the 18-stage workload under one Falkon
// provisioning configuration. idle == 0 means Falkon-∞: 32 machines
// provisioned before the run, never released, provisioning time excluded.
func runFalkonStrategy(name string, idle time.Duration, sampleTrace bool) *provOutcome {
	w := workloads.Synthetic18()
	e := sim.New(46)
	m := simfalkon.New(e, simfalkon.NoSecurity())
	m.KeepRecords = true

	out := &provOutcome{name: name, used: w.TotalCPU()}
	if idle == 0 {
		for i := 0; i < 32; i++ {
			m.AddExecutor(0, nil)
		}
	}

	if sampleTrace {
		out.allocated = sim.NewSeries("allocated")
		out.registered = sim.NewSeries("registered")
		out.active = sim.NewSeries("active")
	}

	done := false
	simfalkon.RunStaged(m, w, 32, func() {
		done = true
		out.makespan = e.Now()
	})
	var prov *provision.Provisioner
	var alloc *simfalkon.Allocator
	if idle != 0 {
		gw := lrm.NewGateway(e, lrm.New(e, lrm.PBS(), 100), lrm.GRAM4())
		prov, alloc = simfalkon.StartProvisioner(m, gw, provision.Options{
			MaxExecutors: 32,
			IdleTimeout:  idle,
		}, func() bool { return done })
	}
	if sampleTrace {
		e.Every(2*time.Second, func() bool {
			starting := 0
			if alloc != nil {
				_, starting = alloc.Counts()
			}
			out.allocated.Record(e.Now(), float64(starting))
			out.registered.Record(e.Now(), float64(m.IdleExecutors()))
			out.active.Record(e.Now(), float64(m.BusyExecutors()))
			return !done
		})
	}
	e.Run() // runs past makespan until idle releases drain

	var qSum, eSum time.Duration
	for _, r := range m.Records {
		qSum += r.QueueTime()
		eSum += r.ExecTime()
	}
	n := time.Duration(len(m.Records))
	out.avgQueue = qSum / n
	out.avgExec = eSum / n

	// Wasted: registered-but-idle time over each executor's lifetime
	// (through its release, or the workload end for never-released pools).
	lifeEnd := out.makespan
	for _, x := range m.Executors() {
		life := x.Lifetime(lifeEnd)
		out.wasted += life - x.BusyFor()
	}
	if prov != nil {
		out.allocations = prov.Allocations()
	}
	return out
}

// runGramStrategy executes the workload through GRAM4+PBS directly.
func runGramStrategy() *provOutcome {
	w := workloads.Synthetic18()
	e := sim.New(47)
	l := lrm.New(e, lrm.PBS(), 100)
	gw := lrm.NewGateway(e, l, lrm.GRAM4())
	out := &provOutcome{name: "GRAM4+PBS", used: w.TotalCPU()}
	var set *simfalkon.GramOutcomeSet
	simfalkon.RunStagedGram(gw, w, func(s *simfalkon.GramOutcomeSet) { set = s })
	e.Run()
	out.makespan = set.DoneAt
	out.avgQueue = set.AvgQueue()
	out.avgExec = set.AvgExec()
	// Wasted: GRAM-visible execution time beyond the payload (the paper's
	// "difference between measured and reported task execution time").
	for _, o := range set.Outcomes {
		out.wasted += o.ExecTime - o.Task.Duration
	}
	out.allocations = gw.Submitted()
	return out
}

// strategies returns the paper's six configurations plus the ideal row.
func provStrategies(trace bool) []*provOutcome {
	outs := []*provOutcome{runGramStrategy()}
	for _, c := range []struct {
		name string
		idle time.Duration
	}{
		{"Falkon-15", 15 * time.Second},
		{"Falkon-60", 60 * time.Second},
		{"Falkon-120", 120 * time.Second},
		{"Falkon-180", 180 * time.Second},
		{"Falkon-inf", 0},
	} {
		outs = append(outs, runFalkonStrategy(c.name, c.idle, trace))
	}
	return outs
}

// table3 regenerates Table 3: average per-task queue and execution times.
func table3(_ float64) *Result {
	w := workloads.Synthetic18()
	res := &Result{
		ID:     "table3",
		Title:  "Average per-task queue and execution times, 18-stage workload",
		Header: []string{"strategy", "queue time (s)", "exec time (s)", "exec time %"},
	}
	for _, o := range provStrategies(false) {
		ratio := o.avgExec.Seconds() / (o.avgExec + o.avgQueue).Seconds()
		res.Rows = append(res.Rows, []string{o.name, secs(o.avgQueue), secs(o.avgExec), pct(ratio)})
	}
	idealQ := w.IdealAvgQueueTime(32)
	idealE := w.AvgTaskTime()
	res.Rows = append(res.Rows, []string{
		"Ideal (32 nodes)", secs(idealQ), secs(idealE),
		pct(idealE.Seconds() / (idealE + idealQ).Seconds()),
	})
	res.Notes = append(res.Notes,
		"paper: GRAM4+PBS 611.1/56.5/8.5%; Falkon-15 87.3/17.9/17%; Falkon-inf 43.5/17.9/29.2%; ideal 42.2/17.8/29.7%")
	return res
}

// table4 regenerates Table 4: time to complete, resource utilization,
// execution efficiency, and allocation counts.
func table4(_ float64) *Result {
	w := workloads.Synthetic18()
	ideal := w.IdealMakespan(32)
	res := &Result{
		ID:     "table4",
		Title:  "Overall resource utilization and execution efficiency, 18-stage workload",
		Header: []string{"strategy", "time to complete (s)", "resource utilization", "execution efficiency", "resource allocations"},
	}
	for _, o := range provStrategies(false) {
		res.Rows = append(res.Rows, []string{
			o.name, f0(o.makespan.Seconds()), pct(o.utilization()),
			pct(ideal.Seconds() / o.makespan.Seconds()), fmt.Sprint(o.allocations),
		})
	}
	res.Rows = append(res.Rows, []string{"Ideal (32 nodes)", f0(ideal.Seconds()), "100.0%", "100.0%", "0"})
	res.Notes = append(res.Notes,
		"paper: GRAM4+PBS 4904s/30%/26%/1000; Falkon-15 1754s/89%/72%/11; Falkon-60 1680s/75%/75%/9; Falkon-120 1507s/65%/84%/7; Falkon-180 1484s/59%/85%/6; Falkon-inf 1276s/44%/99%/0",
		"the utilization-vs-efficiency trade-off (shorter idle timeouts waste less but run longer) is the experiment's central claim")
	return res
}

// figTrace regenerates Figure 12 (Falkon-15) or 13 (Falkon-180): the
// allocated / registered-idle / active executor counts over time.
func figTrace(id string, idle time.Duration) *Result {
	o := runFalkonStrategy(fmt.Sprintf("Falkon-%d", int(idle.Seconds())), idle, true)
	res := &Result{
		ID:     id,
		Title:  fmt.Sprintf("Executor states over time, idle timeout %v", idle),
		Header: []string{"t (s)", "allocated (starting)", "registered (idle)", "active (busy)"},
	}
	n := o.allocated.Len()
	for _, s := range o.allocated.Downsample(28) {
		// Index the parallel series by timestamp position.
		idx := 0
		for i := 0; i < n; i++ {
			if o.allocated.At(i).At == s.At {
				idx = i
				break
			}
		}
		res.Rows = append(res.Rows, []string{
			f0(s.At.Seconds()), f0(s.Value),
			f0(o.registered.At(idx).Value), f0(o.active.At(idx).Value),
		})
	}
	res.Plots = append(res.Plots, o.allocated, o.registered, o.active)
	res.Notes = append(res.Notes,
		fmt.Sprintf("makespan %.0f s, utilization %.0f%%, %d allocation requests", o.makespan.Seconds(), 100*o.utilization(), o.allocations),
		"blue/allocated = startup cost, red/registered = wasted resources, green/active = utilized resources (paper's legend)")
	return res
}
