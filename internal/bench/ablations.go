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

// Ablation experiments for the design choices DESIGN.md §6 calls out. These
// go beyond the paper's figures: they quantify each Falkon mechanism by
// turning it off.

func init() {
	register("abl-pushpull", ablPushPull)
	register("abl-piggyback", ablPiggyback)
	register("abl-acquisition", ablAcquisition)
	register("abl-release", ablRelease)
	register("abl-gc", ablGC)
}

// ablPushPull compares the hybrid push/pull protocol against a pure pull
// model at several polling intervals — the paper's §3.3 argument that 500
// executors polling every second saturate the dispatcher.
func ablPushPull(scale float64) *Result {
	res := &Result{
		ID:     "abl-pushpull",
		Title:  "Hybrid push/pull vs pure pull (500 executors, 20 sparse tasks/s)",
		Header: []string{"protocol", "poll interval", "makespan (s)", "dispatcher busy", "total polls"},
	}
	// Sparse workload: 20 tasks/s of 1 s tasks through 500 executors, so
	// ~480 executors sit idle — the regime where polling hammers the
	// dispatcher (the paper's §3.3 scenario).
	nTasks := scaled(2000, scale, 400)
	run := func(pollEvery time.Duration) (time.Duration, float64, int) {
		e := sim.New(31)
		p := simfalkon.NoSecurity()
		p.PurePullInterval = pollEvery
		m := simfalkon.New(e, p)
		done := false
		m.OnTaskDone = func(simfalkon.Rec) {
			if m.Completed() == nTasks {
				done = true
				m.StopPolling()
				e.Stop()
			}
		}
		for i := 0; i < 500; i++ {
			m.AddExecutor(0, nil)
		}
		// Trickle tasks in at 20/s.
		for i := 0; i < nTasks; i++ {
			at := time.Duration(i) * 50 * time.Millisecond
			e.At(at, func() { m.PreloadQueue(1, time.Second) })
		}
		end := e.Run()
		if !done {
			panic("abl-pushpull: workload incomplete")
		}
		util := m.DispatchServedTime.Seconds() / end.Seconds()
		return end, util, m.Polls()
	}
	hybridEnd, hybridUtil, _ := run(0)
	res.Rows = append(res.Rows, []string{"hybrid push/pull", "-", f1(hybridEnd.Seconds()), pct(hybridUtil), "0"})
	for _, iv := range []time.Duration{time.Second, 5 * time.Second, 15 * time.Second} {
		end, util, polls := run(iv)
		res.Rows = append(res.Rows, []string{"pure pull", iv.String(), f1(end.Seconds()), pct(util), fmt.Sprint(polls)})
	}
	res.Notes = append(res.Notes,
		"paper §3.3: 500 executors polling every 1 s keep the dispatcher CPU at 100%; longer intervals trade CPU for responsiveness",
		"the hybrid model gets both low dispatcher load and low latency — the reason Falkon chose it")
	return res
}

// ablPiggyback isolates the piggy-backing optimization: with it, one WS
// call per task; without it, every completion pays the notify+get-work cold
// path.
func ablPiggyback(scale float64) *Result {
	res := &Result{
		ID:     "abl-piggyback",
		Title:  "Piggy-backing ablation (64 executors, deep queue of sleep-0 tasks)",
		Header: []string{"configuration", "throughput (tasks/s)"},
	}
	nTasks := scaled(20000, scale, 4000)
	run := func(noPiggy bool) float64 {
		e := sim.New(33)
		p := simfalkon.NoSecurity()
		p.NoPiggyback = noPiggy
		m := simfalkon.New(e, p)
		for i := 0; i < 64; i++ {
			m.AddExecutor(0, nil)
		}
		m.PreloadQueue(nTasks, 0)
		end := e.Run()
		return float64(nTasks) / end.Seconds()
	}
	with := run(false)
	without := run(true)
	res.Rows = append(res.Rows, []string{"piggy-backing on (paper)", f1(with)})
	res.Rows = append(res.Rows, []string{"piggy-backing off", f1(without)})
	res.Notes = append(res.Notes,
		fmt.Sprintf("piggy-backing is worth %.1fx: one WS call per task vs notify+get-work+deliver", with/without))
	return res
}

// ablAcquisition compares the paper's acquisition policies (the paper
// evaluates only all-at-once, predicting one-at-a-time would suffer from
// GRAM4+PBS's ~0.5 requests/s handling). Two measurements: a cold ramp to
// 32 registered executors, and the 18-stage workload makespan with an
// aggressive 15 s idle timeout (maximizing re-allocation traffic).
func ablAcquisition(_ float64) *Result {
	res := &Result{
		ID:     "abl-acquisition",
		Title:  "Acquisition policy ablation (GRAM handles ~0.5 requests/s)",
		Header: []string{"policy", "ramp to 32 (s)", "ramp, slow GRAM 0.1 req/s (s)", "18-stage makespan (s)", "GRAM requests"},
	}

	ramp := func(pol provision.AcquisitionPolicy, gwProf lrm.GatewayProfile) time.Duration {
		e := sim.New(35)
		gw := lrm.NewGateway(e, lrm.New(e, lrm.PBS(), 100), gwProf)
		m := simfalkon.New(e, simfalkon.NoSecurity())
		m.PreloadQueue(32, time.Hour) // sustained demand for 32 executors
		var full time.Duration
		m.OnStateChange = func() {
			if full == 0 && m.LiveExecutors() == 32 {
				full = e.Now()
				e.Stop()
			}
		}
		simfalkon.StartProvisioner(m, gw, provision.Options{MaxExecutors: 32, Acquisition: pol, Release: provision.ReleaseNever},
			func() bool { return full != 0 })
		e.Run()
		return full
	}

	workload := func(pol provision.AcquisitionPolicy) (time.Duration, int) {
		makespan, _, prov := runProvisioned18(35, provision.Options{Acquisition: pol, IdleTimeout: 15 * time.Second})
		return makespan, prov.Allocations()
	}

	slow := lrm.GRAM4()
	slow.RequestOverhead = 10 * time.Second // a 0.1 req/s gateway
	for _, pol := range []provision.AcquisitionPolicy{
		provision.AllAtOnce(),
		provision.OneAtATime(),
		provision.Additive(4),
		provision.Exponential(),
	} {
		r := ramp(pol, lrm.GRAM4())
		rs := ramp(pol, slow)
		makespan, reqs := workload(pol)
		res.Rows = append(res.Rows, []string{pol.Name(), f1(r.Seconds()), f1(rs.Seconds()), f0(makespan.Seconds()), fmt.Sprint(reqs)})
	}
	res.Notes = append(res.Notes,
		"the paper ran only all-at-once, predicting other policies would be 'less close to ideal' as request counts grow against a ~0.5/s request handler",
		"finding: at the paper's 0.5 req/s, request handling pipelines behind the LRM's 2.2 s/job dispatch, so policies tie on latency while multi-request policies cost ~10x the GRAM traffic; a slower gateway separates them")
	return res
}

// runProvisioned18 runs the 18-stage workload on a 32-executor pool the
// shipped provisioner acquires through GRAM4+PBS under opts, to the end of
// the event queue, and returns the makespan with the model and provisioner.
func runProvisioned18(seed int64, opts provision.Options) (time.Duration, *simfalkon.Model, *provision.Provisioner) {
	e := sim.New(seed)
	gw := lrm.NewGateway(e, lrm.New(e, lrm.PBS(), 100), lrm.GRAM4())
	m := simfalkon.New(e, simfalkon.NoSecurity())
	done := false
	var makespan time.Duration
	simfalkon.RunStaged(m, workloads.Synthetic18(), 32, func() { done = true; makespan = e.Now() })
	opts.MaxExecutors = 32
	prov, _ := simfalkon.StartProvisioner(m, gw, opts, func() bool { return done })
	e.Run()
	if !done {
		panic("bench: 18-stage workload incomplete")
	}
	return makespan, m, prov
}

// ablRelease compares the distributed idle-timeout release (the paper's
// experiments) with the centralized queue-threshold policy it describes but
// does not run, and with never releasing.
func ablRelease(_ float64) *Result {
	res := &Result{
		ID:     "abl-release",
		Title:  "Release policy ablation, 18-stage workload",
		Header: []string{"policy", "makespan (s)", "resource utilization"},
	}
	w := workloads.Synthetic18()
	type outcome struct {
		makespan time.Duration
		util     float64
	}
	run := func(opts provision.Options) outcome {
		makespan, m, _ := runProvisioned18(37, opts)
		var wasted time.Duration
		for _, x := range m.Executors() {
			wasted += x.Lifetime(makespan) - x.BusyFor()
		}
		used := w.TotalCPU()
		return outcome{makespan, used.Seconds() / (used + wasted).Seconds()}
	}

	// Distributed 60 s is the paper's Falkon-60. Centralized is the shipped
	// policy at its tightest setting: with nothing queued and nothing
	// running, each poll gives back the newest allocation. Never-release is
	// Falkon-∞ behaviour but dynamically acquired.
	d := run(provision.Options{Release: provision.ReleaseDistributed, IdleTimeout: 60 * time.Second})
	c := run(provision.Options{Release: provision.ReleaseCentralized, QueueThreshold: 1})
	n := run(provision.Options{Release: provision.ReleaseNever})
	res.Rows = append(res.Rows, []string{"distributed idle-60s (paper)", f0(d.makespan.Seconds()), pct(d.util)})
	res.Rows = append(res.Rows, []string{"centralized queue-empty", f0(c.makespan.Seconds()), pct(c.util)})
	res.Rows = append(res.Rows, []string{"never release", f0(n.makespan.Seconds()), pct(n.util)})
	res.Notes = append(res.Notes,
		"centralized release only fires at global quiet points, so it wastes more than per-executor idle timers during ragged stage tails")
	return res
}

// ablGC isolates the JVM garbage-collection model of the endurance run.
func ablGC(scale float64) *Result {
	res := &Result{
		ID:     "abl-gc",
		Title:  "GC stall injection ablation (64 executors, deep sleep-0 queue)",
		Header: []string{"configuration", "sustained throughput (tasks/s)"},
	}
	nTasks := scaled(60000, scale, 10000)
	run := func(gc *simfalkon.GCProfile) float64 {
		e := sim.New(39)
		p := simfalkon.NoSecurity()
		p.GC = gc
		m := simfalkon.New(e, p)
		for i := 0; i < 64; i++ {
			m.AddExecutor(0, nil)
		}
		m.PreloadQueue(nTasks, 0)
		end := e.Run()
		return float64(nTasks) / end.Seconds()
	}
	res.Rows = append(res.Rows, []string{"no GC stalls", f1(run(nil))})
	res.Rows = append(res.Rows, []string{"paper JVM (3 s busy / 1.5 s stall)", f1(run(simfalkon.DefaultGC()))})
	res.Rows = append(res.Rows, []string{"frequent GC (1 s busy / 0.5 s stall)", f1(run(&simfalkon.GCProfile{BusyRun: time.Second, Pause: 500 * time.Millisecond}))})
	res.Notes = append(res.Notes,
		"the paper attributes Figure 8's raw 0-samples and the 487->~300 sustained gap to JVM GC; more frequent, shorter collections keep the same duty cycle (the paper's proposed mitigation changes variance, not the mean)")
	return res
}
