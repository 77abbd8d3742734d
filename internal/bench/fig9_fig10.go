package bench

import (
	"fmt"
	"time"

	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

func init() {
	register("fig9", fig9)
	register("fig10", fig10)
}

// scale54K builds the 54,000-executor experiment: 900 executors per
// machine on 60 machines, one sleep-480 task each, client-dispatcher
// bundling only (piggy-backing is irrelevant with one task per executor).
func run54K(scale float64) (*sim.Engine, *simfalkon.Model, *sim.Series, time.Duration) {
	total := scaled(54000, scale, 5400)
	e := sim.New(54)
	p := simfalkon.NoSecurity()
	// 900 executors share each physical machine, so executor-side overhead
	// inflates: most tasks below 200 ms, a tail out to 1300 ms (Figure 10).
	p.ExecOverhead = 60 * time.Millisecond
	p.ExecOverheadJitter = 45 * time.Millisecond
	p.ExecOverheadCap = 1300 * time.Millisecond
	m := simfalkon.New(e, p)
	for i := 0; i < total; i++ {
		m.AddExecutor(0, nil)
	}
	busySeries := sim.NewSeries("busy-executors")
	m.OnTaskDone = func(simfalkon.Rec) {
		if m.Completed() == total {
			e.Stop()
		}
	}
	e.Every(5*time.Second, func() bool {
		busySeries.Record(e.Now(), float64(m.BusyExecutors()))
		return m.Completed() < total
	})
	m.SubmitSleepStream(total, 480*time.Second, 300)
	end := e.Run()
	return e, m, busySeries, end
}

// fig9 regenerates Figure 9: Falkon scalability with 54K executors.
func fig9(scale float64) *Result {
	_, m, busy, end := run54K(scale)
	total := m.Submitted()
	res := &Result{
		ID:     "fig9",
		Title:  fmt.Sprintf("Scalability: %d executors, %d sleep-480 tasks", total, total),
		Header: []string{"t (s)", "busy executors"},
	}
	var rampEnd time.Duration
	for _, s := range busy.Samples() {
		if rampEnd == 0 && int(s.Value) == total {
			rampEnd = s.At
		}
	}
	for _, s := range busy.Downsample(20) {
		res.Rows = append(res.Rows, []string{f0(s.At.Seconds()), f0(s.Value)})
	}
	res.Plots = append(res.Plots, busy)
	overall := float64(m.Completed()) / end.Seconds()
	res.Notes = append(res.Notes,
		fmt.Sprintf("all %d executors busy by %.0f s (paper: 54K busy in 408 s); dispatch rate tracked the submit rate", total, rampEnd.Seconds()),
		fmt.Sprintf("overall throughput including ramp-up and ramp-down: %.1f tasks/s (paper: ~60 tasks/s)", overall),
		fmt.Sprintf("makespan %.0f s for 480 s tasks", end.Seconds()),
	)
	return res
}

// fig10 regenerates Figure 10: per-task overhead distribution in the 54K
// run (task lifecycle minus the 480 s payload).
func fig10(scale float64) *Result {
	_, m, _, _ := run54K(scale)
	h := &m.OverheadHist
	res := &Result{
		ID:     "fig10",
		Title:  "Task overhead distribution, 54K-executor run (ms)",
		Header: []string{"percentile", "overhead (ms)"},
	}
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 1.0} {
		res.Rows = append(res.Rows, []string{pct(q), f1(h.Quantile(q))})
	}
	buckets := h.Buckets(0, 1300, 13)
	under200 := 0
	for i := 0; i < 2; i++ {
		under200 += buckets[i]
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%.1f%% of overheads below 200 ms, max %.0f ms (paper: most below 200 ms, max 1,300 ms)",
			100*float64(under200)/float64(h.Count()), h.Max()),
	)
	return res
}
