package bench

import (
	"fmt"
	"time"

	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

func init() {
	register("fig8", fig8)
}

// fig8 regenerates Figure 8: the 2-million-task endurance run on 64
// executors with a GC-limited dispatcher — queue length, raw once-per-
// second throughput samples, and the 60-sample moving average.
func fig8(scale float64) *Result {
	total := scaled(2_000_000, scale, 50_000)
	e := sim.New(8)
	p := simfalkon.NoSecurity()
	p.GC = simfalkon.DefaultGC()
	m := simfalkon.New(e, p)
	for i := 0; i < 64; i++ {
		m.AddExecutor(0, nil)
	}

	rate := sim.NewRateSampler("raw-throughput", time.Second)
	queueSeries := sim.NewSeries("queue-length")
	var submitEnd time.Duration
	m.OnTaskDone = func(simfalkon.Rec) {
		rate.Observe(e.Now(), 1)
		if m.Completed() == total {
			e.Stop()
		}
	}
	e.Every(time.Second, func() bool {
		queueSeries.Record(e.Now(), float64(m.QueueLen()))
		if submitEnd == 0 && m.Submitted() == total {
			submitEnd = e.Now()
		}
		return m.Completed() < total
	})
	m.SubmitSleepStream(total, 0, 250)
	end := e.Run()
	raw := rate.Finish(end)
	avg := raw.MovingAverage(60)

	res := &Result{
		ID:     "fig8",
		Title:  fmt.Sprintf("Endurance run: %d sleep-0 tasks, 64 executors, GC-limited dispatcher", total),
		Header: []string{"t (s)", "queue length", "raw (tasks/s)", "60s moving avg (tasks/s)"},
	}
	for _, s := range queueSeries.Downsample(24) {
		idx := int(s.At / time.Second)
		rawV, avgV := 0.0, 0.0
		if idx-1 >= 0 && idx-1 < raw.Len() {
			rawV = raw.At(idx - 1).Value
			avgV = avg.At(idx - 1).Value
		}
		res.Rows = append(res.Rows, []string{
			f0(s.At.Seconds()), f0(s.Value), f0(rawV), f1(avgV),
		})
	}
	res.Plots = append(res.Plots, queueSeries, raw, avg)
	overall := float64(total) / end.Seconds()
	res.Notes = append(res.Notes,
		fmt.Sprintf("completed %d tasks in %.1f min; average throughput %.0f tasks/s (paper: 2M tasks in 112 min, ~298 tasks/s average)", total, end.Minutes(), overall),
		fmt.Sprintf("peak queue length %d (paper: grew to ~1.5M before the client finished submitting)", int(queueSeries.Max())),
		fmt.Sprintf("client finished submitting at %.1f min; raw samples alternate ~450-490 tasks/s with 0 during GC stalls", submitEnd.Minutes()),
	)
	return res
}
