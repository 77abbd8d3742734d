package bench

import (
	"fmt"
	"time"

	"falkon/internal/lrm"
	"falkon/internal/sim"
	"falkon/internal/simfalkon"
)

// peakThroughput measures sustained dispatch throughput on the virtual-time
// model with a deep pre-filled queue, excluding the cold-start ramp.
func peakThroughput(p simfalkon.Profile, nExec, nTasks int) float64 {
	e := sim.New(42)
	m := simfalkon.New(e, p)
	var rampEnd time.Duration
	cut := nTasks / 10
	m.OnTaskDone = func(simfalkon.Rec) {
		if m.Completed() == cut {
			rampEnd = e.Now()
		}
	}
	for i := 0; i < nExec; i++ {
		m.AddExecutor(0, nil)
	}
	m.PreloadQueue(nTasks, 0)
	end := e.Run()
	return float64(nTasks-cut) / (end - rampEnd).Seconds()
}

// lrmThroughput measures an LRM profile's steady sleep-0 job throughput
// (the paper's 100-job test on 64 nodes), excluding the initial scheduler
// poll offset by timing from the first completion.
func lrmThroughput(prof lrm.Profile, jobs, nodes int) float64 {
	e := sim.New(7)
	l := lrm.New(e, prof, nodes)
	var first, last time.Duration
	for i := 0; i < jobs; i++ {
		l.Submit(&lrm.Job{Nodes: 1, Duration: 0, OnDone: func(*lrm.Job) {
			if first == 0 {
				first = e.Now()
			}
			last = e.Now()
		}})
	}
	e.Run()
	if last <= first {
		return 0
	}
	return float64(jobs-1) / (last - first).Seconds()
}

func init() {
	register("fig3", "Figure 3", fig3)
	register("table2", "Table 2", table2)
}

// fig3 regenerates Figure 3: throughput as a function of executor count for
// Falkon with and without security, against the GT4 WS-call upper bound.
func fig3(scale float64) *Result {
	res := &Result{
		ID:     "fig3",
		Title:  "Throughput as function of executor count (sleep-0 tasks)",
		Header: []string{"executors", "GT4 bound (calls/s)", "Falkon no-sec (tasks/s)", "Falkon GSISecure (tasks/s)"},
	}
	tasks := scaled(20000, scale, 2000)
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		nosec := peakThroughput(simfalkon.NoSecurity(), n, tasks)
		sec := peakThroughput(simfalkon.Secure(), n, tasks)
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n), f0(simfalkon.GT4WSCallBound), f1(nosec), f1(sec),
		})
	}
	res.Notes = append(res.Notes,
		"paper: 487 tasks/s no-security, 204 tasks/s with GSISecureConversation at 256 executors",
		"paper: single executor reaches 28 tasks/s (no sec) and 12 tasks/s (secure)")
	return res
}

// table2 regenerates Table 2: measured and cited throughput for Falkon,
// Condor and PBS.
func table2(scale float64) *Result {
	res := &Result{
		ID:     "table2",
		Title:  "Measured and cited throughput (tasks/s)",
		Header: []string{"system", "comments", "throughput (tasks/s)", "paper"},
	}
	tasks := scaled(20000, scale, 2000)
	lrmJobs := scaled(100, scale, 20)
	falkon := peakThroughput(simfalkon.NoSecurity(), 256, tasks)
	falkonSec := peakThroughput(simfalkon.Secure(), 256, tasks)
	condor := lrmThroughput(lrm.Condor(), lrmJobs, 64)
	pbs := lrmThroughput(lrm.PBS(), lrmJobs, 64)
	res.Rows = [][]string{
		{"Falkon (no security)", "simulated dual-CPU dispatcher", f1(falkon), "487"},
		{"Falkon (GSISecureConversation)", "simulated dual-CPU dispatcher", f1(falkonSec), "204"},
		{"Condor (v6.7.2)", "simulated, 100 jobs / 64 nodes", f2(condor), "0.49"},
		{"PBS (v2.1.8)", "simulated, 100 jobs / 64 nodes", f2(pbs), "0.45"},
		{"Condor (v6.7.2) [15]", "cited", "2", "2"},
		{"Condor (v6.8.2) [34]", "cited", "0.42", "0.42"},
		{"Condor (v6.9.3) [34]", "cited", "11", "11"},
		{"Condor-J2 [15]", "cited", "22", "22"},
		{"BOINC [19,20]", "cited", "93", "93"},
	}
	return res
}
