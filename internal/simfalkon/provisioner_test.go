package simfalkon

import (
	"testing"
	"time"

	"falkon/internal/lrm"
	"falkon/internal/provision"
	"falkon/internal/sim"
	"falkon/internal/workloads"
)

// runProvisioned executes the 18-stage workload under dynamic provisioning
// with the given idle timeout (0 disables release — Falkon-∞ behaviour but
// still provisioned on demand).
func runProvisioned(t *testing.T, idle time.Duration) (makespan time.Duration, m *Model, p *provision.Provisioner) {
	t.Helper()
	e := sim.New(11)
	l := lrm.New(e, lrm.PBS(), 100)
	gw := lrm.NewGateway(e, l, lrm.GRAM4())
	m = New(e, NoSecurity())
	m.KeepRecords = true
	done := false
	RunStaged(m, workloads.Synthetic18(), 32, func() { done = true })
	p, _ = StartProvisioner(m, gw, provision.Options{MaxExecutors: 32, IdleTimeout: idle}, func() bool { return done })
	end := e.Run()
	if !done {
		t.Fatalf("workload incomplete: %d/%d", m.Completed(), workloads.Synthetic18().TotalTasks())
	}
	p.ReleaseAll()
	return end, m, p
}

func TestFalkonInfinityMatchesTable4(t *testing.T) {
	// Falkon-∞: 32 machines provisioned before the workload starts and
	// never released; the paper measured 1,276 s against a 1,260 s ideal.
	e := sim.New(3)
	m := New(e, NoSecurity())
	for i := 0; i < 32; i++ {
		m.AddExecutor(0, nil)
	}
	m.KeepRecords = true
	done := false
	RunStaged(m, workloads.Synthetic18(), 32, func() { done = true })
	end := e.Run()
	if !done {
		t.Fatal("workload incomplete")
	}
	if end < 1260*time.Second || end > 1340*time.Second {
		t.Fatalf("Falkon-inf makespan = %v, want ~1276s", end)
	}
	// Per-task execution time within ~100 ms of the 17.8 s ideal (Table 3).
	var execSum time.Duration
	for _, r := range m.Records {
		execSum += r.ExecTime()
	}
	avgExec := execSum / time.Duration(len(m.Records))
	if avgExec < 17820*time.Millisecond || avgExec > 18100*time.Millisecond {
		t.Fatalf("avg exec = %v, want 17.9s", avgExec)
	}
	// Average queue time near the 42.2 s ideal (Table 3 Falkon-∞: 43.5 s).
	var qSum time.Duration
	for _, r := range m.Records {
		qSum += r.QueueTime()
	}
	avgQ := qSum / time.Duration(len(m.Records))
	if avgQ < 40*time.Second || avgQ > 50*time.Second {
		t.Fatalf("avg queue = %v, want ~43.5s", avgQ)
	}
}

func TestFalkon15Provisioning(t *testing.T) {
	// Falkon-15: idle release after 15 s forces re-allocations between
	// stages; the paper measured 1,754 s and 11 allocation requests.
	end, m, p := runProvisioned(t, 15*time.Second)
	if end < 1400*time.Second || end > 2200*time.Second {
		t.Fatalf("Falkon-15 makespan = %v, want ~1754s", end)
	}
	if reqs := p.Allocations(); reqs < 4 || reqs > 30 {
		t.Fatalf("allocation requests = %d, want ~11", reqs)
	}
	if m.Completed() != 1000 {
		t.Fatalf("completed = %d", m.Completed())
	}
}

func TestIdleTimeoutTradeoff(t *testing.T) {
	// Table 4's central trade-off: longer idle timeouts complete faster
	// (fewer re-allocations) but waste more resources.
	end15, m15, _ := runProvisioned(t, 15*time.Second)
	end180, m180, _ := runProvisioned(t, 180*time.Second)
	if end180 >= end15 {
		t.Fatalf("Falkon-180 (%v) not faster than Falkon-15 (%v)", end180, end15)
	}
	waste := func(m *Model, end time.Duration) time.Duration {
		var w time.Duration
		for _, x := range m.Executors() {
			w += x.Lifetime(end) - x.BusyFor()
		}
		return w
	}
	if waste(m180, end180) <= waste(m15, end15) {
		t.Fatalf("Falkon-180 wasted less than Falkon-15: %v vs %v",
			waste(m180, end180), waste(m15, end15))
	}
	// Resource utilization ordering (paper: 89% vs 59%).
	util := func(m *Model, end time.Duration) float64 {
		used := workloads.Synthetic18().TotalCPU()
		return used.Seconds() / (used + waste(m, end)).Seconds()
	}
	u15, u180 := util(m15, end15), util(m180, end180)
	if u15 <= u180 {
		t.Fatalf("utilization ordering wrong: Falkon-15 %.2f <= Falkon-180 %.2f", u15, u180)
	}
	if u15 < 0.6 || u15 > 0.99 {
		t.Fatalf("Falkon-15 utilization = %.2f, want high (~0.89)", u15)
	}
}

func TestGram4PBSBaselineMatchesTable3(t *testing.T) {
	// GRAM4+PBS: every task its own job; the paper measured 611 s average
	// queue time, 56.5 s average execution time, 4,904 s to complete.
	e := sim.New(5)
	l := lrm.New(e, lrm.PBS(), 100)
	gw := lrm.NewGateway(e, l, lrm.GRAM4())
	var got *GramOutcomeSet
	RunStagedGram(gw, workloads.Synthetic18(), func(s *GramOutcomeSet) { got = s })
	e.Run()
	if got == nil {
		t.Fatal("workload incomplete")
	}
	if n := len(got.Outcomes); n != 1000 {
		t.Fatalf("outcomes = %d", n)
	}
	avgExec := got.AvgExec()
	if avgExec < 50*time.Second || avgExec > 63*time.Second {
		t.Fatalf("avg exec = %v, want ~56.5s", avgExec)
	}
	avgQ := got.AvgQueue()
	if avgQ < 300*time.Second || avgQ > 900*time.Second {
		t.Fatalf("avg queue = %v, want ~611s", avgQ)
	}
	if got.DoneAt < 3500*time.Second || got.DoneAt > 6500*time.Second {
		t.Fatalf("makespan = %v, want ~4904s", got.DoneAt)
	}
}

func TestClusteredRunBeatsDirectGram(t *testing.T) {
	// Figure 14's middle series: clustering into 8 groups cuts GRAM4+PBS
	// time by ~4x for the fMRI workload.
	run := func(clustered bool) time.Duration {
		e := sim.New(9)
		l := lrm.New(e, lrm.PBS(), 62)
		gw := lrm.NewGateway(e, l, lrm.GRAM4())
		var got *GramOutcomeSet
		if clustered {
			RunStagedClustered(gw, workloads.FMRI(120), 8, func(s *GramOutcomeSet) { got = s })
		} else {
			RunStagedGram(gw, workloads.FMRI(120), func(s *GramOutcomeSet) { got = s })
		}
		e.Run()
		if got == nil {
			return 0
		}
		return got.DoneAt
	}
	direct := run(false)
	clustered := run(true)
	if direct == 0 || clustered == 0 {
		t.Fatal("runs incomplete")
	}
	if float64(direct)/float64(clustered) < 2.2 {
		t.Fatalf("clustering speedup = %.1fx (direct %v vs clustered %v), want >= 2.2x",
			float64(direct)/float64(clustered), direct, clustered)
	}
}

func TestProvisionerAllocationWindow(t *testing.T) {
	// Executor creation+registration must land in the paper's 5-65 s
	// window relative to the demand appearing.
	e := sim.New(13)
	l := lrm.New(e, lrm.PBS(), 100)
	gw := lrm.NewGateway(e, l, lrm.GRAM4())
	m := New(e, NoSecurity())
	m.SubmitSleepStream(8, time.Second, 8)
	var firstExec time.Duration
	m.OnStateChange = func() {
		if firstExec == 0 && m.LiveExecutors() > 0 {
			firstExec = e.Now()
		}
	}
	done := false
	m.OnTaskDone = func(Rec) {
		if m.Completed() == 8 {
			done = true
		}
	}
	p, _ := StartProvisioner(m, gw, provision.Options{MaxExecutors: 8, Release: provision.ReleaseNever}, func() bool { return done })
	e.Run()
	if !done {
		t.Fatalf("tasks incomplete: %d", m.Completed())
	}
	if firstExec < 5*time.Second || firstExec > 70*time.Second {
		t.Fatalf("first executor at %v, want 5-65s", firstExec)
	}
	p.ReleaseAll()
}

func TestRunStagedBarriers(t *testing.T) {
	// No task of stage k+1 may dispatch before all of stage k finished.
	e := sim.New(2)
	m := New(e, NoSecurity())
	m.KeepRecords = true
	for i := 0; i < 4; i++ {
		m.AddExecutor(0, nil)
	}
	w := workloads.Workload{Stages: []workloads.Stage{
		{Count: 8, Duration: 2 * time.Second},
		{Count: 4, Duration: time.Second},
		{Count: 2, Duration: time.Second},
	}}
	done := false
	RunStaged(m, w, 4, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("incomplete")
	}
	lastFinish := map[int]time.Duration{}
	firstDispatch := map[int]time.Duration{}
	for _, r := range m.Records {
		if r.Finished > lastFinish[r.Stage] {
			lastFinish[r.Stage] = r.Finished
		}
		if cur, ok := firstDispatch[r.Stage]; !ok || r.Dispatched < cur {
			firstDispatch[r.Stage] = r.Dispatched
		}
	}
	for s := 2; s <= 3; s++ {
		if firstDispatch[s] < lastFinish[s-1] {
			t.Fatalf("stage %d dispatched at %v before stage %d finished at %v",
				s, firstDispatch[s], s-1, lastFinish[s-1])
		}
	}
}
