package simfalkon

import (
	"testing"
	"time"

	"falkon/internal/sim"
)

// runPeakThroughput measures the sustained dispatch rate with a pre-filled
// queue (the paper's peak-throughput methodology), excluding the initial
// cold-dispatch ramp by timing the last 90% of completions.
func runPeakThroughput(t *testing.T, p Profile, nExec, nTasks int) float64 {
	t.Helper()
	e := sim.New(42)
	m := New(e, p)
	var rampEnd time.Duration
	cut := nTasks / 10
	m.OnTaskDone = func(Rec) {
		if m.Completed() == cut {
			rampEnd = e.Now()
		}
	}
	for i := 0; i < nExec; i++ {
		m.AddExecutor(0, nil)
	}
	m.PreloadQueue(nTasks, 0)
	end := e.Run()
	if m.Completed() != nTasks {
		t.Fatalf("completed %d of %d", m.Completed(), nTasks)
	}
	return float64(nTasks-cut) / (end - rampEnd).Seconds()
}

// runSleepThroughput measures sustained tasks/s with live bundled
// submission sharing the system.
func runSleepThroughput(t *testing.T, p Profile, nExec, nTasks int, dur time.Duration, bundle int) float64 {
	t.Helper()
	e := sim.New(42)
	m := New(e, p)
	for i := 0; i < nExec; i++ {
		m.AddExecutor(0, nil)
	}
	m.SubmitSleepStream(nTasks, dur, bundle)
	end := e.Run()
	if m.Completed() != nTasks {
		t.Fatalf("completed %d of %d", m.Completed(), nTasks)
	}
	return float64(nTasks) / end.Seconds()
}

func TestThroughput256ExecutorsMatches487(t *testing.T) {
	// Figure 3 / Table 2: 487 tasks/s with 256 executors, no security.
	got := runPeakThroughput(t, NoSecurity(), 256, 20000)
	if got < 470 || got > 500 {
		t.Fatalf("throughput = %.1f tasks/s, want ~487", got)
	}
}

func TestThroughputWithLiveSubmissionSlightlyLower(t *testing.T) {
	// While the client is still submitting, the shared costs shave a few
	// percent off (the inverse of Figure 8's end-of-submission bump).
	got := runSleepThroughput(t, NoSecurity(), 256, 20000, 0, 100)
	peak := runPeakThroughput(t, NoSecurity(), 256, 20000)
	if got >= peak {
		t.Fatalf("live submission (%.1f) not below peak (%.1f)", got, peak)
	}
	if got < 430 {
		t.Fatalf("live-submission throughput = %.1f, want > 430", got)
	}
}

func TestThroughputSecureMatches204(t *testing.T) {
	got := runPeakThroughput(t, Secure(), 256, 10000)
	if got < 195 || got > 215 {
		t.Fatalf("secure throughput = %.1f tasks/s, want ~204", got)
	}
}

func TestSingleExecutorMatches28(t *testing.T) {
	got := runPeakThroughput(t, NoSecurity(), 1, 2000)
	if got < 26 || got > 30 {
		t.Fatalf("single-executor throughput = %.1f, want ~28", got)
	}
}

func TestSingleExecutorSecureMatches12(t *testing.T) {
	got := runPeakThroughput(t, Secure(), 1, 1000)
	if got < 11 || got > 13 {
		t.Fatalf("single-executor secure throughput = %.1f, want ~12", got)
	}
}

func TestThroughputScalesWithExecutors(t *testing.T) {
	// Figure 3 shape: throughput grows with executors until the dispatcher
	// saturates, then flattens.
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		got := runPeakThroughput(t, NoSecurity(), n, 4000)
		if got < prev*0.98 {
			t.Fatalf("throughput fell from %.1f to %.1f at %d executors", prev, got, n)
		}
		prev = got
	}
	if prev < 470 {
		t.Fatalf("32-executor throughput = %.1f, want saturation near 487", prev)
	}
}

func TestEfficiencyOneSecondTasks(t *testing.T) {
	// Figure 6: with 1 s tasks on up to 256 executors, efficiency stays
	// high (paper: 95% worst case at 256 executors).
	e := sim.New(1)
	m := New(e, NoSecurity())
	const nExec, factor = 64, 8
	for i := 0; i < nExec; i++ {
		m.AddExecutor(0, nil)
	}
	nTasks := nExec * factor
	m.SubmitSleepStream(nTasks, time.Second, 100)
	end := e.Run()
	// Speedup vs. one executor running tasks back-to-back at its cycle
	// floor.
	t1 := time.Duration(nTasks) * (time.Second + m.P.ExecOverhead + m.P.DeliverCost)
	speedup := t1.Seconds() / end.Seconds()
	eff := speedup / nExec
	if eff < 0.90 || eff > 1.0 {
		t.Fatalf("efficiency = %.3f, want >= 0.90", eff)
	}
}

func TestLongTasksNearPerfectEfficiency(t *testing.T) {
	e := sim.New(1)
	m := New(e, NoSecurity())
	const nExec = 256
	for i := 0; i < nExec; i++ {
		m.AddExecutor(0, nil)
	}
	m.SubmitSleepStream(nExec, 64*time.Second, 100)
	end := e.Run()
	eff := (64 * time.Second).Seconds() / end.Seconds()
	if eff < 0.97 {
		t.Fatalf("64 s task efficiency = %.3f, want ~1 (paper speedup 255.5/256)", eff)
	}
}

func TestGCStallsReduceSustainedThroughput(t *testing.T) {
	// Figure 8: raw rate ~450-490 between stalls, ~300 sustained.
	p := NoSecurity()
	p.GC = DefaultGC()
	got := runSleepThroughput(t, p, 64, 30000, 0, 250)
	if got < 270 || got > 340 {
		t.Fatalf("sustained throughput with GC = %.1f, want ~300", got)
	}
	// Control without GC.
	noGC := runSleepThroughput(t, NoSecurity(), 64, 30000, 0, 250)
	if noGC < got+80 {
		t.Fatalf("GC made little difference: %.1f vs %.1f", got, noGC)
	}
}

func TestRecordsTimingInvariants(t *testing.T) {
	e := sim.New(7)
	m := New(e, NoSecurity())
	m.KeepRecords = true
	for i := 0; i < 8; i++ {
		m.AddExecutor(0, nil)
	}
	m.SubmitSleepStream(500, 2*time.Second, 25)
	e.Run()
	if len(m.Records) != 500 {
		t.Fatalf("records = %d", len(m.Records))
	}
	for _, r := range m.Records {
		if !(r.Queued <= r.Dispatched && r.Dispatched <= r.Started && r.Started < r.Finished) {
			t.Fatalf("timing violation: %+v", r)
		}
		if r.QueueTime() < 0 || r.ExecTime() <= 0 {
			t.Fatalf("negative spans: %+v", r)
		}
		// Task run time is 2 s; exec time must cover it.
		if r.Finished-r.Started < 2*time.Second {
			t.Fatalf("run shorter than task duration: %+v", r)
		}
	}
}

func TestIdleReleaseFreesExecutors(t *testing.T) {
	e := sim.New(1)
	m := New(e, NoSecurity())
	released := 0
	for i := 0; i < 4; i++ {
		m.AddExecutor(15*time.Second, func(*Exec) { released++ })
	}
	m.SubmitSleepStream(4, time.Second, 4)
	e.Run()
	if m.Completed() != 4 {
		t.Fatalf("completed = %d", m.Completed())
	}
	if released != 4 {
		t.Fatalf("released = %d, want all 4 after 15 s idle", released)
	}
	if m.LiveExecutors() != 0 {
		t.Fatalf("live = %d", m.LiveExecutors())
	}
	// Release happens 15 s after going idle, and the engine ends then.
	if e.Now() < 16*time.Second || e.Now() > 25*time.Second {
		t.Fatalf("end = %v", e.Now())
	}
}

func TestIdleTimerResetByNewWork(t *testing.T) {
	e := sim.New(1)
	m := New(e, NoSecurity())
	released := 0
	m.AddExecutor(10*time.Second, func(*Exec) { released++ })
	// Feed a task every 5 s for 40 s: the executor must survive.
	for i := 0; i < 8; i++ {
		at := time.Duration(i*5) * time.Second
		e.At(at, func() { m.SubmitSleepStream(1, time.Second, 1) })
	}
	e.Run()
	if m.Completed() != 8 {
		t.Fatalf("completed = %d", m.Completed())
	}
	// Released exactly once, 10 s after the final task.
	if released != 1 {
		t.Fatalf("released = %d", released)
	}
	if e.Now() < 45*time.Second {
		t.Fatalf("released too early: %v", e.Now())
	}
}

func TestBusyExecutorAccounting(t *testing.T) {
	e := sim.New(1)
	m := New(e, NoSecurity())
	for i := 0; i < 4; i++ {
		m.AddExecutor(0, nil)
	}
	m.SubmitSleepStream(4, 10*time.Second, 4)
	e.At(5*time.Second, func() {
		if m.BusyExecutors() != 4 {
			t.Errorf("busy = %d at 5s, want 4", m.BusyExecutors())
		}
	})
	e.Run()
	if m.BusyExecutors() != 0 || m.IdleExecutors() != 4 {
		t.Fatalf("end state busy=%d idle=%d", m.BusyExecutors(), m.IdleExecutors())
	}
	for _, x := range m.Executors() {
		if x.BusyFor() != 10*time.Second {
			t.Fatalf("executor %d busyFor = %v", x.ID, x.BusyFor())
		}
	}
}

func TestOverheadHistogramPopulated(t *testing.T) {
	e := sim.New(3)
	p := NoSecurity()
	p.ExecOverhead = 80 * time.Millisecond
	p.ExecOverheadJitter = 40 * time.Millisecond
	p.ExecOverheadCap = 1300 * time.Millisecond
	m := New(e, p)
	for i := 0; i < 16; i++ {
		m.AddExecutor(0, nil)
	}
	m.SubmitSleepStream(2000, 0, 100)
	e.Run()
	h := &m.OverheadHist
	if h.Count() != 2000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if min := h.Quantile(0); min < 80 {
		t.Fatalf("min overhead = %.1f ms, below the base", min)
	}
	if h.Max() > 1300 {
		t.Fatalf("max overhead = %.1f ms, above the cap", h.Max())
	}
	med := h.Quantile(0.5)
	if med < 90 || med > 200 {
		t.Fatalf("median overhead = %.1f ms, want ~80+jitter", med)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, int) {
		e := sim.New(99)
		p := NoSecurity()
		p.ExecOverheadJitter = 20 * time.Millisecond
		m := New(e, p)
		for i := 0; i < 8; i++ {
			m.AddExecutor(0, nil)
		}
		m.SubmitSleepStream(1000, time.Second, 50)
		end := e.Run()
		return end, m.Completed()
	}
	e1, c1 := run()
	e2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", e1, c1, e2, c2)
	}
}
