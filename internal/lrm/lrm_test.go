package lrm

import (
	"testing"
	"time"

	"falkon/internal/sim"
	"falkon/internal/task"
)

func TestPBSSleepZeroThroughputMatchesTable2(t *testing.T) {
	// The paper's Table 2 experiment: 100 sleep-0 jobs on 64 free nodes
	// completed in ~224 s (0.45 tasks/s) under PBS v2.1.8.
	e := sim.New(1)
	l := New(e, PBS(), 64)
	done := 0
	var last time.Duration
	for i := 0; i < 100; i++ {
		l.Submit(&Job{Nodes: 1, Duration: 0, OnDone: func(*Job) {
			done++
			last = e.Now()
		}})
	}
	e.Run()
	if done != 100 {
		t.Fatalf("done = %d", done)
	}
	rate := 100 / last.Seconds()
	if rate < 0.3 || rate > 0.55 {
		t.Fatalf("PBS rate = %.3f tasks/s, want ~0.45", rate)
	}
}

func TestCondorSleepZeroThroughput(t *testing.T) {
	e := sim.New(1)
	l := New(e, Condor(), 64)
	var last time.Duration
	for i := 0; i < 100; i++ {
		l.Submit(&Job{Nodes: 1, Duration: 0, OnDone: func(*Job) { last = e.Now() }})
	}
	e.Run()
	rate := 100 / last.Seconds()
	if rate < 0.3 || rate > 0.6 {
		t.Fatalf("Condor rate = %.3f tasks/s, want ~0.49", rate)
	}
}

func TestPollLoopDelaysJobStart(t *testing.T) {
	// A job submitted just after a poll boundary waits nearly a full
	// interval.
	e := sim.New(1)
	l := New(e, PBS(), 4)
	var activeAt time.Duration
	e.At(61*time.Second, func() {
		l.Submit(&Job{Nodes: 1, Duration: 10 * time.Second, OnActive: func(j *Job) { activeAt = e.Now() }})
	})
	e.RunUntil(300 * time.Second)
	// Next poll at 120 s, dispatch 2 s, prologue 1 s -> active at ~123 s.
	if activeAt < 120*time.Second || activeAt > 130*time.Second {
		t.Fatalf("activeAt = %v, want ~123s", activeAt)
	}
}

func TestJobQueueTimeAndMeasuredExec(t *testing.T) {
	e := sim.New(1)
	l := New(e, PBS(), 2)
	var j *Job
	j = &Job{Nodes: 1, Duration: 30 * time.Second}
	l.Submit(j)
	e.RunUntil(600 * time.Second)
	if j.State() != JobDone {
		t.Fatalf("state = %v", j.State())
	}
	if j.QueueTime() <= 0 || j.QueueTime() > 65*time.Second {
		t.Fatalf("queue time = %v", j.QueueTime())
	}
	// Measured exec = payload + epilogue (prologue precedes Active).
	if got := j.MeasuredExec(); got != 31*time.Second {
		t.Fatalf("measured exec = %v, want 31s", got)
	}
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	// A 4-node job at the head blocks a 1-node job even when one node is
	// free (no backfill).
	e := sim.New(1)
	l := New(e, PBS(), 4)
	// Occupy 3 nodes with an open-ended job.
	hold := &Job{Nodes: 3, Duration: -1}
	l.Submit(hold)
	var bigActive, smallActive time.Duration
	e.At(time.Second, func() {
		l.Submit(&Job{Nodes: 4, Duration: 0, OnActive: func(*Job) { bigActive = e.Now() }})
		l.Submit(&Job{Nodes: 1, Duration: 0, OnActive: func(*Job) { smallActive = e.Now() }})
	})
	e.At(200*time.Second, func() { l.Cancel(hold) })
	e.RunUntil(500 * time.Second)
	if bigActive == 0 || smallActive == 0 {
		t.Fatalf("jobs never ran: big=%v small=%v", bigActive, smallActive)
	}
	if smallActive < bigActive {
		t.Fatalf("small job (%v) bypassed blocked head (%v)", smallActive, bigActive)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := sim.New(1)
	l := New(e, PBS(), 1)
	ran := false
	j := &Job{Nodes: 1, Duration: 0, OnDone: func(*Job) { ran = true }}
	l.Submit(j)
	l.Cancel(j)
	e.RunUntil(300 * time.Second)
	if ran || j.State() != JobCancelled {
		t.Fatalf("cancelled job ran (state %v)", j.State())
	}
	if l.QueueLen() != 0 {
		t.Fatal("queue not empty after cancel")
	}
}

func TestCancelRunningJobFreesNodes(t *testing.T) {
	e := sim.New(1)
	l := New(e, PBS(), 2)
	hold := &Job{Nodes: 2, Duration: -1}
	l.Submit(hold)
	var activeAt time.Duration
	started := false
	e.At(100*time.Second, func() {
		l.Cancel(hold)
		l.Submit(&Job{Nodes: 2, Duration: 0, OnActive: func(*Job) { started = true; activeAt = e.Now() }})
	})
	e.RunUntil(600 * time.Second)
	if !started {
		t.Fatal("follow-on job never started; nodes not freed")
	}
	if activeAt < 100*time.Second {
		t.Fatalf("activeAt = %v", activeAt)
	}
}

func TestNodeAccountingNeverNegative(t *testing.T) {
	e := sim.New(7)
	l := New(e, PBS(), 8)
	for i := 0; i < 50; i++ {
		nodes := 1 + e.Rand().Intn(4)
		at := time.Duration(e.Rand().Int63n(int64(500 * time.Second)))
		e.At(at, func() {
			l.Submit(&Job{Nodes: nodes, Duration: time.Duration(e.Rand().Int63n(int64(30 * time.Second)))})
		})
	}
	e.Run()
	if l.free != 8 {
		t.Fatalf("free = %d, want all 8 back", l.free)
	}
	if l.Completed() != 50 {
		t.Fatalf("completed = %d", l.Completed())
	}
}

func TestGatewayTaskOverhead(t *testing.T) {
	// Table 3 calibration: a ~17.8 s task shows ~56.5 s of measured
	// execution through GRAM4+PBS.
	e := sim.New(1)
	l := New(e, PBS(), 4)
	g := NewGateway(e, l, GRAM4())
	var out TaskOutcome
	g.SubmitTask(task.Task{ID: 1, Duration: 17820 * time.Millisecond}, func(o TaskOutcome) { out = o })
	e.RunUntil(900 * time.Second)
	if out.DoneAt == 0 {
		t.Fatal("task never completed")
	}
	got := out.ExecTime.Seconds()
	if got < 52 || got > 60 {
		t.Fatalf("measured exec = %.1f s, want ~56.5", got)
	}
}

func TestGatewayAllocation(t *testing.T) {
	e := sim.New(1)
	l := New(e, PBS(), 32)
	g := NewGateway(e, l, GRAM4())
	var readyAt time.Duration
	a := g.Allocate(32, func(*Allocation) { readyAt = e.Now() })
	e.RunUntil(200 * time.Second)
	if readyAt == 0 {
		t.Fatal("allocation never ready")
	}
	// Poll (<=60) + dispatch (2) + prologue (1) + startup (3): 5-66 s — the
	// paper's observed 5-65 s window.
	if readyAt < 5*time.Second || readyAt > 70*time.Second {
		t.Fatalf("readyAt = %v, want within the paper's startup window", readyAt)
	}
	if l.free != 0 {
		t.Fatalf("free = %d during allocation", l.free)
	}
	g.Release(a)
	e.RunUntil(400 * time.Second)
	if l.free != 32 {
		t.Fatalf("free = %d after release", l.free)
	}
	if g.Submitted() != 1 {
		t.Fatalf("submitted = %d", g.Submitted())
	}
}

func TestJobStateString(t *testing.T) {
	want := map[JobState]string{JobQueued: "queued", JobRunning: "running", JobDone: "done", JobCancelled: "cancelled"}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d = %q", s, s.String())
		}
	}
	if JobState(9).String() != "jobstate(9)" {
		t.Fatal("unknown state name")
	}
}

func TestBackfillUnblocksSmallJobs(t *testing.T) {
	prof := PBS()
	prof.Backfill = true
	e := sim.New(1)
	l := New(e, prof, 4)
	hold := &Job{Nodes: 3, Duration: -1}
	l.Submit(hold)
	var bigActive, smallActive time.Duration
	e.At(time.Second, func() {
		l.Submit(&Job{Nodes: 4, Duration: 0, OnActive: func(*Job) { bigActive = e.Now() }})
		l.Submit(&Job{Nodes: 1, Duration: 0, OnActive: func(*Job) { smallActive = e.Now() }})
	})
	e.At(300*time.Second, func() { l.Cancel(hold) })
	e.RunUntil(800 * time.Second)
	if smallActive == 0 || bigActive == 0 {
		t.Fatalf("jobs never ran: big=%v small=%v", bigActive, smallActive)
	}
	// With backfill the 1-node job jumps the blocked 4-node head.
	if smallActive >= bigActive {
		t.Fatalf("backfill did not let the small job (%v) bypass the blocked head (%v)", smallActive, bigActive)
	}
}

func TestBackfillStillPrefersHead(t *testing.T) {
	prof := PBS()
	prof.Backfill = true
	e := sim.New(1)
	l := New(e, prof, 4)
	var first time.Duration
	var order []int
	l.Submit(&Job{Nodes: 2, Duration: 0, OnActive: func(*Job) { order = append(order, 1); first = e.Now() }})
	l.Submit(&Job{Nodes: 1, Duration: 0, OnActive: func(*Job) { order = append(order, 2) }})
	e.RunUntil(600 * time.Second)
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("order = %v, want head first when it fits", order)
	}
	_ = first
}
