package simfalkon

import (
	"fmt"
	"testing"
	"time"

	"falkon/internal/sched"
	"falkon/internal/sim"
)

func TestNoPiggybackForcesColdPath(t *testing.T) {
	run := func(noPiggy bool) float64 {
		e := sim.New(4)
		p := NoSecurity()
		p.NoPiggyback = noPiggy
		m := New(e, p)
		for i := 0; i < 32; i++ {
			m.AddExecutor(0, nil)
		}
		m.PreloadQueue(4000, 0)
		end := e.Run()
		if m.Completed() != 4000 {
			t.Fatalf("completed %d", m.Completed())
		}
		return 4000 / end.Seconds()
	}
	with := run(false)
	without := run(true)
	// Piggy-backing collapses notify+getwork+deliver into one deliver:
	// roughly (2.05+4.9+2.05)/2.05 = 4.4x.
	ratio := with / without
	if ratio < 3 || ratio > 6 {
		t.Fatalf("piggyback ratio = %.1fx (%.0f vs %.0f), want ~4.4x", ratio, with, without)
	}
}

func TestPurePullServesWorkWithoutNotifications(t *testing.T) {
	e := sim.New(5)
	p := NoSecurity()
	p.PurePullInterval = 2 * time.Second
	m := New(e, p)
	done := false
	m.OnTaskDone = func(Rec) {
		if m.Completed() == 50 {
			done = true
			m.StopPolling()
		}
	}
	for i := 0; i < 8; i++ {
		m.AddExecutor(0, nil)
	}
	m.PreloadQueue(50, time.Second)
	e.Run()
	if !done {
		t.Fatalf("completed %d of 50", m.Completed())
	}
	if m.Polls() == 0 {
		t.Fatal("no polls recorded in pure-pull mode")
	}
}

func TestPurePullLatencyBoundedByInterval(t *testing.T) {
	e := sim.New(5)
	p := NoSecurity()
	p.PurePullInterval = 10 * time.Second
	m := New(e, p)
	m.KeepRecords = true
	m.OnTaskDone = func(Rec) {
		if m.Completed() == 1 {
			m.StopPolling()
		}
	}
	m.AddExecutor(0, nil)
	// Task arrives just after a poll: waits nearly a full interval.
	e.At(time.Second, func() { m.PreloadQueue(1, 0) })
	e.Run()
	if len(m.Records) != 1 {
		t.Fatal("task never ran")
	}
	wait := m.Records[0].Dispatched - m.Records[0].Queued
	if wait < 5*time.Second || wait > 11*time.Second {
		t.Fatalf("pure-pull wait = %v, want close to the 10s interval", wait)
	}
}

func TestDataAwareCacheHitsSkipStaging(t *testing.T) {
	// The next-available arm is the same workload with no dataset named.
	run := func(aware bool) (time.Duration, int, int) {
		e := sim.New(8)
		m := New(e, NoSecurity())
		for i := 0; i < 4; i++ {
			m.AddExecutor(0, nil)
		}
		specs := make([]Spec, 64)
		for i := range specs {
			specs[i] = Spec{Dur: 50 * time.Millisecond, StageIn: time.Second}
			if aware {
				specs[i].Dataset = fmt.Sprintf("d%d", i%4)
			}
		}
		m.Submit(specs, 64)
		end := e.Run()
		h, ms := m.CacheStats()
		return end, h, ms
	}
	naEnd, naHits, _ := run(false)
	daEnd, daHits, daMiss := run(true)
	if naHits != 0 {
		t.Fatalf("next-available recorded %d hits", naHits)
	}
	if daHits == 0 {
		t.Fatal("data-aware recorded no hits")
	}
	if daMiss+daHits != 64 {
		t.Fatalf("hits %d + misses %d != 64", daHits, daMiss)
	}
	if daEnd >= naEnd {
		t.Fatalf("data-aware (%v) not faster than FIFO (%v)", daEnd, naEnd)
	}
}

func TestDataAwareCacheEviction(t *testing.T) {
	// An executor's record in the shared scheduling core carries a
	// capacity-bounded LRU dataset cache.
	e := sim.New(1)
	m := New(e, NoSecurity())
	x := m.AddExecutor(0, nil)
	if x.sx.Cache != nil {
		t.Fatal("an executor that has run nothing has a dataset cache")
	}
	x.sx.Cache = sched.NewDatasetCache(4)
	for i := 0; i < 10; i++ {
		x.sx.Cache.Touch(fmt.Sprintf("d%d", i))
	}
	if x.sx.Cache.Len() != 4 {
		t.Fatalf("cache size = %d, want capacity 4", x.sx.Cache.Len())
	}
	if !x.sx.Cache.Has("d9") || x.sx.Cache.Has("d0") {
		t.Fatal("LRU eviction wrong")
	}
	// Touching an entry refreshes it.
	x.sx.Cache.Touch("d6")
	x.sx.Cache.Touch("dZ") // evicts d7 (oldest untouched)
	if !x.sx.Cache.Has("d6") {
		t.Fatal("refreshed entry evicted")
	}
}

func TestSubmittedEqualsCompletedInvariant(t *testing.T) {
	// Conservation across every mode combination, with tasks that name no
	// dataset and with tasks placed by locality.
	modes := []func(p *Profile){
		func(p *Profile) {},
		func(p *Profile) { p.NoPiggyback = true },
	}
	for i, mode := range modes {
		for _, named := range []bool{false, true} {
			e := sim.New(int64(10 + i))
			p := NoSecurity()
			mode(&p)
			m := New(e, p)
			for j := 0; j < 8; j++ {
				m.AddExecutor(0, nil)
			}
			specs := make([]Spec, 500)
			for k := range specs {
				specs[k] = Spec{Dur: time.Duration(k%5) * 100 * time.Millisecond}
				if named {
					specs[k].Dataset = fmt.Sprintf("d%d", k%7)
				}
			}
			m.Submit(specs, 50)
			e.Run()
			if m.Submitted() != 500 || m.Completed() != 500 {
				t.Fatalf("mode %d (datasets named: %v): submitted %d completed %d", i, named, m.Submitted(), m.Completed())
			}
		}
	}
}

func TestFailureInjectionRetriesToCompletion(t *testing.T) {
	e := sim.New(17)
	p := NoSecurity()
	p.FailureProb = 0.2
	p.MaxRetries = 10
	m := New(e, p)
	m.KeepRecords = true
	for i := 0; i < 8; i++ {
		m.AddExecutor(0, nil)
	}
	m.PreloadQueue(500, 100*time.Millisecond)
	e.Run()
	if m.Completed() != 500 {
		t.Fatalf("completed %d", m.Completed())
	}
	if m.Failed() != 0 {
		t.Fatalf("failed %d with generous retries", m.Failed())
	}
	if m.Retried() == 0 {
		t.Fatal("no retries at 20% failure rate")
	}
	// Some records must show multiple attempts.
	multi := 0
	for _, r := range m.Records {
		if r.Attempts > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-attempt records")
	}
}

func TestFailureInjectionRetriesExhausted(t *testing.T) {
	e := sim.New(18)
	p := NoSecurity()
	p.FailureProb = 1.0 // every execution fails
	p.MaxRetries = 2
	m := New(e, p)
	m.KeepRecords = true
	for i := 0; i < 4; i++ {
		m.AddExecutor(0, nil)
	}
	m.PreloadQueue(20, 0)
	e.Run()
	if m.Completed() != 20 {
		t.Fatalf("completed %d", m.Completed())
	}
	if m.Failed() != 20 {
		t.Fatalf("failed = %d, want all 20", m.Failed())
	}
	for _, r := range m.Records {
		if !r.Failed || r.Attempts != 3 {
			t.Fatalf("record = %+v, want failed after 3 attempts", r)
		}
	}
	// Each task retried MaxRetries times.
	if m.Retried() != 40 {
		t.Fatalf("retried = %d, want 40", m.Retried())
	}
}
