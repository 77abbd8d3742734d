package executor

import (
	"testing"
	"time"

	"falkon/internal/sched"
)

// sizerBlock is half the sizer's window, in results.
const sizerBlock = 128

// The executor's half of dispatch-ahead (sched.PullSizer, a slot's sizer), as
// counts: what a slot asks for after a given history of results, at a 50 µs
// pull round trip.
func TestPullSizer(t *testing.T) {
	const rtt = 50 * time.Microsecond
	sleep0 := func(p *sched.PullSizer, n int) {
		for i := 0; i < n; i++ {
			p.Observe(100*time.Nanosecond, 0)
		}
	}

	var p sched.PullSizer
	if got := p.Ask(maxPull); got != 1 {
		t.Fatalf("nothing observed: ask %d, want 1", got)
	}
	p.RTT = rtt
	if got := p.Ask(maxPull); got != 1 {
		t.Fatalf("a round trip but no result observed: ask %d, want 1", got)
	}
	p.Observe(50*time.Millisecond, 0)
	if got := p.Ask(maxPull); got != 1 {
		t.Fatalf("the only result seen took 50 ms: ask %d, want 1", got)
	}
	sleep0(&p, 255)
	if got := p.Ask(maxPull); got != maxPull {
		t.Fatalf("after 255 sleep-0 results and one that stalled: ask %d, want the cap %d", got, maxPull)
	}
	if got := p.Ask(1); got != 1 {
		t.Fatalf("Prefetch 1: ask %d, want per-task dispatch", got)
	}

	// One slow reading in a block is the host's; two are the workload's.
	p.Observe(50*time.Millisecond, 0)
	if got := p.Ask(maxPull); got != maxPull {
		t.Fatalf("one 50 ms result in the window: ask %d, want %d still", got, maxPull)
	}
	p.Observe(50*time.Millisecond, 0)
	if got := p.Ask(maxPull); got != 1 {
		t.Fatalf("two 50 ms results in one block: ask %d, want 1", got)
	}
	sleep0(&p, sizerBlock)
	if got := p.Ask(maxPull); got != 1 {
		t.Fatalf("the 50 ms results are %d results old: ask %d, want 1 still", sizerBlock, got)
	}
	sleep0(&p, sizerBlock)
	if got := p.Ask(maxPull); got != maxPull {
		t.Fatalf("the 50 ms results left the window: ask %d, want %d", got, maxPull)
	}

	p.Observe(100*time.Nanosecond, 32<<10)
	if got := p.Ask(maxPull); got < 1 || got > 2 {
		t.Fatalf("one 32 KiB result in the window: ask %d, want 1 or 2", got)
	}
}

// The rule itself, read through a sizer that has seen one round trip and one
// result (run 0: none).
func TestPullSize(t *testing.T) {
	const us = time.Microsecond
	rows := []struct {
		rtt, run   time.Duration
		out, limit int
		want       int
	}{
		{0, us, 0, 64, 1},             // no round trip yet
		{50 * us, 0, 0, 64, 1},        // no result yet
		{50 * us, 100 * us, 0, 64, 1}, // tasks longer than the round trip
		{50 * us, 50 * us, 0, 64, 2},
		{50 * us, 20 * us, 0, 64, 3},
		{50 * us, 1, 0, 64, 64},
		{time.Hour, 1, 0, 64, 64}, // the quotient overflows an int32, not the rule
		{50 * us, 1, 0, 8, 8},
		{50 * us, 1, 1 << 10, 64, 64},
		{50 * us, 1, 4 << 10, 64, 16},
		{50 * us, 1, 64 << 10, 64, 1},
		{50 * us, 1, 128 << 10, 64, 1}, // one result over the budget still goes
	}
	for _, r := range rows {
		p := sched.PullSizer{RTT: r.rtt}
		if r.run > 0 {
			p.Observe(r.run, r.out)
		}
		if got := p.Ask(r.limit); got != r.want {
			t.Errorf("pullSize(rtt %v, run %v, out %d, limit %d) = %d, want %d", r.rtt, r.run, r.out, r.limit, got, r.want)
		}
	}
}
