package backoff

import (
	"testing"
	"time"
)

// TestDelayJitterBounds asserts every sampled delay stays inside the
// documented envelope: attempt n's delay d = min(Base*2^n, Max) jittered
// uniformly into [d*(1-J), d*(1+J)], so no delay ever drops below
// Base*(1-J) or exceeds Max*(1+J).
func TestDelayJitterBounds(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond, Jitter: 0.5}
	floor := time.Duration(float64(p.Base) * (1 - p.Jitter))
	ceil := time.Duration(float64(p.Max) * (1 + p.Jitter))
	for attempt := 0; attempt < 12; attempt++ {
		exp := p.Base << uint(attempt)
		if exp > p.Max || exp <= 0 {
			exp = p.Max
		}
		lo := time.Duration(float64(exp) * (1 - p.Jitter))
		hi := time.Duration(float64(exp) * (1 + p.Jitter))
		for i := 0; i < 200; i++ {
			d := p.Delay(attempt)
			if d < lo || d > hi {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
			}
			if d < floor || d > ceil {
				t.Fatalf("attempt %d: delay %v outside global bounds [%v, %v]", attempt, d, floor, ceil)
			}
		}
	}
}

// TestDelayCaps asserts large attempts saturate at Max (pre-jitter): the
// exponential must not overflow past the cap.
func TestDelayCaps(t *testing.T) {
	p := Policy{Base: time.Millisecond, Max: 8 * time.Millisecond, Jitter: 0.25}
	hi := time.Duration(float64(p.Max) * (1 + p.Jitter))
	for _, attempt := range []int{10, 31, 63, 1000} {
		for i := 0; i < 100; i++ {
			if d := p.Delay(attempt); d > hi {
				t.Fatalf("attempt %d: delay %v exceeds cap envelope %v", attempt, d, hi)
			}
		}
	}
}

// TestZeroPolicyDefaults asserts a zero Policy behaves as Default rather
// than producing zero delays (a zero delay would turn a redial loop into a
// busy spin).
func TestZeroPolicyDefaults(t *testing.T) {
	var p Policy
	lo := time.Duration(float64(Default.Base) * (1 - Default.Jitter))
	for i := 0; i < 100; i++ {
		if d := p.Delay(0); d < lo {
			t.Fatalf("zero policy delay %v below default floor %v", d, lo)
		}
	}
}

// TestScheduleResetAfterSuccess asserts Reset rewinds the schedule: after a
// run of failures has pushed the delay to the cap, a success (Reset) makes
// the next delay come from the base tier again.
func TestScheduleResetAfterSuccess(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 640 * time.Millisecond, Jitter: 0.1}
	s := NewSchedule(p)
	for i := 0; i < 10; i++ {
		s.Next()
	}
	// At attempt >= 7 the pre-jitter delay is the 640ms cap; verify we got
	// there so Reset has something to rewind.
	if d := s.Next(); d < time.Duration(float64(p.Max)*(1-p.Jitter)) {
		t.Fatalf("delay %v not at cap tier before reset", d)
	}
	hiBase := time.Duration(float64(p.Base) * (1 + p.Jitter))
	for i := 0; i < 100; i++ {
		s.Reset()
		if d := s.Next(); d > hiBase {
			t.Fatalf("post-reset delay %v exceeds base envelope %v", d, hiBase)
		}
	}
}

// TestScheduleProgression asserts successive Next calls walk the same tiers
// Policy.Delay defines for successive attempts.
func TestScheduleProgression(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Jitter: 0.1}
	s := NewSchedule(p)
	for attempt := 0; attempt < 6; attempt++ {
		exp := p.Base << uint(attempt)
		if exp > p.Max {
			exp = p.Max
		}
		lo := time.Duration(float64(exp) * (1 - p.Jitter))
		hi := time.Duration(float64(exp) * (1 + p.Jitter))
		if d := s.Next(); d < lo || d > hi {
			t.Fatalf("schedule attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
}
