// Package backoff provides the jittered exponential backoff policy behind
// every redial loop (wsrpc.Session for client, executor and tree root; the
// replication standby's follow loop). Jitter matters here: after a
// dispatcher restart every executor in the deployment notices at once, and
// without it they would all redial on the same schedule (the thundering
// herd the provisioning experiments in §4 are sensitive to).
package backoff

import (
	"math/rand"
	"time"
)

// Policy describes an exponential backoff: attempt n waits Base*2^n,
// capped at Max, with uniform jitter of ±Jitter fraction applied last.
type Policy struct {
	// Base is the first delay (default 50ms).
	Base time.Duration
	// Max caps the uncapped exponential (default 2s).
	Max time.Duration
	// Jitter is the fraction of the delay randomized around it, in [0, 1]
	// (default 0.5: a delay d lands uniformly in [0.5d, 1.5d]).
	Jitter float64
}

// Default is the policy used when a zero Policy is passed around.
var Default = Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}

// Delay returns the wait before retry attempt (0-based).
func (p Policy) Delay(attempt int) time.Duration {
	if p.Base <= 0 {
		p.Base = Default.Base
	}
	if p.Max <= 0 {
		p.Max = Default.Max
	}
	if p.Jitter <= 0 {
		p.Jitter = Default.Jitter
	} else if p.Jitter > 1 {
		p.Jitter = 1
	}
	d := p.Base
	for i := 0; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	// Uniform in [d*(1-j), d*(1+j)].
	span := float64(d) * p.Jitter
	return time.Duration(float64(d) - span + 2*span*rand.Float64())
}

// Schedule is a Policy with its attempt counter attached: Next hands out
// the successive delays of one retry sequence and Reset — called after a
// success — starts the sequence over from Base. Not safe for concurrent
// use; each retry loop owns its own Schedule.
type Schedule struct {
	p       Policy
	attempt int
}

// NewSchedule starts a retry schedule under p (zero Policy means Default).
func NewSchedule(p Policy) *Schedule { return &Schedule{p: p} }

// Next returns the delay before the upcoming retry and advances the
// schedule.
func (s *Schedule) Next() time.Duration {
	d := s.p.Delay(s.attempt)
	s.attempt++
	return d
}

// Reset rewinds the schedule to the first delay. Call it after a success so
// the next failure backs off from Base again instead of the cap.
func (s *Schedule) Reset() { s.attempt = 0 }
