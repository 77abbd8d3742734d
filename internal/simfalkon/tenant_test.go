package simfalkon

import (
	"sort"
	"testing"
	"time"

	"falkon/internal/sched"
	"falkon/internal/sim"
)

// runHostileTenant replays the hostile tenant scenario on the virtual
// clock: a well-behaved victim submits a modest stream while a hostile
// tenant floods the same dispatcher with a much larger backlog. It returns
// the victim's p99 end-to-end latency. fs == nil runs the legacy shared
// FIFO; floodTasks == 0 runs the victim solo (the baseline).
func runHostileTenant(t *testing.T, fs *sched.FairShare, floodTasks int) time.Duration {
	t.Helper()
	e := sim.New(42)
	m := New(e, NoSecurity())
	m.FairShare = fs
	m.KeepRecords = true
	for i := 0; i < 64; i++ {
		m.AddExecutor(0, nil)
	}
	victim := make([]Spec, 1000)
	for i := range victim {
		victim[i] = Spec{Tenant: "victim"}
	}
	m.Submit(victim, 10)
	if floodTasks > 0 {
		flood := make([]Spec, floodTasks)
		for i := range flood {
			flood[i] = Spec{Tenant: "flood"}
		}
		m.Submit(flood, 100)
	}
	e.Run()
	if m.Completed() != len(victim)+floodTasks {
		t.Fatalf("completed %d of %d", m.Completed(), len(victim)+floodTasks)
	}
	var lat []time.Duration
	for _, r := range m.Records {
		if r.Tenant == "victim" {
			lat = append(lat, r.Finished-r.Queued)
		}
	}
	if len(lat) != len(victim) {
		t.Fatalf("victim records = %d, want %d", len(lat), len(victim))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)*99/100]
}

// TestHostileTenantIsolation pins the headline isolation property on the
// deterministic model: with fair-share on, a flooding tenant cannot move a
// well-behaved tenant's p99 beyond 2x its solo value; with fair-share off,
// the shared FIFO lets the flood dominate.
func TestHostileTenantIsolation(t *testing.T) {
	fs := &sched.FairShare{Weights: map[string]float64{"victim": 4, "flood": 1}}
	const flood = 20000
	solo := runHostileTenant(t, fs, 0)
	fairOn := runHostileTenant(t, fs, flood)
	fairOff := runHostileTenant(t, nil, flood)
	t.Logf("victim p99: solo=%v fair-share=%v fifo=%v", solo, fairOn, fairOff)
	if fairOn >= 2*solo {
		t.Fatalf("fair-share victim p99 %v not under 2x solo %v", fairOn, solo)
	}
	if fairOff < 4*solo {
		t.Fatalf("fifo victim p99 %v does not show flood domination (solo %v)", fairOff, solo)
	}
	if fairOn >= fairOff {
		t.Fatalf("fair-share p99 %v not better than fifo %v", fairOn, fairOff)
	}
}

// TestHostileTenantDeterministic: same seed, same inputs, same p99 — the
// fair-share arbiter introduces no ordering nondeterminism.
func TestHostileTenantDeterministic(t *testing.T) {
	fs := &sched.FairShare{Weights: map[string]float64{"victim": 4, "flood": 1}}
	a := runHostileTenant(t, fs, 5000)
	b := runHostileTenant(t, fs, 5000)
	if a != b {
		t.Fatalf("p99 differs across identical runs: %v vs %v", a, b)
	}
}
