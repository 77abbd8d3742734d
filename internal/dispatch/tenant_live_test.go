package dispatch_test

import (
	"sync"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// TestLiveTenantAdmissionAndStats runs the multi-tenant front door end to
// end: two tenants share a dispatcher with fair-share on, the rate-limited
// tenant gets throttled with retry-after replies the client honors, both
// workloads complete exactly-once, and the per-tenant stats rows and
// labeled histograms reflect the split.
func TestLiveTenantAdmissionAndStats(t *testing.T) {
	dopts := dispatch.Options{
		FairShare: true,
		Tenants: []dispatch.TenantSpec{
			{Name: "fast", Weight: 4},
			{Name: "slow", Weight: 1, Rate: 500, Burst: 10},
		},
	}
	d, ca, _ := startSystem(t, dopts, client.Options{Tenant: "fast", BundleSize: 10}, 2, executor.Options{})
	cb, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), Tenant: "slow", BundleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	var ga, gb task.IDGen
	if err := ca.Submit(task.Batch(&ga, 40, 0)); err != nil {
		t.Fatal(err)
	}
	// 40 tasks against burst 10 at 500/s: at least one bundle must see a
	// retry-after, and the client's backoff must make all 40 land anyway.
	if err := cb.Submit(task.Batch(&gb, 40, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.WaitN(40, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.WaitN(40, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if cb.Throttled() == 0 {
		t.Fatal("rate-limited tenant was never throttled")
	}

	st := d.Stats()
	rows := map[string]int64{}
	var slowThrottled int64
	for _, ts := range st.Tenants {
		rows[ts.Name] = ts.Completed
		if ts.Name == "slow" {
			slowThrottled = ts.Throttled
		}
		if ts.InFlight != 0 {
			t.Fatalf("tenant %s still shows %d in flight after drain", ts.Name, ts.InFlight)
		}
	}
	if rows["fast"] != 40 || rows["slow"] != 40 {
		t.Fatalf("per-tenant completed = %v, want 40/40", rows)
	}
	if slowThrottled == 0 {
		t.Fatal("dispatcher stats show no throttles for the rate-limited tenant")
	}

	// Per-tenant labeled histograms partition the aggregate e2e series.
	ms := d.MetricsSnapshot()
	fastE2E := ms.Histograms[obs.TenantKey(obs.MetricE2ESeconds, "fast")]
	slowE2E := ms.Histograms[obs.TenantKey(obs.MetricE2ESeconds, "slow")]
	if fastE2E.Count != 40 || slowE2E.Count != 40 {
		t.Fatalf("per-tenant e2e counts = %d/%d, want 40/40", fastE2E.Count, slowE2E.Count)
	}
	if thr := ms.Counters[obs.TenantKey(obs.MetricTenantThrottled, "slow")]; thr == 0 {
		t.Fatal("throttle counter metric not recorded")
	}
}

// TestLiveHostileTenantOrder is the hostile-tenant isolation property as an
// execution order, not a latency: a flood tenant (weight 1) queues 2,000
// tasks, then a victim (weight 4) queues 40, and only then does the one
// 1-slot executor start, so the dispatcher alone decides who runs when.
// With fair-share on, start-time fair queuing serves the tenants 4:1 — the
// victim's 40th task is due after about 10 of the flood's, position ~50 —
// and with it off the shared FIFO runs the whole flood first: the negative
// control that fails if Options.FairShare is ever ignored.
func TestLiveHostileTenantOrder(t *testing.T) {
	const nFlood, nVictim, bound = 2000, 40, 60
	// victimSpan returns the 1-based execution positions of the victim's
	// first and last task.
	victimSpan := func(t *testing.T, fair bool) (first, last int) {
		var mu sync.Mutex
		var order []string // tenant of each executed task, in execution order
		record := func(tk task.Task) (string, int, error) {
			mu.Lock()
			order = append(order, tk.Args[0])
			mu.Unlock()
			return "", 0, nil
		}
		dopts := dispatch.Options{
			FairShare: fair,
			Tenants:   []dispatch.TenantSpec{{Name: "victim", Weight: 4}, {Name: "flood", Weight: 1}},
		}
		d, flood, _ := startSystem(t, dopts, client.Options{Tenant: "flood", BundleSize: 100}, 0, executor.Options{})
		victim, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), Tenant: "victim", BundleSize: 100})
		if err != nil {
			t.Fatal(err)
		}
		defer victim.Close()
		batch := func(tenant string, n int) []task.Task {
			out := make([]task.Task, n)
			for i := range out {
				out[i] = task.Task{ID: task.ID(i + 1), Engine: task.EngineFunc, Command: "record", Args: []string{tenant}}
			}
			return out
		}
		// Submit returns once the dispatcher has accepted every bundle, so
		// the whole flood is queued ahead of the victim's first task.
		if err := flood.Submit(batch("flood", nFlood)); err != nil {
			t.Fatal(err)
		}
		if err := victim.Submit(batch("victim", nVictim)); err != nil {
			t.Fatal(err)
		}
		if q := d.Stats().Queued; q != nFlood+nVictim {
			t.Fatalf("queued = %d before the executor starts, want %d", q, nFlood+nVictim)
		}
		ex, err := executor.Start(executor.Options{
			ID: "lone", DispatcherAddr: d.Addr(), Funcs: map[string]executor.Func{"record": record},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Stop()
		if _, err := victim.WaitN(nVictim, time.Minute); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		var pos []int
		for i, tenant := range order {
			if tenant == "victim" {
				pos = append(pos, i+1)
			}
		}
		if len(pos) != nVictim {
			t.Fatalf("%d victim tasks executed, want %d", len(pos), nVictim)
		}
		first, last = pos[0], pos[nVictim-1]
		t.Logf("fair-share=%v: victim tasks ran at positions %d..%d of %d", fair, first, last, nFlood+nVictim)
		return first, last
	}
	t.Run("fair-share", func(t *testing.T) {
		if _, last := victimSpan(t, true); last > bound {
			t.Fatalf("last victim task ran at position %d, want within the first %d", last, bound)
		}
	})
	t.Run("fifo", func(t *testing.T) {
		if first, _ := victimSpan(t, false); first <= nFlood {
			t.Fatalf("first victim task ran at position %d with fair-share off, want behind the flood's %d", first, nFlood)
		}
	})
}

// TestLiveTenantQuotaBackpressure: a tenant capped at a small in-flight
// quota can still push a larger workload through — the client stalls on
// retry-after hints while results open headroom, and every task completes.
// The executors arrive once the client has been throttled: instant tasks
// handed over in the work push can finish before the next bundle of 4 is
// submitted, and whether the quota ever fills would be a matter of timing.
func TestLiveTenantQuotaBackpressure(t *testing.T) {
	dopts := dispatch.Options{
		Tenants: []dispatch.TenantSpec{{Name: "capped", Quota: 8}},
	}
	d, c, _ := startSystem(t, dopts, client.Options{Tenant: "capped", BundleSize: 4}, 0, executor.Options{})
	var gen task.IDGen
	submitted := make(chan error, 1)
	go func() { submitted <- c.Submit(task.Batch(&gen, 64, 0)) }()
	waitFor(t, "the third bundle is throttled", func() bool { return c.Throttled() > 0 })
	if st := d.Stats(); st.Queued != 8 {
		t.Fatalf("%d tasks queued behind a quota of 8", st.Queued)
	}
	for _, id := range []string{"exec-0", "exec-1"} {
		ex, err := executor.Start(executor.Options{ID: id, DispatcherAddr: d.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Stop()
	}
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(64, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestLiveDefaultTenantInvisible: without tenant configuration the
// dispatcher runs exactly as before — no tenant stats rows, no labeled
// histograms, no admission checks.
func TestLiveDefaultTenantInvisible(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{}, client.Options{}, 1, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Tenants != nil {
		t.Fatalf("single-tenant dispatcher produced tenant rows: %+v", st.Tenants)
	}
	ms := d.MetricsSnapshot()
	if _, ok := ms.Histograms[obs.TenantKey(obs.MetricE2ESeconds, "default")]; ok {
		t.Fatal("labeled tenant histogram recorded without tenancy configured")
	}
}
