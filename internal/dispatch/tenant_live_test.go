package dispatch_test

import (
	"strings"
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
// end: two tenants share a dispatcher (so fair-share is on), the
// rate-limited tenant gets throttled with retry-after replies the client
// honors, both workloads complete exactly-once, and the per-tenant stats rows
// and labeled histograms reflect the split.
func TestLiveTenantAdmissionAndStats(t *testing.T) {
	dopts := dispatch.Options{
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

// runOrder queues nFlood tasks from tenant "flood", then nVictim from
// "victim", on a dispatcher declaring tenants, and only then starts one
// 1-slot executor, so the dispatcher alone decides who runs when. It returns
// the tenant of each task executed, in execution order, once the victim's
// last task has run.
func runOrder(t *testing.T, tenants []dispatch.TenantSpec, nFlood, nVictim int) []string {
	var mu sync.Mutex
	var order []string
	record := func(tk task.Task) (string, int, error) {
		mu.Lock()
		order = append(order, tk.Args[0])
		mu.Unlock()
		return "", 0, nil
	}
	d, flood, _ := startSystem(t, dispatch.Options{Tenants: tenants}, client.Options{Tenant: "flood", BundleSize: 100}, 0, executor.Options{})
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
	// Submit returns once the dispatcher has accepted every bundle, so the
	// whole flood is queued ahead of the victim's first task.
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
	return append([]string(nil), order...)
}

// TestLiveHostileTenantOrder is the hostile-tenant isolation property as an
// execution order, not a latency: a flood tenant (weight 1) queues 2,000
// tasks, then a victim (weight 4) queues 40. With the two declared, start-time
// fair queuing serves them 4:1 — the victim's 40th task is due after about 10
// of the flood's, position ~50 — and with no tenant declared the shared FIFO
// runs the whole flood first: the negative control that fails if declaring
// tenants ever stops turning fair share on.
func TestLiveHostileTenantOrder(t *testing.T) {
	const nFlood, nVictim, bound = 2000, 40, 60
	// victimSpan returns the 1-based execution positions of the victim's
	// first and last task.
	victimSpan := func(t *testing.T, tenants []dispatch.TenantSpec) (first, last int) {
		var pos []int
		for i, tenant := range runOrder(t, tenants, nFlood, nVictim) {
			if tenant == "victim" {
				pos = append(pos, i+1)
			}
		}
		if len(pos) != nVictim {
			t.Fatalf("%d victim tasks executed, want %d", len(pos), nVictim)
		}
		first, last = pos[0], pos[nVictim-1]
		t.Logf("tenants %v: victim tasks ran at positions %d..%d of %d", tenants, first, last, nFlood+nVictim)
		return first, last
	}
	t.Run("fair-share", func(t *testing.T) {
		tenants := []dispatch.TenantSpec{{Name: "victim", Weight: 4}, {Name: "flood", Weight: 1}}
		if _, last := victimSpan(t, tenants); last > bound {
			t.Fatalf("last victim task ran at position %d, want within the first %d", last, bound)
		}
	})
	t.Run("fifo", func(t *testing.T) {
		if first, _ := victimSpan(t, nil); first <= nFlood {
			t.Fatalf("first victim task ran at position %d with no tenant declared, want behind the flood's %d", first, nFlood)
		}
	})
}

// TestLiveTenantKeysAct: every key a tenant spec takes changes what the real
// dispatcher does. Each row boots it twice, with the row's specs as written
// and with its key struck from them, and the outcome must be larger with the
// key: quota, rate and burst throttle the tenant's client (retry-after
// replies, counted at the client); weight brings a victim's tasks ahead of a
// flood's in execution order. A key the parser takes without a row here
// fails the test, so a key that the live path ignores has nowhere to hide.
func TestLiveTenantKeysAct(t *testing.T) {
	// throttled has a client of tenant "t" submit n tasks that each run for
	// run, in bundles of bundle, to one executor, and returns the bundles it
	// was told to retry.
	throttled := func(n, bundle int, run time.Duration) func(*testing.T, []dispatch.TenantSpec) int64 {
		return func(t *testing.T, tenants []dispatch.TenantSpec) int64 {
			_, c, _ := startSystem(t, dispatch.Options{Tenants: tenants}, client.Options{Tenant: "t", BundleSize: bundle}, 1, executor.Options{SleepScale: 1})
			var gen task.IDGen
			if err := c.Submit(task.Batch(&gen, n, run)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.WaitN(n, 30*time.Second); err != nil {
				t.Fatal(err)
			}
			return c.Throttled()
		}
	}
	rows := map[string]struct {
		specs   []string
		outcome func(*testing.T, []dispatch.TenantSpec) int64
	}{
		// The second bundle finds the first still running.
		"quota": {[]string{"t:quota=4"}, throttled(8, 4, 20*time.Millisecond)},
		// Two bundles empty the bucket (one second deep); the third waits
		// half a second for its tokens.
		"rate": {[]string{"t:rate=100"}, throttled(150, 50, 0)},
		// The same rate, but a bucket one bundle deep: each bundle after the
		// first waits 100 ms.
		"burst": {[]string{"t:rate=100,burst=10"}, throttled(50, 10, 0)},
		// Victim tasks among the first 20 run: 16 at 4:1, 10 at 1:1.
		"weight": {[]string{"flood", "victim:weight=4"}, func(t *testing.T, tenants []dispatch.TenantSpec) (n int64) {
			for _, tenant := range runOrder(t, tenants, 100, 20)[:20] {
				if tenant == "victim" {
					n++
				}
			}
			return n
		}},
	}
	for _, key := range dispatch.TenantKeys() {
		row, ok := rows[key]
		if !ok {
			t.Errorf("tenant key %q has no row: show it acts on the live path", key)
			continue
		}
		delete(rows, key)
		t.Run(key, func(t *testing.T) {
			boot := func(specs []string) int64 {
				tenants, err := dispatch.ParseTenantSpecs(specs)
				if err != nil {
					t.Fatal(err)
				}
				return row.outcome(t, tenants)
			}
			var without []string
			for _, spec := range row.specs {
				name, opts, _ := strings.Cut(spec, ":")
				var kept []string
				for _, opt := range strings.Split(opts, ",") {
					if opt != "" && !strings.HasPrefix(opt, key+"=") {
						kept = append(kept, opt)
					}
				}
				without = append(without, strings.TrimSuffix(name+":"+strings.Join(kept, ","), ":"))
			}
			with, base := boot(row.specs), boot(without)
			t.Logf("%v: %d; %v: %d", row.specs, with, without, base)
			if with <= base {
				t.Fatalf("%v gave %d, no more than %v's %d: %s does nothing", row.specs, with, without, base, key)
			}
		})
	}
	for key := range rows {
		t.Errorf("row %q is for a key the parser does not take", key)
	}
}

// TestLiveTenantRowReportsQueueAndWeight: a tenant's stats row says what the
// dispatcher holds for it and serves it at — its tasks queued (here all of
// them: no executor), and weight 1 for a spec built in code without one.
func TestLiveTenantRowReportsQueueAndWeight(t *testing.T) {
	dopts := dispatch.Options{Tenants: []dispatch.TenantSpec{{Name: "a"}}}
	d, c, _ := startSystem(t, dopts, client.Options{Tenant: "a", BundleSize: 5}, 0, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Queued != st.Queued || st.Tenants[0].Weight != 1 {
		t.Fatalf("dispatcher queues %d; tenant rows %+v, want one for a with Queued %d and Weight 1", st.Queued, st.Tenants, st.Queued)
	}
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
