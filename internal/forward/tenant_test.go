package forward_test

import (
	"fmt"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/task"
)

// startTenantTier brings up nDisp leaf dispatchers sharing one tenant
// config, each with nExec executors, behind a forwarder root.
func startTenantTier(t *testing.T, nDisp, nExec int, tenants []dispatch.TenantSpec) (*forward.Forwarder, []*dispatch.Dispatcher) {
	t.Helper()
	var addrs []string
	var dispatchers []*dispatch.Dispatcher
	for i := 0; i < nDisp; i++ {
		d := dispatch.New(dispatch.Options{Logf: t.Logf, Tenants: tenants, FairShare: true})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		for j := 0; j < nExec; j++ {
			ex, err := executor.Start(executor.Options{
				ID:             fmt.Sprintf("td%d-e%d", i, j),
				DispatcherAddr: d.Addr(),
				SleepScale:     0.001,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ex.Stop)
		}
		addrs = append(addrs, d.Addr())
		dispatchers = append(dispatchers, d)
	}
	f, err := forward.New(forward.Options{Dispatchers: addrs, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, dispatchers
}

// TestForwarderTenantPassthrough pins tenant identity through the tree: a
// tenant-scoped client submits via the root, the leaves attribute the work
// to that tenant, and the root's aggregated stats carry the merged rows.
func TestForwarderTenantPassthrough(t *testing.T) {
	tenants := []dispatch.TenantSpec{{Name: "acme", Weight: 2}}
	f, dispatchers := startTenantTier(t, 2, 1, tenants)
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), Tenant: "acme", BundleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 60, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(60, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	leafTotal := int64(0)
	for _, d := range dispatchers {
		for _, ts := range d.Stats().Tenants {
			if ts.Name == "acme" {
				leafTotal += ts.Completed
			}
		}
	}
	if leafTotal != 60 {
		t.Fatalf("leaves attribute %d completions to acme, want 60", leafTotal)
	}

	st := f.Stats()
	found := false
	for _, ts := range st.Tenants {
		if ts.Name == "acme" {
			found = true
			if ts.Completed != 60 {
				t.Fatalf("root aggregates %d acme completions, want 60", ts.Completed)
			}
		}
	}
	if !found {
		t.Fatalf("root stats carry no acme row: %+v", st.Tenants)
	}
}

// TestForwarderHonorsLeafRetryAfter: when every leaf throttles the tenant,
// the root backs off on the retry-after hint instead of failing the bundle,
// and the whole workload still lands exactly once.
func TestForwarderHonorsLeafRetryAfter(t *testing.T) {
	tenants := []dispatch.TenantSpec{{Name: "metered", Rate: 400, Burst: 8}}
	f, dispatchers := startTenantTier(t, 2, 1, tenants)
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), Tenant: "metered", BundleSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	// Mega-bundles re-chunk at the root; against burst 8 at 400/s the
	// first chunk per leaf admits by overdrawing the bucket, and every
	// later chunk must ride a retry-after wait until the debt drains.
	if err := c.Submit(task.Batch(&gen, 256, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(256, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if r.Failed() {
			t.Fatalf("task failed under throttling: %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate result %v", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != 256 {
		t.Fatalf("unique results = %d, want 256", len(seen))
	}
	throttled := int64(0)
	for _, d := range dispatchers {
		for _, ts := range d.Stats().Tenants {
			throttled += ts.Throttled
		}
	}
	if throttled == 0 {
		t.Fatal("no leaf ever throttled the metered tenant")
	}
}

// A run of tasks a leaf's admission control defers waits its turn at the link
// without anybody waiting on it: another tenant's submit, arriving while the
// deferral lasts, is acknowledged, stocked and answered before it ends.
func TestDeferredTenantDoesNotStallAnother(t *testing.T) {
	// Bucket of 1 at 10/s: the first run of 8 (the root's bundle) overdraws
	// it by 7, so the second is deferred for 800 ms.
	d := startLeaf(t, "127.0.0.1:0", dispatch.Options{Tenants: []dispatch.TenantSpec{{Name: "metered", Rate: 10, Burst: 1}}})
	startExec(t, executor.Options{ID: "sixteen-slots", DispatcherAddr: d.Addr(), Slots: 16})
	f, metered := startRoot(t, client.Options{Tenant: "metered", BundleSize: 16}, d)
	other, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), Tenant: "other"})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	var gen task.IDGen
	go metered.Submit(task.Batch(&gen, 16, 0))
	throttled := func() (n int64) {
		for _, ts := range d.Stats().Tenants {
			n += ts.Throttled
		}
		return n
	}
	if !within(5*time.Second, func() bool { return throttled() > 0 }) {
		t.Fatal("the leaf never deferred the metered tenant")
	}
	t0 := time.Now()
	if err := other.Submit(task.Batch(&gen, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.WaitN(4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if held := pending(f.Stats()); held != 8 {
		t.Fatalf("the other tenant was answered after %v, by when the link held %d tasks, want the 8 still deferred", time.Since(t0), held)
	}
	if _, err := metered.WaitN(16, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
