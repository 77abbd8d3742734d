package forward_test

import (
	"fmt"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
)

// startTenantTier brings up nDisp leaf dispatchers sharing one tenant
// config, each with nExec executors, behind a forwarder root that declares
// rootTenants.
func startTenantTier(t *testing.T, nDisp, nExec int, tenants, rootTenants []dispatch.TenantSpec) (*dispatch.Dispatcher, []*dispatch.Dispatcher) {
	t.Helper()
	var addrs []string
	var dispatchers []*dispatch.Dispatcher
	for i := 0; i < nDisp; i++ {
		d := dispatch.New(dispatch.Options{Logf: t.Logf, Tenants: tenants})
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
	f := dispatch.New(dispatch.Options{Leaves: addrs, Logf: t.Logf, Tenants: rootTenants})
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, dispatchers
}

// TestForwarderTenantPassthrough pins tenant identity through the tree: a
// tenant-scoped client submits via the root, which admits the tenant as it
// declares it (DESIGN.md §13) and counts the work in its own tenant row, and
// the leaves attribute the work to that tenant.
func TestForwarderTenantPassthrough(t *testing.T) {
	f, dispatchers := startTenantTier(t, 2, 1, []dispatch.TenantSpec{{Name: "acme"}}, []dispatch.TenantSpec{{Name: "acme", Weight: 2}})
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
			if ts.Completed != 60 || ts.Weight != 2 {
				t.Fatalf("root's acme row counts %d completions at weight %v, want 60 at the root's weight 2", ts.Completed, ts.Weight)
			}
		}
	}
	if !found {
		t.Fatalf("root stats carry no acme row: %+v", st.Tenants)
	}
}

// A tree admits a tenant once, at the node its client attaches to (DESIGN.md
// §13). Two leaves meter the tenant and the root declares none: 256 tasks sent
// through the root arrive once each and no leaf throttles a bundle its parent
// sends — the root admitted them, unlimited. A client of the same tenant
// attached to a leaf is still held to the leaf's limits.
func TestTreeAdmitsATenantOnce(t *testing.T) {
	tenants := []dispatch.TenantSpec{{Name: "metered", Rate: 400, Burst: 8}}
	f, dispatchers := startTenantTier(t, 2, 1, tenants, nil)
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), Tenant: "metered", BundleSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 256, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(256, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if r.Failed() || seen[r.ID] {
			t.Fatalf("task %v failed or came twice: %+v", r.ID, r)
		}
		seen[r.ID] = true
	}
	if len(seen) != 256 {
		t.Fatalf("unique results = %d, want 256", len(seen))
	}
	throttled := func() (n int64) {
		for _, d := range dispatchers {
			for _, ts := range d.Stats().Tenants {
				n += ts.Throttled
			}
		}
		return n
	}
	if n := throttled(); n != 0 || c.Throttled() != 0 {
		t.Fatalf("the leaves throttled %d bundles, the root %d: the tenant was admitted twice", n, c.Throttled())
	}

	direct, err := client.Connect(client.Options{DispatcherAddr: dispatchers[0].Addr(), Tenant: "metered", BundleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := direct.Submit(task.Batch(&gen, 32, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := direct.WaitN(32, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if direct.Throttled() == 0 || throttled() == 0 {
		t.Fatalf("a client attached to the leaf was throttled %d times (leaves count %d), want > 0: burst 8 at 400/s", direct.Throttled(), throttled())
	}
}
