package client_test

import (
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
)

// TestClientHonorsRetryAfter pins the admission-control contract from the
// client side: a rate-limited tenant's submissions stall on the dispatcher's
// retry-after hints instead of erroring, and every task still lands.
func TestClientHonorsRetryAfter(t *testing.T) {
	d := dispatch.New(dispatch.Options{
		Logf:    t.Logf,
		Tenants: []dispatch.TenantSpec{{Name: "metered", Rate: 400, Burst: 8}},
	})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	ex, err := executor.Start(executor.Options{ID: "rt-exec", DispatcherAddr: d.Addr(), SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), Tenant: "metered", BundleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var gen task.IDGen
	// 32 tasks against burst 8 at 400/s: the later bundles must be deferred.
	if err := c.Submit(task.Batch(&gen, 32, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(32, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Throttled() == 0 {
		t.Fatal("rate-limited submissions were never throttled")
	}
}

// TestReconnectingClientKeepsTenant fails a tenant-scoped client over to a
// fallback dispatcher and checks both halves of the contract survive the
// hop: the re-created instance carries the tenant (the fallback's stats
// attribute the work correctly), and the reconnected client still honors
// the fallback's retry-after throttling.
func TestReconnectingClientKeepsTenant(t *testing.T) {
	tenants := []dispatch.TenantSpec{{Name: "roamer", Rate: 400, Burst: 8}}
	leaf := dispatch.New(dispatch.Options{Logf: t.Logf, Tenants: tenants})
	if err := leaf.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	root := dispatch.New(dispatch.Options{Logf: t.Logf, Tenants: tenants})
	if err := root.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	ex, err := executor.Start(executor.Options{
		ID: "tn-exec", DispatcherAddr: leaf.Addr() + "," + root.Addr(),
		SleepScale: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{
		DispatcherAddr: leaf.Addr() + "," + root.Addr(),
		Tenant:         "roamer", BundleSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 8, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(8, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill the leaf for good; the client re-homes on the fallback.
	leaf.Abort()
	if err := c.Submit(task.Batch(&gen, 32, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(32, 30*time.Second); err != nil {
		t.Fatalf("tasks lost across tenant failover: %v", err)
	}
	if c.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want ≥1", c.Reconnects())
	}
	if c.Throttled() == 0 {
		t.Fatal("fallback dispatcher never throttled the reconnected tenant")
	}

	st := root.Stats()
	found := false
	for _, ts := range st.Tenants {
		if ts.Name == "roamer" {
			found = true
			if ts.Completed < 32 {
				t.Fatalf("fallback attributed %d completions to roamer, want ≥32", ts.Completed)
			}
		}
	}
	if !found {
		t.Fatal("fallback dispatcher stats carry no row for the reconnected tenant")
	}
}
