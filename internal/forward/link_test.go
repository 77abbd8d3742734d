package forward

import (
	"strings"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// Hint freshness is (Epoch, Seq) lexicographic: a restarted leaf's Seq counter
// starts over, so its early hints must win on epoch alone, and a straggler
// from the dead incarnation's connection must lose even though its Seq is
// higher. What a hint that wins changes is the slots the link is registered
// with.
func TestAbsorbHintEpochBeatsSeq(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f, err := New(Options{Dispatchers: []string{d.Addr()}, Root: dispatch.Options{Logf: t.Logf}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l := f.links[0]
	l.mu.Lock()
	epoch, seq := l.cap.Epoch, l.cap.Seq
	l.mu.Unlock()

	for _, step := range []struct {
		why  string
		hint fproto.CapacityHint
		want int // slots registered afterwards
	}{
		{"a new incarnation, Seq restarted", fproto.CapacityHint{Epoch: epoch + 1, Seq: 1, Executors: 3}, 3},
		{"a straggler of the old one, higher Seq", fproto.CapacityHint{Epoch: epoch, Seq: seq + 100, Executors: 1}, 3},
		{"same epoch, newer", fproto.CapacityHint{Epoch: epoch + 1, Seq: 5, Executors: 2}, 2},
		{"same epoch, stale (the attach snapshot behind a forced push)", fproto.CapacityHint{Epoch: epoch + 1, Seq: 3, Executors: 7}, 2},
		{"the last executor left", fproto.CapacityHint{Epoch: epoch + 1, Seq: 6}, 0},
	} {
		l.absorbHint(step.hint)
		l.mu.Lock()
		got := l.slots
		l.mu.Unlock()
		if got != step.want || f.Dispatcher.Stats().TotalExecutors != min(step.want, 1) {
			t.Fatalf("%s: link registered with %d slots (%d executors at the root), want %d", step.why, got, f.Dispatcher.Stats().TotalExecutors, step.want)
		}
	}
}

// A root built with Root.Tenants admits at the root (ROADMAP 8(e)): a bundle
// over the tenant's quota is answered with the typed retry-after, so the
// backpressure lands on the tenant's own client — Throttled counts it; the
// leaf, which has no limits of its own, refuses nothing, and every task still
// arrives once.
func TestRootAdmitsUnderItsOwnTenants(t *testing.T) {
	leaf := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := leaf.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	ex, err := executor.Start(executor.Options{ID: "four-slots", DispatcherAddr: leaf.Addr(), Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	f, err := New(Options{Dispatchers: []string{leaf.Addr()}, Bundle: 8, Root: dispatch.Options{
		Logf: t.Logf, Tenants: []dispatch.TenantSpec{{Name: "capped", Quota: 8}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := client.Connect(client.Options{DispatcherAddr: f.Addr(), Tenant: "capped", BundleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Five bundles of 8 against a quota of 8: each after the first waits, at
	// the client, for the one before it to finish (two rounds of 20 ms).
	const n = 40
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(n, 30*time.Second)
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
	if len(seen) != n {
		t.Fatalf("%d distinct results, want %d", len(seen), n)
	}
	if c.Throttled() == 0 {
		t.Fatal("the client was never handed a retry-after")
	}
	var atRoot int64
	for _, row := range f.Dispatcher.Stats().Tenants {
		if row.Name == "capped" {
			atRoot = row.Throttled
		}
	}
	if atRoot == 0 || len(leaf.Stats().Tenants) != 0 {
		t.Fatalf("throttled %d times at the root (want > 0); the leaf reports tenants %+v (want none: it admits everything)", atRoot, leaf.Stats().Tenants)
	}
	// The tenant's share of the root's stage and end-to-end time is the
	// root's: merged up a tree it must not add to a leaf's series.
	labeled := 0
	for key := range f.MetricsSnapshot().Histograms {
		if strings.Contains(key, `tenant="capped"`) {
			labeled++
			if !strings.Contains(key, `{node="root",`) {
				t.Fatalf("the root's %s is not under node=\"root\"", key)
			}
		}
	}
	if labeled == 0 {
		t.Fatal("the root recorded no per-tenant histogram")
	}
}
