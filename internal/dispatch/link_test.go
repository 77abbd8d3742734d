package dispatch

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/replica"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// Hint freshness is (Epoch, Seq) lexicographic: a restarted leaf's Seq counter
// starts over, so its early hints must win on epoch alone, and a straggler
// from the dead incarnation's connection must lose even though its Seq is
// higher. What a hint that wins changes is the slots the link is registered
// with.
func TestAbsorbHintEpochBeatsSeq(t *testing.T) {
	d := New(Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f := New(Options{Leaves: []string{d.Addr()}, Logf: t.Logf})
	if err := f.Listen("127.0.0.1:0"); err != nil {
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
		if got != step.want || f.ownStats().TotalExecutors != min(step.want, 1) {
			t.Fatalf("%s: link registered with %d slots (%d executors at the root), want %d", step.why, got, f.ownStats().TotalExecutors, step.want)
		}
	}
}

// A root built with Tenants admits at the root (ROADMAP 8(e)): a bundle
// over the tenant's quota is answered with the typed retry-after, so the
// backpressure lands on the tenant's own client — Throttled counts it, and so
// does the tenant's row in the root's stats, which are the root's own; the
// leaf, which has no limits of its own, refuses nothing, and every task still
// arrives once.
func TestRootAdmitsUnderItsOwnTenants(t *testing.T) {
	leaf := New(Options{Logf: t.Logf})
	if err := leaf.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	ex, err := executor.Start(executor.Options{ID: "four-slots", DispatcherAddr: leaf.Addr(), Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	f := New(Options{Leaves: []string{leaf.Addr()}, Bundle: 8, Logf: t.Logf, Tenants: []TenantSpec{{Name: "capped", Quota: 8}}})
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
	for _, row := range f.Stats().Tenants {
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

// A root keeps its tasks in memory: Listen refuses a journal or replication
// with Leaves, before it dials a leaf, in the words falkon-dispatcher prints.
// What is missing is the test that kills a journaled root with bundles
// stocked at live leaves (ROADMAP 6(a)).
func TestLeavesRefuseJournal(t *testing.T) {
	leaf := New(Options{Logf: t.Logf})
	if err := leaf.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	for _, opts := range []Options{
		{JournalDir: t.TempDir()},
		{JournalDir: t.TempDir(), Replication: &ReplicationOptions{Term: 1, Mode: replica.ModeAsync}},
		{Replication: &ReplicationOptions{Term: 1, Mode: replica.ModeAsync}},
	} {
		opts.Leaves, opts.Logf = []string{leaf.Addr()}, t.Logf
		d := New(opts)
		err := d.Listen("127.0.0.1:0")
		d.Close()
		if err == nil {
			t.Fatalf("a root with JournalDir %q, Replication %+v listened", opts.JournalDir, opts.Replication)
		}
		if !strings.Contains(err.Error(), "-leaves cannot be combined with -journal-dir") || !strings.Contains(err.Error(), "ROADMAP 6(a)") {
			t.Fatalf("refusal does not say why: %v", err)
		}
	}
}

// A root's submit handler waits on the round trip of the stocking it does
// itself, so it runs on a goroutine of its own: a client's second bundle,
// sent on the same connection while the first is being stocked at a leaf slow
// to answer, is acknowledged without waiting for that round trip — the link
// finds its leaf busy and leaves the stocking to its goroutine (link.stock).
// Which of the first submit's handler and the link's goroutine stocks the
// leaf is a race; a round the goroutine wins says nothing and is run again.
func TestRootSubmitDoesNotWaitOnAnotherBundlesStocking(t *testing.T) {
	for round := 1; round <= 20; round++ {
		if submitBlockedOnLeaf(t) {
			return
		}
		t.Logf("round %d: the link's goroutine stocked the leaf; again", round)
	}
	t.Fatal("in 20 rounds no submit handler stocked the leaf itself")
}

// submitBlockedOnLeaf runs one round of the test above over a fresh root and
// fake leaf, and reports whether it was the first submit's handler that
// stocked the leaf.
func submitBlockedOnLeaf(t *testing.T) bool {
	// got has room for every submit a round's two bundles can make, so the
	// leaf's handlers never block on it.
	got, release := make(chan struct{}, 16), make(chan struct{})
	leaf := wsrpc.NewServer(wsrpc.ServerOptions{Logf: t.Logf})
	leaf.Register(fproto.MethodAttachParent, func(*wsrpc.Peer, json.RawMessage) (any, error) {
		return fproto.CapacityHint{Executors: 4, Seq: 1, Epoch: 1}, nil
	})
	leaf.Register(fproto.MethodCreateInstance, func(*wsrpc.Peer, json.RawMessage) (any, error) {
		return fproto.CreateInstanceReply{EPR: "down"}, nil
	})
	leaf.Register(fproto.MethodSubmit, func(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
		var req fproto.SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		got <- struct{}{}
		<-release
		return fproto.SubmitReply{Accepted: len(req.Tasks)}, nil
	})
	if err := leaf.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	root := New(Options{Leaves: []string{leaf.Addr()}, Logf: t.Logf})
	if err := root.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	cli, err := wsrpc.Dial(root.Addr(), wsrpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	defer close(release) // first: the leaf's handlers are what Close waits for
	var inst fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "one-connection"}, &inst); err != nil {
		t.Fatal(err)
	}
	submit := func(id task.ID) <-chan error {
		acked := make(chan error, 1)
		go func() {
			acked <- cli.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: inst.EPR, Tasks: []task.Task{{ID: id}}}, nil)
		}()
		return acked
	}

	first := submit(1)
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the first bundle never reached the leaf")
	}
	select {
	case err := <-first:
		if err != nil {
			t.Fatal(err)
		}
		return false // acknowledged: the link's goroutine is the one waiting on the leaf
	case <-time.After(100 * time.Millisecond):
	}
	select {
	case err := <-submit(2):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the second bundle's acknowledgment waited behind the first bundle's stocking round trip")
	}
	return true
}
