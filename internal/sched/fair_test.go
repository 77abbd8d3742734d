package sched

import (
	"fmt"
	"testing"
	"time"
)

// ftask is the fair-share test payload.
type ftask struct {
	tn string // tenant
	id int
	ds string // dataset tag
}

func newFairCore(fs *FairShare) *Core[string, int, ftask] {
	return NewCore[string, int, ftask](Options[ftask]{
		Tenant:    func(t ftask) string { return t.tn },
		Dataset:   func(t ftask) string { return t.ds },
		FairShare: fs,
	})
}

// popAll drains the core via Pick against one executor, returning the
// tenant sequence.
func popSequence(c *Core[string, int, ftask], n int) []string {
	var seq []string
	for i := 0; i < n; i++ {
		it, ok := c.PickAny()
		if !ok {
			break
		}
		seq = append(seq, it.X.tn)
	}
	return seq
}

func TestFairShareWeightedRatio(t *testing.T) {
	c := newFairCore(&FairShare{Weights: map[string]float64{"heavy": 3, "light": 1}})
	for i := 0; i < 400; i++ {
		c.Enqueue(0, ftask{tn: "heavy", id: i})
		c.Enqueue(0, ftask{tn: "light", id: 1000 + i})
	}
	counts := map[string]int{}
	for _, tn := range popSequence(c, 400) {
		counts[tn]++
	}
	// SFQ with weights 3:1 serves exactly in ratio while both are
	// backlogged: 300 heavy, 100 light over any 400 pops.
	if counts["heavy"] != 300 || counts["light"] != 100 {
		t.Fatalf("weighted share = %v, want heavy=300 light=100", counts)
	}
}

func TestFairShareEqualWeightsInterleave(t *testing.T) {
	c := newFairCore(&FairShare{})
	// A flooding tenant enqueues 100 tasks before the victim's first —
	// under plain FIFO the victim would wait behind all 100.
	for i := 0; i < 100; i++ {
		c.Enqueue(0, ftask{tn: "flood", id: i})
	}
	for i := 0; i < 10; i++ {
		c.Enqueue(0, ftask{tn: "victim", id: 1000 + i})
	}
	seq := popSequence(c, 20)
	victims := 0
	for _, tn := range seq {
		if tn == "victim" {
			victims++
		}
	}
	// Equal weights: the first 20 pops split evenly despite the flood's
	// head start in arrival order.
	if victims != 10 {
		t.Fatalf("victim got %d of first 20 pops, want 10 (seq=%v)", victims, seq)
	}
}

func TestFairShareDeterministic(t *testing.T) {
	build := func() *Core[string, int, ftask] {
		c := newFairCore(&FairShare{Weights: map[string]float64{"a": 2, "b": 1, "c": 5}})
		for i := 0; i < 50; i++ {
			c.Enqueue(0, ftask{tn: "c", id: i})
			c.Enqueue(0, ftask{tn: "a", id: 100 + i})
			c.Enqueue(0, ftask{tn: "b", id: 200 + i})
		}
		return c
	}
	s1 := popSequence(build(), 150)
	s2 := popSequence(build(), 150)
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatal("identical inputs produced different pop sequences")
	}
}

func TestFairShareTieBreakByName(t *testing.T) {
	c := newFairCore(&FairShare{})
	// Same weight, same virtual start: the name-sorted earlier tenant
	// wins the tie, regardless of enqueue order.
	c.Enqueue(0, ftask{tn: "zeta", id: 1})
	c.Enqueue(0, ftask{tn: "alpha", id: 2})
	it, ok := c.PickAny()
	if !ok || it.X.tn != "alpha" {
		t.Fatalf("first pop = %+v, want tenant alpha", it.X)
	}
}

func TestFairShareFIFOWithinTenant(t *testing.T) {
	c := newFairCore(&FairShare{})
	for i := 0; i < 10; i++ {
		c.Enqueue(0, ftask{tn: "only", id: i})
	}
	for i := 0; i < 10; i++ {
		it, ok := c.PickAny()
		if !ok || it.X.id != i {
			t.Fatalf("pop %d = %+v, want id %d", i, it.X, i)
		}
	}
}

func TestFairSharePickAnyPreservesFairness(t *testing.T) {
	// The cache-blind pop must run the same SFQ arbitration, not bypass to
	// any single tenant's FIFO.
	c := newFairCore(&FairShare{})
	for i := 0; i < 50; i++ {
		c.Enqueue(0, ftask{tn: "flood", id: i})
	}
	c.Enqueue(0, ftask{tn: "victim", id: 999})
	seq := popSequence(c, 2)
	saw := map[string]bool{}
	for _, tn := range seq {
		saw[tn] = true
	}
	if !saw["victim"] {
		t.Fatalf("cache-blind pops %v never reached the victim tenant", seq)
	}
}

func TestFairShareDataAwareWithinTenant(t *testing.T) {
	c := newFairCore(&FairShare{})
	x := c.AddExec("e1", 1)
	c.NoteCompletion(x, "warm")
	// Tenant "a" is up first (tie-break); its second task hits e1's
	// cache, so the window scan pulls it forward — within tenant a only.
	c.Enqueue(0, ftask{tn: "a", id: 1, ds: "cold"})
	c.Enqueue(0, ftask{tn: "a", id: 2, ds: "warm"})
	c.Enqueue(0, ftask{tn: "b", id: 3, ds: "warm"})
	it, hit, ok := c.Pick(x)
	if !ok || !hit || it.X.id != 2 {
		t.Fatalf("pick = %+v hit=%v, want id 2 cache hit", it.X, hit)
	}
	// Next turn belongs to tenant b (a has been served once).
	it, _, ok = c.Pick(x)
	if !ok || it.X.id != 3 {
		t.Fatalf("second pick = %+v, want tenant b id 3", it.X)
	}
	if c.Counters.CacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2", c.Counters.CacheHits)
	}
}

func TestFairShareOffIsUnchangedFIFO(t *testing.T) {
	c := newFairCore(nil)
	if c.FairShareEnabled() {
		t.Fatal("fair-share reported on without config")
	}
	c.Enqueue(0, ftask{tn: "z", id: 1})
	c.Enqueue(0, ftask{tn: "a", id: 2})
	c.Enqueue(0, ftask{tn: "z", id: 3})
	for i, want := range []int{1, 2, 3} {
		it, ok := c.PickAny()
		if !ok || it.X.id != want {
			t.Fatalf("pop %d = %+v, want id %d", i, it.X, want)
		}
	}
}

func TestSetFairShareMigratesQueued(t *testing.T) {
	c := newFairCore(nil)
	c.Enqueue(0, ftask{tn: "b", id: 1})
	c.Enqueue(0, ftask{tn: "a", id: 2})
	c.SetFairShare(&FairShare{})
	if !c.FairShareEnabled() || c.QueueLen() != 2 {
		t.Fatalf("migration lost work: len=%d", c.QueueLen())
	}
	lens := map[string]int{}
	c.TenantQueueLens(lens)
	if lens["a"] != 1 || lens["b"] != 1 {
		t.Fatalf("tenant lens after migration = %v", lens)
	}
	c.SetFairShare(nil)
	if c.FairShareEnabled() || c.QueueLen() != 2 {
		t.Fatalf("disable lost work: len=%d", c.QueueLen())
	}
	it, ok := c.PickAny()
	if !ok || it.X.id == 0 {
		t.Fatal("pop after disable failed")
	}
}

func TestFairShareLateTenantNoCredit(t *testing.T) {
	c := newFairCore(&FairShare{})
	for i := 0; i < 100; i++ {
		c.Enqueue(0, ftask{tn: "early", id: i})
	}
	// Serve the early tenant for a while, advancing virtual time.
	popSequence(c, 50)
	// A tenant arriving now starts at the current virtual time: it may
	// not claim 50 back-pops of "missed" service.
	for i := 0; i < 10; i++ {
		c.Enqueue(0, ftask{tn: "late", id: 1000 + i})
	}
	counts := map[string]int{}
	for _, tn := range popSequence(c, 20) {
		counts[tn]++
	}
	if counts["late"] != 10 || counts["early"] != 10 {
		t.Fatalf("post-arrival split = %v, want 10/10", counts)
	}
}

func TestFairShareRequeueKeepsQueuedAt(t *testing.T) {
	c := newFairCore(&FairShare{})
	c.Enqueue(5*time.Millisecond, ftask{tn: "a", id: 1})
	x := c.AddExec("e", 1)
	it, _, _ := c.Pick(x)
	o := c.Assign(10*time.Millisecond, x, 7, it)
	got, ok := c.Complete("e", 7)
	if !ok || got.Item.QueuedAt != 5*time.Millisecond {
		t.Fatalf("outstanding round trip: %+v ok=%v", got, ok)
	}
	if !c.Requeue(o.Item) {
		t.Fatal("requeue refused")
	}
	it2, ok := c.PickAny()
	if !ok || it2.QueuedAt != 5*time.Millisecond || it2.Attempts != 1 {
		t.Fatalf("requeued item = %+v", it2)
	}
}
