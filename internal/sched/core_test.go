package sched

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// payload is the test task type; ds is its dataset tag.
type payload struct {
	id int
	ds string
}

func newTestCore(opts Options[payload]) *Core[string, int, payload] {
	if opts.Dataset == nil {
		opts.Dataset = func(p payload) string { return p.ds }
	}
	return NewCore[string, int, payload](opts)
}

func TestDatasetCacheLRU(t *testing.T) {
	c := NewDatasetCache(2)
	c.Touch("a")
	c.Touch("b")
	if !c.Has("a") || !c.Has("b") {
		t.Fatal("entries missing")
	}
	c.Touch("a") // refresh a; b becomes LRU
	c.Touch("c") // evicts b
	if !c.Has("a") || !c.Has("c") || c.Has("b") {
		t.Fatalf("LRU eviction wrong: a=%v b=%v c=%v", c.Has("a"), c.Has("b"), c.Has("c"))
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want capacity 2", c.Len())
	}
}

func TestDatasetCacheIgnoresEmptyAndZeroCap(t *testing.T) {
	c := NewDatasetCache(2)
	c.Touch("")
	if c.Has("") {
		t.Fatal("empty dataset cached")
	}
	z := NewDatasetCache(0)
	z.Touch("x")
	if z.Has("x") {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

func TestDatasetCacheEvictionSweep(t *testing.T) {
	c := NewDatasetCache(4)
	for i := 0; i < 10; i++ {
		c.Touch(fmt.Sprintf("d%d", i))
	}
	if c.Len() != 4 {
		t.Fatalf("cache size = %d, want capacity 4", c.Len())
	}
	if !c.Has("d9") || c.Has("d0") {
		t.Fatal("LRU eviction wrong")
	}
	c.Touch("d6") // refresh
	c.Touch("dZ") // evicts d7 (oldest untouched)
	if !c.Has("d6") || c.Has("d7") {
		t.Fatal("refreshed entry evicted")
	}
}

func TestIdleStackLIFOWithRemovals(t *testing.T) {
	c := newTestCore(Options[payload]{})
	a := c.AddExec("a", 1)
	b := c.AddExec("b", 1)
	d := c.AddExec("d", 1)
	c.Offer(a)
	c.Offer(b)
	c.Offer(d)
	if !a.Idle() || !b.Idle() || !d.Idle() {
		t.Fatal("offers not recorded")
	}
	c.RemoveIdle(b) // O(1) tombstone in the middle
	if b.Idle() {
		t.Fatal("b still idle after removal")
	}
	// Pop order must skip the tombstone and preserve LIFO.
	x, ok := c.PopIdle()
	if !ok || x != d {
		t.Fatalf("pop 1 = %v", x)
	}
	x, ok = c.PopIdle()
	if !ok || x != a {
		t.Fatalf("pop 2 = %v", x)
	}
	if _, ok := c.PopIdle(); ok {
		t.Fatal("pop from empty idle stack")
	}
	// Double offer is a no-op.
	c.Offer(a)
	if !c.Offer(b) {
		t.Fatal("re-offer of removed exec failed")
	}
	if c.Offer(a) {
		t.Fatal("duplicate offer accepted")
	}
}

func TestIdleStackCompaction(t *testing.T) {
	c := newTestCore(Options[payload]{})
	execs := make([]*Exec[string], 400)
	for i := range execs {
		execs[i] = c.AddExec(fmt.Sprint(i), 1)
	}
	// Repeated offer + mid-stack removal accumulates tombstones; the
	// stack must stay bounded at ~2x live.
	for round := 0; round < 50; round++ {
		for _, x := range execs {
			c.Offer(x)
		}
		for i, x := range execs {
			if i%2 == 0 {
				c.RemoveIdle(x)
			}
		}
		if len(c.idle) > 2*len(execs)+1 {
			t.Fatalf("idle stack grew to %d for %d executors", len(c.idle), len(execs))
		}
		for {
			if _, ok := c.PopIdle(); !ok {
				break
			}
		}
	}
}

func TestPickNextAvailableFIFO(t *testing.T) {
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	for i := 1; i <= 3; i++ {
		c.Enqueue(0, payload{id: i})
	}
	for i := 1; i <= 3; i++ {
		it, hit, ok := c.Pick(x)
		if !ok || hit || it.X.id != i {
			t.Fatalf("pick %d = %+v hit=%v ok=%v", i, it, hit, ok)
		}
	}
	if c.Counters.Submitted != 3 {
		t.Fatalf("submitted = %d", c.Counters.Submitted)
	}
}

func TestPickDataAwarePullsForwardWithinWindow(t *testing.T) {
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	if x.Cache != nil {
		t.Fatal("an executor that has run nothing has a dataset cache")
	}
	c.NoteCompletion(x, "")
	if x.Cache != nil {
		t.Fatal("a task that names no dataset made a cache")
	}
	c.NoteCompletion(x, "hot")
	// The hit is the window's last task; 70 are queued.
	for i := 1; i < window; i++ {
		c.Enqueue(0, payload{id: i, ds: "cold"})
	}
	c.Enqueue(0, payload{id: window, ds: "hot"})
	for i := window + 1; i <= 70; i++ {
		c.Enqueue(0, payload{id: i, ds: "hot"})
	}
	it, hit, ok := c.Pick(x)
	if !ok || !hit || it.X.id != window {
		t.Fatalf("pick = %+v hit=%v, want task %d", it, hit, window)
	}
	// An executor whose cache holds nothing named here takes the head and
	// counts a miss.
	y := c.AddExec("y", 1)
	c.NoteCompletion(y, "other")
	it, hit, ok = c.Pick(y)
	if !ok || hit || it.X.id != 1 {
		t.Fatalf("fallback pick = %+v hit=%v", it, hit)
	}
	if c.Counters.CacheHits != 1 || c.Counters.CacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Counters.CacheHits, c.Counters.CacheMisses)
	}
}

func TestPickDataAwareWindowBoundsStarvation(t *testing.T) {
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	c.NoteCompletion(x, "hot")
	for i := 1; i <= window; i++ {
		c.Enqueue(0, payload{id: i, ds: "cold"})
	}
	c.Enqueue(0, payload{id: window + 1, ds: "hot"}) // just beyond the window
	it, hit, ok := c.Pick(x)
	if !ok || hit || it.X.id != 1 {
		t.Fatalf("pick beyond window = %+v hit=%v", it, hit)
	}
}

// A queue that names no dataset is served as if there were no caches: in
// exact FIFO order, or under declared weights in exact SFQ order, whether
// the picking executor's cache is cold (nil) or warm.
func TestPickWithoutDatasetsKeepsQueueOrder(t *testing.T) {
	weights := &FairShare{Weights: map[string]float64{"a": 3, "b": 1, "c": 2}}
	fill := func(c *Core[string, int, ftask]) {
		for i := 0; i < 3*window; i++ {
			c.Enqueue(0, ftask{tn: []string{"a", "b", "c"}[i%3], id: i})
		}
	}
	for _, tc := range []struct {
		name string
		fs   *FairShare
		warm bool
	}{
		{"fifo/cold", nil, false},
		{"fifo/warm", nil, true},
		{"sfq/cold", weights, false},
		{"sfq/warm", weights, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The reference order: the queue popped with no executor at all.
			ref := newFairCore(tc.fs)
			fill(ref)
			var want []int
			for it, ok := ref.PickAny(); ok; it, ok = ref.PickAny() {
				want = append(want, it.X.id)
			}
			if tc.fs == nil {
				for i, id := range want {
					if id != i {
						t.Fatalf("reference pop %d is task %d: not FIFO", i, id)
					}
				}
			}
			c := newFairCore(tc.fs)
			x := c.AddExec("x", 1)
			if tc.warm {
				c.NoteCompletion(x, "warm")
			}
			fill(c)
			for i, id := range want {
				it, hit, ok := c.Pick(x)
				if !ok || hit || it.X.id != id {
					t.Fatalf("pick %d = task %d (hit=%v ok=%v), want task %d", i, it.X.id, hit, ok, id)
				}
			}
			if c.Counters.CacheHits != 0 || c.Counters.CacheMisses != 0 {
				t.Fatalf("hits=%d misses=%d on a queue that names no dataset", c.Counters.CacheHits, c.Counters.CacheMisses)
			}
		})
	}
}

func TestAssignClampsNotifyStamp(t *testing.T) {
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	// No notification since enqueue: the stamp collapses onto dispatch.
	c.Enqueue(20, payload{id: 1})
	it, _, _ := c.Pick(x)
	x.LastNotifyAt = 5 // stale push, before this task was queued
	if o := c.Assign(30, x, 1, it); o.NotifiedAt != 30 {
		t.Fatalf("stale notify not clamped: %v", o.NotifiedAt)
	}
}

func TestRequeuePerTaskOverride(t *testing.T) {
	c := newTestCore(Options[payload]{
		MaxRetries:  1,
		TaskRetries: func(p payload) int { return p.id }, // id doubles as bound
	})
	it := Item[payload]{X: payload{id: 5}, Attempts: 4}
	if !c.Requeue(it) {
		t.Fatal("per-task override ignored")
	}
	it.Attempts = 6
	if c.Requeue(it) {
		t.Fatal("per-task bound not enforced")
	}
}

func TestNotificationsCoverQueue(t *testing.T) {
	c := newTestCore(Options[payload]{})
	a := c.AddExec("a", 1)
	b := c.AddExec("b", 2)
	c.Offer(a)
	c.Offer(b)
	c.Enqueue(0, payload{id: 1})
	c.Enqueue(0, payload{id: 2})
	ns := c.Notifications(9)
	// b (top of stack, 2 slots) covers the 2-deep queue alone.
	if len(ns) != 1 || ns[0].Exec != b || ns[0].Queued != 2 {
		t.Fatalf("notifications = %+v", ns)
	}
	if !b.Notified || b.LastNotifyAt != 9 || b.Idle() {
		t.Fatal("notified state wrong")
	}
	// a stays idle for the next kick; b is not re-notified.
	c.Enqueue(0, payload{id: 3})
	ns = c.Notifications(10)
	if len(ns) != 1 || ns[0].Exec != a {
		t.Fatalf("second kick = %+v", ns)
	}
	if ns2 := c.Notifications(11); len(ns2) != 0 {
		t.Fatalf("third kick notified %+v with no idle executors", ns2)
	}
}

func TestReRegisterKeepsOutstanding(t *testing.T) {
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	c.Enqueue(0, payload{id: 1})
	it, _, _ := c.Pick(x)
	c.Assign(1, x, 1, it)
	c.Offer(x) // no free slots: rejected
	nx := c.AddExec("x", 1)
	if nx == x {
		t.Fatal("re-register returned old state")
	}
	// The old connection's outstanding task still completes under the id.
	if _, ok := c.Complete("x", 1); !ok {
		t.Fatal("outstanding lost across re-register")
	}
}

func TestStampsClampAndPartition(t *testing.T) {
	cases := []Stamps{
		{Queued: 10, Notified: 12, Dispatched: 15, Started: 18, Finished: 30},
		{Queued: 10, Notified: 2, Dispatched: 15, Started: 18, Finished: 30},  // stale notify
		{Queued: 10, Notified: 22, Dispatched: 15, Started: 18, Finished: 30}, // notify after pull
		{Queued: 10, Notified: 12, Dispatched: 15, Started: 9, Finished: 30},  // skewed executor clock
		{Queued: 10, Notified: 0, Dispatched: 15, Started: 40, Finished: 30},  // run longer than delivery gap
	}
	for i, raw := range cases {
		s := raw.Clamp()
		if !(s.Queued <= s.Notified && s.Notified <= s.Dispatched && s.Started >= s.Dispatched && s.Finished >= s.Started) {
			t.Fatalf("case %d: ordering violated: %+v", i, s)
		}
		var sum time.Duration
		for _, st := range s.Stages() {
			if st < 0 {
				t.Fatalf("case %d: negative stage in %+v", i, s.Stages())
			}
			sum += st
		}
		if sum != s.E2E() {
			t.Fatalf("case %d: stages sum %v != e2e %v", i, sum, s.E2E())
		}
	}
}

// BenchmarkDatasetCache measures the dataset cache's LRU bookkeeping.
func BenchmarkDatasetCache(b *testing.B) {
	b.ReportAllocs()
	c := NewDatasetCache(16)
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("ds-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Touch(names[i%64])
		c.Has(names[(i*7)%64])
	}
}

// BenchmarkCorePickAssignComplete measures the core's per-task hot path.
func BenchmarkCorePickAssignComplete(b *testing.B) {
	b.ReportAllocs()
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Enqueue(time.Duration(i), payload{id: i})
		it, _, _ := c.Pick(x)
		c.Assign(time.Duration(i), x, i, it)
		c.Complete("x", i)
	}
}

// What the benchmark's sched.cycle_allocs row reads: an enqueue → pick →
// assign → complete cycle allocates nothing, in objects or in bytes: the
// outstanding record lives in the table's own slot. Records carved from shared
// chunks, one allocation per 102 of this test's, fail it.
func TestCycleAllocations(t *testing.T) {
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	id := 0
	cycle := func() {
		id++
		c.Enqueue(time.Duration(id), payload{id: id})
		it, _, _ := c.Pick(x)
		c.Assign(time.Duration(id), x, id, it)
		c.Complete("x", id)
	}
	for i := 0; i < 10000; i++ {
		cycle() // the queue's ring reaches the size it compacts at
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 10000; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	if n, b := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc; n != 0 || b != 0 {
		t.Fatalf("%d allocations, %d bytes over 10,000 cycles, want none", n, b)
	}
}

func TestResizeKeepsWhatTheExecutorHolds(t *testing.T) {
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	c.AddExec("y", 3)
	c.Enqueue(0, payload{id: 1})
	it, _, _ := c.Pick(x)
	c.Assign(1, x, 1, it)
	c.Resize(x, 4)
	if x.Assigned != 1 || c.Slots() != 7 || x.Free() != 3 {
		t.Fatalf("after growing: assigned %d, slots %d, free on x %d; want 1, 7, 3", x.Assigned, c.Slots(), x.Free())
	}
	if !c.Offer(x) {
		t.Fatal("an executor that grew past what it holds is not on offer")
	}
	c.Resize(x, 1)
	if c.Slots() != 4 || x.Free() != 0 {
		t.Fatalf("after shrinking: slots %d, free on x %d; want 4, 0", c.Slots(), x.Free())
	}
	if _, ok := c.Complete("x", 1); !ok || x.Assigned != 0 {
		t.Fatalf("the task did not complete under the resized executor: ok=%v assigned=%d", ok, x.Assigned)
	}
}
