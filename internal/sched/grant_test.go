package sched

import (
	"reflect"
	"testing"
	"time"
)

// dtask is a task that may declare its run time, and state that it is the
// whole of it; tenant matters only under fair-share.
type dtask struct {
	id     int
	d      time.Duration
	whole  bool
	tenant string
}

func newGrantCore(fair *FairShare) *Core[string, int, dtask] {
	return NewCore[string, int, dtask](Options[dtask]{
		Declared:  func(t dtask) (time.Duration, bool) { return t.d, t.whole },
		Tenant:    func(t dtask) string { return t.tenant },
		FairShare: fair,
	})
}

// grant answers one pull by x the way a runtime does: PickWithin until the
// Grant is spent. It returns the granted task ids, assigned.
func grant(c *Core[string, int, dtask], x *Exec[string], asked int, rtt time.Duration) []int {
	var ids []int
	g := c.Grant(asked, rtt)
	for {
		it, _, ok := c.PickWithin(x, &g)
		if !ok {
			return ids
		}
		c.Assign(0, x, it.X.id, it)
		ids = append(ids, it.X.id)
	}
}

const (
	us = time.Microsecond
	s1 = time.Second
)

// unstated is n tasks that state no run time (exec, func); sleeps are tasks
// that state these whole run times, and stated n that state 0.
func unstated(n int) []dtask { return make([]dtask, n) }

func sleeps(ds ...time.Duration) []dtask {
	ts := make([]dtask, len(ds))
	for i, d := range ds {
		ts[i] = dtask{d: d, whole: true}
	}
	return ts
}

func stated(n int) []dtask { return sleeps(make([]time.Duration, n)...) }

// TestGrantClamp is the dispatcher's half of dispatch-ahead as counts: what
// a sequence of pulls, each asking for `asked`, is granted out of a queue of
// tasks, spread over execs executors of slots slots each. The first held
// executors hold one task each before the pulls (the first held tasks of the
// queue), and pull i comes from executor (held + i) mod execs, so the pulls
// start at the first one free.
func TestGrantClamp(t *testing.T) {
	rows := []struct {
		name               string
		tasks              []dtask
		execs, slots, held int
		asked              int
		rtt                time.Duration
		want               []int // tasks granted, pull by pull
	}{
		{"4 tasks, 4 free one-slot executors, asked 64: 1 each", unstated(4), 4, 1, 0, 64, 100 * us, []int{1, 1, 1, 1, 0}},
		{"4 tasks, one 4-slot executor, asked 64: 1 per pull", unstated(4), 1, 4, 0, 64, 100 * us, []int{1, 1, 1, 1, 0}},
		{"deep queue: the ask is the limit", unstated(512), 4, 1, 0, 64, 100 * us, []int{64, 64, 64, 64}},
		{"share rounds up and shrinks with the queue", unstated(10), 4, 1, 0, 64, 100 * us, []int{3, 3, 2, 2, 0, 0, 0}},
		{"64 tasks at 4 free slots: 16 each, none left", unstated(64), 4, 1, 0, 64, 100 * us, []int{16, 16, 16, 16, 0}},
		{"4 queued, 3 of 4 slots hold one each: the free slot takes 2", unstated(7), 4, 1, 3, 64, 100 * us, []int{2, 2, 0}},
		{"no slot free: an even share of all the work held", unstated(12), 4, 1, 4, 64, 100 * us, []int{3, 3, 2, 0}},
		{"an executor that asks for 1 gets per-task dispatch", unstated(100), 1, 1, 0, 1, 100 * us, []int{1, 1, 1}},
		{"an ask below 1 is an ask for 1", unstated(100), 1, 1, 0, 0, 100 * us, []int{1, 1}},
		{"empty queue", nil, 2, 1, 0, 64, 100 * us, []int{0}},
		{"64 stated tasks at 4 free slots: one grant of 64", stated(64), 4, 1, 0, 64, 100 * us, []int{64, 0}},
		{"stated tasks: the ask is the limit", stated(100), 4, 1, 0, 64, 100 * us, []int{64, 36, 0}},
		{"an executor that asks for 1 gets one stated task", stated(3), 4, 1, 0, 1, 100 * us, []int{1, 1, 1, 0}},
		{"stated fill to the ask, unstated stop at the share, in pick order",
			append(append(stated(4), unstated(8)...), stated(4)...), 4, 1, 0, 64, 100 * us, []int{8, 3, 5, 0}},
		{"a declared 1 s task ends the grant and rides alone", sleeps(0, 0, 0, s1, 0, 0), 1, 1, 0, 64, 100 * us, []int{3, 1, 2, 0}},
		{"two long tasks never share a grant", sleeps(s1, s1, s1), 1, 1, 0, 64, 100 * us, []int{1, 1, 1}},
		{"a long stated task ends a grant of stated ones", sleeps(0, 0, s1, 0), 4, 1, 0, 64, 100 * us, []int{2, 1, 1, 0}},
		{"declared times add up to the budget", sleeps(40*us, 40*us, 40*us, 40*us, 40*us), 1, 1, 0, 64, 100 * us, []int{2, 2, 1}},
		{"no round trip seen yet: nothing declared is bundled", sleeps(us, us, 0, 0), 1, 1, 0, 64, 0, []int{1, 1, 2}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := newGrantCore(nil)
			xs := make([]*Exec[string], row.execs)
			for i := range xs {
				xs[i] = c.AddExec(string(rune('a'+i)), row.slots)
			}
			for i, x := range row.tasks {
				x.id = i
				c.Enqueue(0, x)
			}
			for _, x := range xs[:row.held] {
				it, _, _ := c.Pick(x)
				c.Assign(0, x, it.X.id, it)
			}
			var got []int
			next := row.held
			for i := range row.want {
				ids := grant(c, xs[(row.held+i)%len(xs)], row.asked, row.rtt)
				for _, id := range ids {
					if id != next {
						t.Fatalf("pull %d granted task %d, want FIFO order (next %d)", i, id, next)
					}
					next++
				}
				got = append(got, len(ids))
			}
			if !reflect.DeepEqual(got, row.want) {
				t.Fatalf("granted %v, want %v", got, row.want)
			}
		})
	}
}

// The share is of the slots free now and of those registered: an executor
// that takes work, leaves, is resized or re-registers with another width
// moves it, and one that holds more tasks than it has slots counts no slot
// free until it holds fewer.
func TestShareFollowsRegisteredSlots(t *testing.T) {
	c := newGrantCore(nil)
	for i := 0; i < 64; i++ {
		c.Enqueue(0, dtask{id: i})
	}
	check := func(what string, free, share int) {
		t.Helper()
		if got := c.Share(64); c.free != free || got != share {
			t.Fatalf("%s: %d free slots, share %d; want %d, %d", what, c.free, got, free, share)
		}
	}
	check("no executor registered: the ask", 0, 64)
	c.AddExec("a", 1)
	c.AddExec("b", 3)
	check("4 slots, all free", 4, 16)
	b := c.AddExec("b", 1) // re-register, narrower
	check("2 slots", 2, 32)
	c.DropExecutor("a")
	check("1 slot", 1, 64)
	c.Resize(b, 4)
	check("resized to 4 slots", 4, 16)
	for range 3 {
		it, _, _ := c.Pick(b)
		c.Assign(0, b, it.X.id, it)
	}
	// 61 queued over 1 free slot, but 64 held over 4 slots is 16 a slot.
	check("3 of 4 slots busy", 1, 16)
	c.Resize(b, 2)
	check("3 tasks in 2 slots: none free", 0, 32)
	c.AddExec("c", 2)
	check("2 free slots beside it", 2, 16)
	if _, ok := c.Complete("b", 0); !ok {
		t.Fatal("result refused")
	}
	check("2 tasks in 2 slots: still none free", 2, 16)
	if _, ok := c.Complete("b", 1); !ok {
		t.Fatal("result refused")
	}
	check("1 task in 2 slots: one free", 3, 16)
	c.DropExecutor("b")
	check("b gone with its task", 2, 31)
}

// A refused PickWithin leaves the queue as it found it, under every queue
// layout and whichever limit refuses: the same task is what an unrestricted
// Pick returns next, and under fair-share the refusal charges no tenant.
func TestPickWithinRefusalIsNotAPop(t *testing.T) {
	for _, fair := range []*FairShare{nil, {Weights: map[string]float64{"a": 1, "b": 1}}} {
		for _, g := range []Grant{
			{ask: 64, taken: 1, unstated: 64, room: 100 * us}, // 1 s into 100 µs of room
			{ask: 64, unstated: 0},                            // past the share
			{ask: 1, taken: 1, unstated: 64, room: s1},        // past the ask
		} {
			c := newGrantCore(fair)
			x := c.AddExec("x", 1)
			c.Enqueue(0, dtask{id: 0, d: s1, tenant: "a"})
			c.Enqueue(0, dtask{id: 1, tenant: "b"})
			c.Enqueue(0, dtask{id: 2, tenant: "a"})
			if _, _, ok := c.PickWithin(x, &g); ok {
				t.Fatalf("fair=%v: task 0 was picked into %+v", fair != nil, g)
			}
			if n := c.QueueLen(); n != 3 {
				t.Fatalf("fair=%v: refusal left %d queued, want 3", fair != nil, n)
			}
			for want := 0; want < 3; want++ {
				it, _, ok := c.Pick(x)
				if !ok || it.X.id != want {
					t.Fatalf("fair=%v: pick %d returned %+v ok=%v", fair != nil, want, it.X, ok)
				}
			}
		}
	}
}

// A task the caller sheds is refunded: the grant is as it was before the pick,
// so the next task is its first, granted whatever it declares.
func TestRefundedTaskLeavesTheGrantAsItWas(t *testing.T) {
	c := newGrantCore(nil)
	x := c.AddExec("x", 1)
	c.Enqueue(0, dtask{id: 0})
	c.Enqueue(0, dtask{id: 1, d: s1, whole: true})
	c.Enqueue(0, dtask{id: 2})
	g := c.Grant(2, 100*us)
	want := g
	it, _, ok := c.PickWithin(x, &g)
	if !ok || it.X.id != 0 {
		t.Fatalf("first pick: %+v %v", it.X, ok)
	}
	c.Refund(&g, it)
	if g != want {
		t.Fatalf("refunded grant %+v, want %+v", g, want)
	}
	if ids := []int{pickID(c, x, &g), pickID(c, x, &g)}; !reflect.DeepEqual(ids, []int{1, -1}) {
		t.Fatalf("granted %v after the refund, want the 1 s task alone", ids)
	}
}

// pickID is the ID PickWithin picks, or -1.
func pickID(c *Core[string, int, dtask], x *Exec[string], g *Grant) int {
	if it, _, ok := c.PickWithin(x, g); ok {
		return it.X.id
	}
	return -1
}

// A slot the replay timeout takes back marks its executor suspect, all of its
// slots: the executor said nothing. One whose result arrived is not.
func TestExpireMarksTheExecutorSuspect(t *testing.T) {
	c := newGrantCore(nil)
	quiet, live := c.AddExec("quiet", 4), c.AddExec("live", 4)
	c.Assign(10, quiet, 1, Item[dtask]{X: dtask{id: 1}})
	c.Assign(10, live, 2, Item[dtask]{X: dtask{id: 2}})
	if _, ok := c.Complete("live", 2); !ok {
		t.Fatal("result refused")
	}
	if got := c.Expire(20); len(got) != 1 || got[0].Executor != "quiet" {
		t.Fatalf("expired %+v, want quiet's task", got)
	}
	if !quiet.Suspect || live.Suspect || quiet.Free() != 4 || quiet.idlePos < 0 {
		t.Fatalf("Suspect quiet=%v live=%v, quiet free=%d idle=%v; want true false 4 true", quiet.Suspect, live.Suspect, quiet.Free(), quiet.idlePos >= 0)
	}
}
