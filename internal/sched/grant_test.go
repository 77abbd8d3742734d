package sched

import (
	"reflect"
	"testing"
	"time"
)

// dtask is a task that may declare its run time; tenant matters only under
// fair-share.
type dtask struct {
	id     int
	d      time.Duration
	tenant string
}

func newGrantCore(fair *FairShare) *Core[string, int, dtask] {
	return NewCore[string, int, dtask](Options[dtask]{
		Declared:  func(t dtask) time.Duration { return t.d },
		Tenant:    func(t dtask) string { return t.tenant },
		FairShare: fair,
	})
}

// grant answers one pull by x the way a runtime does (Share's contract):
// at most Share(asked) tasks, the first from Pick, the rest from PickWithin
// against what is left of budget. It returns the granted task ids, assigned.
func grant(c *Core[string, int, dtask], x *Exec[string], asked int, budget time.Duration) []int {
	var ids []int
	room := Unbounded
	for n := c.Share(asked); len(ids) < n; {
		it, _, ok := c.PickWithin(x, room)
		if !ok {
			break
		}
		if len(ids) == 0 {
			room = budget
		}
		room -= it.X.d
		c.Assign(0, x, it.X.id, it)
		ids = append(ids, it.X.id)
	}
	return ids
}

const (
	us = time.Microsecond
	s1 = time.Second
)

// TestGrantClamp is the dispatcher's half of dispatch-ahead as counts: what
// a sequence of pulls, each asking for `asked`, is granted out of a queue of
// tasks with the given declared run times, spread over execs executors of
// slots slots each (pull i comes from executor i mod execs).
func TestGrantClamp(t *testing.T) {
	zeros := func(n int) []time.Duration { return make([]time.Duration, n) }
	rows := []struct {
		name         string
		declared     []time.Duration
		execs, slots int
		asked        int
		budget       time.Duration
		want         []int // tasks granted, pull by pull
	}{
		{"4 tasks, 4 free one-slot executors, asked 64: 1 each", zeros(4), 4, 1, 64, 100 * us, []int{1, 1, 1, 1, 0}},
		{"4 tasks, one 4-slot executor, asked 64: 1 per pull", zeros(4), 1, 4, 64, 100 * us, []int{1, 1, 1, 1, 0}},
		{"deep queue: the ask is the limit", zeros(512), 4, 1, 64, 100 * us, []int{64, 64, 64, 64}},
		{"share rounds up and shrinks with the queue", zeros(10), 4, 1, 64, 100 * us, []int{3, 2, 2, 1, 1, 1, 0}},
		{"an executor that asks for 1 gets per-task dispatch", zeros(100), 1, 1, 1, 100 * us, []int{1, 1, 1}},
		{"an ask below 1 is an ask for 1", zeros(100), 1, 1, 0, 100 * us, []int{1, 1}},
		{"empty queue", nil, 2, 1, 64, 100 * us, []int{0}},
		{"a declared 1 s task ends the grant and rides alone", []time.Duration{0, 0, 0, s1, 0, 0}, 1, 1, 64, 100 * us, []int{3, 1, 2, 0}},
		{"two long tasks never share a grant", []time.Duration{s1, s1, s1}, 1, 1, 64, 100 * us, []int{1, 1, 1}},
		{"declared times add up to the budget", []time.Duration{40 * us, 40 * us, 40 * us, 40 * us, 40 * us}, 1, 1, 64, 100 * us, []int{2, 2, 1}},
		{"no round trip seen yet: nothing declared is bundled", []time.Duration{us, us, 0, 0}, 1, 1, 64, 0, []int{1, 1, 2}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := newGrantCore(nil)
			xs := make([]*Exec[string], row.execs)
			for i := range xs {
				xs[i] = c.AddExec(string(rune('a'+i)), row.slots)
			}
			for i, d := range row.declared {
				c.Enqueue(0, dtask{id: i, d: d})
			}
			var got []int
			next := 0
			for i := range row.want {
				ids := grant(c, xs[i%len(xs)], row.asked, row.budget)
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

// The share is of the slots registered now: an executor that leaves, or
// re-registers with another width, moves it.
func TestShareFollowsRegisteredSlots(t *testing.T) {
	c := newGrantCore(nil)
	for i := 0; i < 64; i++ {
		c.Enqueue(0, dtask{id: i})
	}
	if got := c.Share(64); got != 64 {
		t.Fatalf("no executor registered: share %d, want the ask", got)
	}
	c.AddExec("a", 1)
	c.AddExec("b", 3)
	if got := c.Share(64); got != 16 {
		t.Fatalf("4 slots: share %d, want 16", got)
	}
	c.AddExec("b", 1) // re-register, narrower
	if got := c.Share(64); got != 32 {
		t.Fatalf("2 slots: share %d, want 32", got)
	}
	c.DropExecutor("a")
	if got := c.Share(64); got != 64 {
		t.Fatalf("1 slot: share %d, want 64", got)
	}
}

// A refused PickWithin leaves the queue as it found it, under every queue
// layout: the same task is what an unrestricted Pick returns next, and
// under fair-share the refusal charges no tenant.
func TestPickWithinRefusalIsNotAPop(t *testing.T) {
	for _, fair := range []*FairShare{nil, {Weights: map[string]float64{"a": 1, "b": 1}}} {
		c := newGrantCore(fair)
		x := c.AddExec("x", 1)
		c.Enqueue(0, dtask{id: 0, d: s1, tenant: "a"})
		c.Enqueue(0, dtask{id: 1, tenant: "b"})
		c.Enqueue(0, dtask{id: 2, tenant: "a"})
		if _, _, ok := c.PickWithin(x, 100*us); ok {
			t.Fatalf("fair=%v: a 1 s task was picked into 100 µs of room", fair != nil)
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

// A second copy of a task that is still outstanding must not leak a slot:
// however the two copies are assigned and completed, Assigned returns to 0,
// the late result counts as a duplicate and the executors are offerable.
func TestAssignTwiceDoesNotLeakASlot(t *testing.T) {
	t.Run("same executor", func(t *testing.T) {
		c := newGrantCore(nil)
		x := c.AddExec("x", 1)
		c.Assign(0, x, 7, Item[dtask]{X: dtask{id: 7}})
		c.Assign(0, x, 7, Item[dtask]{X: dtask{id: 7}})
		if x.Assigned != 1 {
			t.Fatalf("Assigned = %d with one outstanding entry", x.Assigned)
		}
		if _, ok := c.Complete("x", 7); !ok {
			t.Fatal("first result refused")
		}
		if _, ok := c.Complete("x", 7); ok {
			t.Fatal("second result accepted")
		}
		if x.Assigned != 0 || c.Counters.Duplicates != 1 || c.OutstandingLen() != 0 {
			t.Fatalf("Assigned=%d Duplicates=%d outstanding=%d, want 0 1 0", x.Assigned, c.Counters.Duplicates, c.OutstandingLen())
		}
		if !c.Offer(x) {
			t.Fatal("executor not offerable after its only task completed")
		}
	})
	t.Run("two executors", func(t *testing.T) {
		c := newGrantCore(nil)
		a, b := c.AddExec("a", 1), c.AddExec("b", 1)
		c.Assign(0, a, 7, Item[dtask]{X: dtask{id: 7}})
		c.Assign(0, b, 7, Item[dtask]{X: dtask{id: 7}})
		if a.Assigned != 0 || b.Assigned != 1 {
			t.Fatalf("Assigned a=%d b=%d, want 0 1: the entry is b's now", a.Assigned, b.Assigned)
		}
		if !a.Suspect || b.Suspect {
			t.Fatalf("Suspect a=%v b=%v, want true false: a's slot came back without a word from a", a.Suspect, b.Suspect)
		}
		if _, ok := c.Complete("a", 7); ok {
			t.Fatal("the replaced holder's result accepted")
		}
		if _, ok := c.Complete("b", 7); !ok {
			t.Fatal("the holder's result refused")
		}
		if a.Assigned != 0 || b.Assigned != 0 || c.Counters.Duplicates != 1 {
			t.Fatalf("Assigned a=%d b=%d Duplicates=%d, want 0 0 1", a.Assigned, b.Assigned, c.Counters.Duplicates)
		}
		if !c.Offer(a) || !c.Offer(b) {
			t.Fatal("an executor is not offerable with nothing outstanding")
		}
	})
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
	if !quiet.Suspect || live.Suspect || quiet.Free() != 4 || !quiet.Idle() {
		t.Fatalf("Suspect quiet=%v live=%v, quiet free=%d idle=%v; want true false 4 true", quiet.Suspect, live.Suspect, quiet.Free(), quiet.Idle())
	}
}
