package sched

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// busyCore registers execs executors and assigns each held tasks, in turns
// of one task an executor: executor i's j-th task is key j*execs+i,
// dispatched at that time.
func busyCore(execs, held int) (*Core[string, int, payload], []*Exec[string]) {
	c := newTestCore(Options[payload]{})
	xs := make([]*Exec[string], execs)
	for i := range xs {
		xs[i] = c.AddExec("e"+strconv.Itoa(i), held)
	}
	for j := range held {
		for i, x := range xs {
			key := j*execs + i
			c.Assign(time.Duration(key), x, key, Item[payload]{X: payload{id: key}})
		}
	}
	return c, xs
}

// The loss of an executor costs its own tasks: of 4,096 executors holding 64
// tasks each, dropping one hands back its 64 records in grant order, and every
// other executor keeps what it holds.
func TestDropExecutorVisitsOnlyItsOwnTasks(t *testing.T) {
	const execs, held = 4096, 64
	c, xs := busyCore(execs, held)
	gone, dropped := c.DropExecutor("e17")
	if gone != xs[17] || len(dropped) != held {
		t.Fatalf("dropped %d tasks of %v, want %d of e17", len(dropped), gone, held)
	}
	for j, o := range dropped {
		if o.Key != j*execs+17 || o.Executor != "e17" {
			t.Fatalf("dropped task %d is %+v, want key %d held by e17", j, o, j*execs+17)
		}
	}
	if c.OutstandingLen() != (execs-1)*held {
		t.Fatalf("%d outstanding after the drop, want %d", c.OutstandingLen(), (execs-1)*held)
	}
	for i, x := range xs {
		if i != 17 && x.Assigned != held {
			t.Fatalf("e%d holds %d tasks after e17's drop, want %d", i, x.Assigned, held)
		}
	}
}

// The replay sweep reads each queue from its head up to its first record it
// does not expire: one record a queue when it expires nothing, and one past
// what it expires otherwise.
func TestExpireStopsAtEachQueuesFirstUnexpiredRecord(t *testing.T) {
	const execs, held = 4096, 64
	c, xs := busyCore(execs, held)
	visits := 0
	defer func(before func(at, cutoff time.Duration) bool) { dispatchedBefore = before }(dispatchedBefore)
	dispatchedBefore = func(at, cutoff time.Duration) bool { visits++; return at < cutoff }
	if got := c.Expire(0); len(got) != 0 {
		t.Fatalf("expired %d tasks before the first dispatch", len(got))
	}
	if visits != execs {
		t.Fatalf("an Expire that expired nothing read %d records, want one a queue (%d)", visits, execs)
	}
	// Each executor's first two tasks were dispatched before 2*execs.
	visits = 0
	if got := c.Expire(2 * execs); len(got) != 2*execs {
		t.Fatalf("expired %d tasks, want %d", len(got), 2*execs)
	}
	if visits != 3*execs {
		t.Fatalf("an Expire of two tasks a queue read %d records, want three a queue (%d)", visits, 3*execs)
	}
	if x := xs[5]; x.Assigned != held-2 || !x.Suspect {
		t.Fatalf("e5 holds %d (suspect %v) after the expiry, want %d and suspect", x.Assigned, x.Suspect, held-2)
	}
}

// Every completion order gets every task back once, the index is filled only
// for results out of grant order, and a drained queue's is empty.
func TestCompletionOrders(t *testing.T) {
	for _, tc := range []struct {
		name    string
		order   []int
		indexed bool
	}{
		{"grant", grantOrder(300), false},
		{"streams", streamOrder(8, 16), true},
		{"random", rand.New(rand.NewSource(1)).Perm(300), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCore(Options[payload]{})
			x := c.AddExec("x", len(tc.order))
			for round := range 3 {
				base := round * len(tc.order)
				for i := range tc.order {
					c.Assign(time.Duration(base+i), x, base+i, Item[payload]{X: payload{id: base + i}})
				}
				indexed := false
				for _, p := range tc.order {
					o, ok := c.Complete("x", base+p)
					if !ok || o.Item.X.id != base+p {
						t.Fatalf("round %d: task %d completed as %+v, %v", round, base+p, o, ok)
					}
					indexed = indexed || len(c.outOf(x).idx) > 0
				}
				for _, p := range tc.order {
					if _, ok := c.Complete("x", base+p); ok {
						t.Fatalf("round %d: task %d completed twice", round, base+p)
					}
				}
				q := c.outOf(x)
				if indexed != tc.indexed || len(q.idx) != 0 || len(q.recs) != 0 || x.Assigned != 0 || c.OutstandingLen() != 0 {
					t.Fatalf("round %d: indexed %v (want %v); drained queue keeps %d keys, %d records, assigned %d", round, indexed, tc.indexed, len(q.idx), len(q.recs), x.Assigned)
				}
			}
			if c.Counters.Duplicates != int64(3*len(tc.order)) {
				t.Fatalf("%d duplicates counted, want %d", c.Counters.Duplicates, 3*len(tc.order))
			}
		})
	}
}

// A queue that drains gives back an array a burst grew, and keeps one the
// size of a batch; one that never drains still compacts what it has taken,
// so it holds at most about twice what is live.
func TestOutstandingQueueGivesBackCapacity(t *testing.T) {
	c := newTestCore(Options[payload]{})
	x := c.AddExec("x", 1)
	for _, n := range []int{100_000, 64} {
		for i := range n {
			c.Assign(0, x, i, Item[payload]{})
		}
		for i := range n {
			c.Complete("x", i)
		}
		if got, keep := cap(c.outOf(x).recs), n <= shrinkFloor; (got > 0) != keep {
			t.Fatalf("after draining %d tasks the queue keeps room for %d", n, got)
		}
	}
	// One task stays outstanding while 100,000 stream past it.
	c.Assign(0, x, -1, Item[payload]{})
	for i := range 100_000 {
		c.Assign(0, x, i, Item[payload]{})
		c.Complete("x", i)
	}
	if q := c.outOf(x); len(q.recs) > 2*shrinkFloor {
		t.Fatalf("%d records held for 1 live", len(q.recs))
	}
	if _, ok := c.Complete("x", -1); !ok {
		t.Fatal("the first task was lost")
	}
}
