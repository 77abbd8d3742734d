package sched

import (
	"testing"
	"testing/quick"
)

func TestRingOrder(t *testing.T) {
	var q Ring[int]
	for i := 1; i <= 5; i++ {
		q.Push(i)
	}
	for i := 1; i <= 5; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d, ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestRingLen(t *testing.T) {
	var q Ring[int]
	if q.Len() != 0 {
		t.Fatal("empty queue length nonzero")
	}
	q.Push(1)
	q.Push(2)
	q.Pop()
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
}

func TestRingCompactionPreservesOrder(t *testing.T) {
	var q Ring[int]
	next, want := 1, 1
	for round := 0; round < 50; round++ {
		for i := 0; i < 200; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 150; i++ {
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("pop = %d (ok=%v), want %d", v, ok, want)
			}
			want++
		}
	}
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v != want {
			t.Fatalf("drain pop = %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained to %d, want %d", want, next)
	}
}

func TestRingWindowAndRemoveAt(t *testing.T) {
	var q Ring[string]
	for _, s := range []string{"1", "2", "3", "4", "5"} {
		q.Push(s)
	}
	q.Pop() // head advances
	w := q.Window(3)
	if len(w) != 3 || w[0] != "2" || w[2] != "4" {
		t.Fatalf("window = %v", w)
	}
	q.RemoveAt(1) // removes "3"
	var got []string
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []string{"2", "4", "5"}
	if len(got) != len(want) {
		t.Fatalf("after RemoveAt: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after RemoveAt: %v, want %v", got, want)
		}
	}
}

// TestRingRemoveAtAfterCompaction drives the queue across the compaction
// threshold, then exercises Window/RemoveAt: offsets index into the live
// window, so a compaction (which rebases head to 0) must not shift them.
func TestRingRemoveAtAfterCompaction(t *testing.T) {
	var q Ring[int]
	next := 1
	// Push past the compaction floor, then pop enough that the next pop
	// compacts (head > 1024 and dead prefix >= half the slice).
	for ; next <= 4000; next++ {
		q.Push(next)
	}
	want := 1
	for q.head != 0 || want == 1 { // pop until a compaction has run
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained before compaction")
		}
		if v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
		want++
		if want > 3000 {
			t.Fatal("no compaction after 3000 pops")
		}
	}
	// Post-compaction: window offsets must still line up with removals.
	w := q.Window(4)
	if len(w) != 4 || w[0] != want {
		t.Fatalf("window after compaction = %v, want head %d", w, want)
	}
	q.RemoveAt(2) // removes want+2
	for _, expect := range []int{want, want + 1, want + 3} {
		v, ok := q.Pop()
		if !ok || v != expect {
			t.Fatalf("pop = %d (ok=%v), want %d", v, ok, expect)
		}
	}
}

// TestRingDropWhereAfterCompaction verifies the drop path against a
// compacted queue and that survivors keep FIFO order.
func TestRingDropWhereAfterCompaction(t *testing.T) {
	var q Ring[int]
	for i := 1; i <= 4000; i++ {
		q.Push(i)
	}
	for i := 0; i < 2000; i++ { // exactly crosses the compaction threshold
		q.Pop()
	}
	if q.head != 0 {
		t.Fatalf("slack = %d after deep pops, want compacted", q.head)
	}
	dropped := q.DropWhere(func(v int) bool { return v%2 == 0 })
	if dropped != 1000 {
		t.Fatalf("dropped %d, want 1000", dropped)
	}
	prev := 0
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v%2 == 0 || v <= prev {
			t.Fatalf("bad survivor %d after %d", v, prev)
		}
		prev = v
	}
}

// TestRingMemoryBounded asserts the 2x-live memory bound across a
// sustained push/pop churn — the property that lets the Figure-8
// endurance run hold 1.5M queued tasks without unbounded growth.
func TestRingMemoryBounded(t *testing.T) {
	var q Ring[int]
	for i := 0; i < 500000; i++ {
		q.Push(i)
		if i%3 != 0 { // net growth with heavy churn
			q.Pop()
		}
		if live := q.Len(); live > compactFloor && q.head > live {
			t.Fatalf("dead prefix %d exceeds live %d at op %d (memory > 2x live)",
				q.head, live, i)
		}
	}
	// Drain fully; the bound must hold on the way down too.
	for q.Len() > 0 {
		q.Pop()
		if live := q.Len(); live > compactFloor && q.head > live {
			t.Fatalf("dead prefix %d exceeds live %d during drain", q.head, live)
		}
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order and
// conserves items.
func TestRingPropertyFIFO(t *testing.T) {
	prop := func(ops []bool) bool {
		var q Ring[int]
		next, want := 1, 1
		for _, push := range ops {
			if push {
				q.Push(next)
				next++
			} else {
				v, ok := q.Pop()
				if ok {
					if v != want {
						return false
					}
					want++
				} else if want != next {
					return false // queue claimed empty while items remain
				}
			}
		}
		return q.Len() == next-want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRing measures the queue under sustained load — the structure
// that holds 1.5M pending tasks in the endurance run.
func BenchmarkRing(b *testing.B) {
	b.ReportAllocs()
	var q Ring[int]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		if i%2 == 1 {
			q.Pop()
		}
	}
}

// BenchmarkRingDeep measures pops against a deep queue (compaction path).
func BenchmarkRingDeep(b *testing.B) {
	b.ReportAllocs()
	var q Ring[int]
	for i := 0; i < 100000; i++ {
		q.Push(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}
