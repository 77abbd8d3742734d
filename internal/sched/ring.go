// Package sched is the shared scheduling core under both Falkon runtimes:
// the live TCP dispatcher (internal/dispatch) drives it from wall-clock
// time, the virtual-time simulator (internal/simfalkon) from the
// discrete-event clock. The package owns the scheduling state machine the
// paper describes once — the pending FIFO, the executor table with idle
// tracking, the outstanding table, the §3.1 replay policy, and the pick
// policies (next-available and the §6 data-aware extension) — and is
// deliberately transport- and clock-free: every method takes time as an
// explicit argument and reports its effects as return values instead of
// doing I/O, so callers decide what a notification or a replay means in
// their world.
package sched

// Ring is an amortized-O(1) FIFO implemented as a two-index slice ring.
// The endurance experiment (Figure 8) holds up to 1.5 million queued
// tasks, so the queue must not shift elements on every pop; compaction
// keeps memory bounded at 2x the live item count, and a drained queue gives
// its array back.
type Ring[T any] struct {
	items []T
	head  int
}

// compactFloor is the dead-prefix length below which Pop never compacts
// (avoids thrashing tiny queues).
const compactFloor = 1024

// shrinkFloor is the array length up to which a compaction keeps the array
// it compacts in: a queue that cycles through compactFloor items with few of
// them live reuses its array (TestCycleAllocations) instead of growing a new
// one after every compaction.
const shrinkFloor = 8 * compactFloor

// Push appends an item.
func (q *Ring[T]) Push(v T) { q.items = append(q.items, v) }

// Pop removes and returns the oldest item; ok is false when empty.
func (q *Ring[T]) Pop() (T, bool) {
	var zero T
	if q.head >= len(q.items) {
		return zero, false
	}
	v := q.items[q.head]
	q.items[q.head] = zero // release references
	q.head++
	// Compact once the dead prefix dominates, bounding memory at 2x live;
	// into an array sized for the live items once they would fill under an
	// eighth of this one, as an executor's outstanding queue is compacted
	// (outQueue.compact): a drained queue keeps no array its peak grew.
	if q.head > compactFloor && q.head*2 >= len(q.items) {
		live := q.items[q.head:]
		if cap(q.items) > shrinkFloor && len(live) < cap(q.items)/8 {
			q.items = append([]T(nil), live...)
		} else {
			n := copy(q.items, live)
			clearTail(q.items, n)
			q.items = q.items[:n]
		}
		q.head = 0
	}
	return v, true
}

// clearTail zeroes items[n:] so the shrunk slice keeps no references.
func clearTail[T any](items []T, n int) {
	var zero T
	for i := n; i < len(items); i++ {
		items[i] = zero
	}
}

// Len returns the number of queued items.
func (q *Ring[T]) Len() int { return len(q.items) - q.head }

// Window returns up to n items from the queue head without removing them;
// callers must not retain the slice across mutations.
func (q *Ring[T]) Window(n int) []T {
	live := q.items[q.head:]
	if n < len(live) {
		live = live[:n]
	}
	return live
}

// RemoveAt removes the item at offset i from the queue head (as indexed
// into Window's result), preserving the order of the rest.
func (q *Ring[T]) RemoveAt(i int) {
	var zero T
	idx := q.head + i
	copy(q.items[idx:], q.items[idx+1:])
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
}

// DropWhere removes every queued item matching the predicate (instance
// destruction drops a client's tasks this way) and returns how many were
// removed.
func (q *Ring[T]) DropWhere(match func(T) bool) int {
	live := q.items[q.head:]
	kept := live[:0]
	dropped := 0
	for _, v := range live {
		if match(v) {
			dropped++
			continue
		}
		kept = append(kept, v)
	}
	n := q.head + len(kept)
	clearTail(q.items, n)
	q.items = q.items[:n]
	return dropped
}
