package task

import (
	"math/rand"
	"testing"
)

// An owed set answers as a map of the same IDs does, whatever IDs come and go:
// dense runs (IDGen's), sparse ones that spill to the map, IDs far outside
// any span and below the window's base, and runs that drain, so that the
// window advances and its ring shrinks.
func TestOwedMatchesAMap(t *testing.T) {
	for _, tc := range []struct {
		name string
		next func(r *rand.Rand, i int) ID // the i-th ID added
	}{
		{"dense", func(_ *rand.Rand, i int) ID { return ID(i + 1) }},
		{"sparse", func(_ *rand.Rand, i int) ID { return ID(1000 * (i + 1)) }},
		{"out-of-span", func(r *rand.Rand, i int) ID {
			if r.Intn(50) == 0 {
				return ID(r.Uint64())
			}
			return ID(i + 1)
		}},
		{"below-base", func(r *rand.Rand, i int) ID {
			if r.Intn(20) == 0 && i > 0 {
				return ID(r.Intn(i) + 1) // mostly done already: below the window
			}
			return ID(i + 1)
		}},
		{"jumps", func(r *rand.Rand, i int) ID { return ID(i/500*1_000_000 + i%500 + 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				r := rand.New(rand.NewSource(seed))
				var o Owed
				oracle := map[ID]struct{}{}
				var ids []ID
				check := func(op string, id ID, got, want bool) {
					t.Helper()
					if got != want || o.Len() != len(oracle) {
						t.Fatalf("seed %d: %s(%d) = %v with %d owed, want %v with %d", seed, op, id, got, o.Len(), want, len(oracle))
					}
				}
				next := 0
				for step := 0; step < 20_000; step++ {
					switch op := r.Intn(10); {
					case op < 5 || len(ids) == 0: // add a new ID, or one already owed
						id := tc.next(r, next)
						next++
						if r.Intn(10) == 0 && len(ids) > 0 {
							id = ids[r.Intn(len(ids))]
						}
						_, was := oracle[id]
						oracle[id] = struct{}{}
						ids = append(ids, id)
						check("Add", id, o.Add(id), !was)
					case op < 9: // remove the oldest, mostly, as results of a FIFO come back
						k := 0
						if r.Intn(4) == 0 {
							k = r.Intn(len(ids))
						}
						id := ids[k]
						ids = append(ids[:k], ids[k+1:]...)
						_, was := oracle[id]
						delete(oracle, id)
						check("Remove", id, o.Remove(id), was)
					default: // ask about one owed, one done, one never seen
						for _, id := range []ID{tc.next(r, r.Intn(next+1)), ID(r.Uint64()), 0} {
							_, want := oracle[id]
							check("Has", id, o.Has(id), want)
						}
					}
				}
				for _, id := range ids {
					_, was := oracle[id]
					delete(oracle, id)
					check("Remove", id, o.Remove(id), was)
				}
				if o.Len() != 0 || o.n != 0 || o.far != nil || len(o.words) > minSpan {
					t.Fatalf("seed %d: drained, the set holds %d IDs, a window of %d words, a map of %d and a ring of %d words", seed, o.Len(), o.n, len(o.far), len(o.words))
				}
			}
		})
	}
}

// A window of dense IDs takes one bit an ID; IDs far past a window pinned by
// one long task go to the map until it is done, and then make a window again;
// and adding and removing IDs at a steady span allocates nothing.
func TestOwedStaysAWindow(t *testing.T) {
	var o Owed
	for id := ID(1); id <= 100_000; id++ {
		o.Add(id)
	}
	if o.far != nil || o.n != 100_000/64+1 {
		t.Fatalf("100,000 dense IDs: a window of %d words and a map of %d", o.n, len(o.far))
	}
	for id := ID(2); id <= 100_000; id++ {
		o.Remove(id)
	}
	if o.n != 1 || len(o.words) > minSpan {
		t.Fatalf("one ID left: a window of %d words in a ring of %d", o.n, len(o.words))
	}
	for id := ID(200_001); id <= 200_100; id++ {
		o.Add(id)
	}
	if len(o.far) != 100 || o.inWin != 1 {
		t.Fatalf("past the long task, %d IDs in the window and %d in the map, want 1 and 100", o.inWin, len(o.far))
	}
	o.Remove(1)
	for id := ID(200_101); id <= 300_000; id++ {
		o.Add(id)
		o.Remove(id - 100)
	}
	if o.far != nil || o.inWin != 100 {
		t.Fatalf("once the long task is done, %d IDs in the window and %d in the map, want 100 and 0", o.inWin, len(o.far))
	}
	words := len(o.words)
	next := ID(300_001)
	if n := testing.AllocsPerRun(1000, func() {
		o.Add(next)
		o.Remove(next - 100)
		next++
	}); n != 0 || len(o.words) != words {
		t.Fatalf("%v allocations an ID at a steady span, and the ring went from %d to %d words", n, words, len(o.words))
	}
}
