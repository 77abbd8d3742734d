package sched

// Sharded is what is left of the in-process sharding the dispatcher and the
// simulator once ran on (DESIGN.md §12): N cores and a cross-core FIFO pick.
// Nothing in this repository's product code uses it; the three names below
// are what benchmark/layers.go compiles against for its sched.steal_ns row,
// and they go when a benchmark PR retires that row.
type Sharded[E comparable, K comparable, T any] struct {
	cores []*Core[E, K, T]
}

// NewSharded builds n cores (n < 1 is clamped to 1) sharing one Options.
// Remaining caller: benchmark/layers.go.
func NewSharded[E comparable, K comparable, T any](n int, opts Options[T]) *Sharded[E, K, T] {
	if n < 1 {
		n = 1
	}
	s := &Sharded[E, K, T]{cores: make([]*Core[E, K, T], n)}
	for i := range s.cores {
		s.cores[i] = NewCore[E, K](opts)
	}
	return s
}

// Shard returns core i. Remaining caller: benchmark/layers.go.
func (s *Sharded[E, K, T]) Shard(i int) *Core[E, K, T] { return s.cores[i] }

// StealPick pops the FIFO head of the first non-empty core after home,
// scanning home+1, home+2, ..., and returns it with that core's index.
// Remaining caller: benchmark/layers.go.
func (s *Sharded[E, K, T]) StealPick(home int) (it Item[T], victim int, ok bool) {
	n := len(s.cores)
	for i := 1; i < n; i++ {
		v := (home + i) % n
		if it, ok = s.cores[v].PickAny(); ok {
			return it, v, true
		}
	}
	return it, 0, false
}
