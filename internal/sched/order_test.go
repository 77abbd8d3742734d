package sched

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// BenchmarkCompletionOrder times one task's Assign and Complete on one
// executor, as rounds of grants whose results come back in one of three
// orders:
//
//   - grant: a batch of 64 in the order it was granted, as a one-slot
//     executor (or one slot of a multi-slot one) delivers it;
//   - streams-S: S batches of 16 granted one after another, their results
//     interleaved one at a time, as S slots (or a tree link's S leaf
//     executors) deliver them;
//   - random-N: N granted, their results in a fixed random order.
//
// It uses only the core's exported API, so the same file times any revision.
func BenchmarkCompletionOrder(b *testing.B) {
	type orderCase struct {
		name  string
		order []int // positions in grant order, in the order they complete
	}
	cases := []orderCase{{"grant", grantOrder(64)}}
	for _, s := range []int{8, 64, 512} {
		cases = append(cases, orderCase{"streams-" + strconv.Itoa(s), streamOrder(s, 16)})
	}
	for _, n := range []int{64, 1024, 8192} {
		cases = append(cases, orderCase{"random-" + strconv.Itoa(n), rand.New(rand.NewSource(int64(n))).Perm(n)})
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			c := newTestCore(Options[payload]{})
			x := c.AddExec("x", len(bc.order))
			n, key := len(bc.order), 0
			round := func() {
				for i := range n {
					c.Assign(time.Duration(key+i), x, key+i, Item[payload]{X: payload{id: key + i}})
				}
				for _, p := range bc.order {
					if _, ok := c.Complete("x", key+p); !ok {
						b.Fatalf("task %d refused", key+p)
					}
				}
				key += n
			}
			round() // the executor's table reaches its size
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += n {
				round()
			}
		})
	}
}

// grantOrder is 0, 1, …, n-1.
func grantOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// streamOrder is s runs of length each, granted one run after another, taken
// one from each run in turn.
func streamOrder(s, length int) []int {
	order := make([]int, 0, s*length)
	for k := range length {
		for r := range s {
			order = append(order, r*length+k)
		}
	}
	return order
}
