//go:build !race

package forward_test

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// treeHopCeiling is what one level of the dispatch tree may add to a task's
// heap allocations. The root is a dispatcher: it decodes the client's bundle,
// queues pointers into it, grants them to a link in a slice the link keeps,
// encodes the grant for the leaf from that, takes the leaf's results through a
// buffer the link keeps and passes them on, and none of that is per task —
// measured 0.24 to 0.26 objects per task over the direct figure in this loop
// at -cpu 1, 2 and 4 (what is left is per frame, and the root's share of an
// outstanding-record chunk per 78 tasks); 0.18 to 0.22 with the root that kept
// its own pending maps instead of a scheduling core, 3.27 to 3.28 while that
// one copied every bundle, boxed a 144-byte pending entry per task and
// allocated each task's argument and its slice again. The ceiling is the old
// measurement plus 15 % plus 0.4 for a tier whose five batches all met a stall
// (one run in 36 read 0.59): one object per task, 1.0, would not pass. The
// repo benchmark's tree-bulk minus direct-bulk is the same quantity end to end.
const treeHopCeiling = 0.65

// The core budget test's loop (internal/core) run twice, with the same two
// executors: under one dispatcher, then one under each of two leaf
// dispatchers behind a root. Every task carries an argument of its own.
func TestTreeHopAllocBudget(t *testing.T) {
	direct := budgetTier(t, false)
	tree := budgetTier(t, true)
	t.Logf("direct %.2f, tree %.2f allocations per task", direct, tree)
	if hop := tree - direct; hop > treeHopCeiling {
		t.Errorf("the tree hop costs %.2f allocations per task (%.2f against %.2f direct), budget %.2f", hop, tree, direct, treeHopCeiling)
	}
}

// budgetTier boots two executors under one dispatcher, or one under each of
// two leaves of a root, and returns the process-wide heap allocations per
// task of the lowest of five 4,096-task batches. On the tree it then restarts
// a leaf in the middle of a batch: what the root replays it finds in its
// outstanding table, through pointers into the bundles it was sent, and every
// task must still come back exactly once.
func budgetTier(t *testing.T, tree bool) float64 {
	t.Helper()
	leaf := func(addr string) *dispatch.Dispatcher {
		d := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d.Listen(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	leaves := []*dispatch.Dispatcher{leaf("127.0.0.1:0")}
	if tree {
		leaves = append(leaves, leaf("127.0.0.1:0"))
	}
	for i := 0; i < 2; i++ {
		ex, err := executor.Start(executor.Options{
			ID: fmt.Sprintf("budget-e%d", i), DispatcherAddr: leaves[i%len(leaves)].Addr(),
			SleepScale: 0.001, Reconnect: true, Backoff: fastBackoff,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
	}
	front := leaves[0].Addr()
	if tree {
		f, err := forward.New(forward.Options{
			Dispatchers: []string{leaves[0].Addr(), leaves[1].Addr()}, Backoff: fastBackoff, Root: dispatch.Options{Logf: t.Logf},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		front = f.Addr()
	}
	c, err := client.Connect(client.Options{DispatcherAddr: front, BundleSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var gen task.IDGen
	submit := func(n int, d time.Duration) {
		t.Helper()
		ts := task.Batch(&gen, n, d)
		for i := range ts {
			// The test's own two objects per task, on both tiers alike.
			ts[i].Args = []string{strconv.FormatUint(uint64(ts[i].ID)|1<<60, 16)}
		}
		if err := c.Submit(ts); err != nil {
			t.Fatal(err)
		}
	}
	run := func(n int) {
		t.Helper()
		submit(n, 0)
		if _, err := c.WaitN(n, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	run(1024) // buffers, pools and per-method instruments reach steady state
	fallbacks := fproto.CodecFallbacks.Value()
	perTask := math.Inf(1)
	for batch := 0; batch < 5; batch++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(4096)
		runtime.ReadMemStats(&m1)
		perTask = min(perTask, float64(m1.Mallocs-m0.Mallocs)/4096)
	}
	if n := fproto.CodecFallbacks.Value() - fallbacks; n != 0 {
		t.Errorf("%d bodies between this repo's own components took the encoding/json fallback", n)
	}
	if !tree {
		return perTask
	}

	// 2 ms each, so that the leaf dies owing most of them.
	submit(512, 2*time.Second)
	addr := leaves[1].Addr()
	leaves[1].Abort()
	leaf(addr)
	rs, err := c.WaitN(512, time.Minute)
	if err != nil {
		t.Fatalf("tasks lost across the leaf restart: %v", err)
	}
	seen := make(map[task.ID]bool, len(rs))
	for _, r := range rs {
		if seen[r.ID] || r.Failed() {
			t.Fatalf("result %+v: duplicate or failed", r)
		}
		seen[r.ID] = true
	}
	return perTask
}
