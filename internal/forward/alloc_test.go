//go:build !race

package forward_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
	"falkon/internal/wal"
)

// treeHopCeiling is what one level of the dispatch tree may add to a task's
// heap allocations. The root is a dispatcher: it decodes the client's bundle,
// queues pointers into it, grants them to a link in a slice the link keeps,
// encodes the grant for the leaf from that, takes the leaf's results through a
// buffer the link keeps and passes them on, and none of that is per task —
// measured 0.08 to 0.10 objects per task over the direct figure in this loop
// at -cpu 1, 2 and 4, all of it per frame (0.10 to 0.11 while the server
// copied every relayed submit's body into a fresh buffer and the link
// allocated the EPR of every result push; 0.11 to 0.12 while the root's
// outstanding records came in chunks of 78, and 0.24 to 0.26 when the root
// became a dispatcher); 0.18 to 0.22 with the root that kept its own pending
// maps instead of a scheduling core, 3.27 to 3.28 while that one copied every
// bundle, boxed a 144-byte pending entry per task and allocated each task's
// argument and its slice again. The ceiling is the old measurement plus 15 %
// plus 0.4 for a tier whose batches met a stall (one run in 36 read 0.59
// when the figure was the lowest of five): one object per task, 1.0, would
// not pass. The repo benchmark's tree-bulk minus direct-bulk is the same
// quantity end to end.
const treeHopCeiling = 0.65

// treeHopBytesCeiling is the same hop's bytes: 80 to 82 per task in most
// runs, 56 to 106 over 300 at -cpu 1, 2 and 4 (0.08 to 0.10 objects). It was
// 164 to 192, and 142 once, while the server copied each relayed submit's
// body into a fresh buffer: about 88 B a task in this loop's 4,096-task
// bundles. The ceiling is the old highest measurement plus 15 %, and 8 more
// for a run in which both tiers stray against it; the old copy does not pass.
const treeHopBytesCeiling = 130

// The core budget test's loop (internal/core) on two systems booted side by
// side, with the same two executors: under one dispatcher, and one under each
// of two leaf dispatchers behind a root. Every task carries an argument of
// its own. Each tier's figure is the median of five 4,096-task batches, and
// the tiers' batches alternate (direct, tree, direct, tree, ...), so both
// come from the same stretch of the process's life. The collector is off
// while they run: a collection empties the dispatcher's per-P pools of
// scratch, and what the batches after it grow again depends on which P each
// handler ran on, 25 to 100 B a task at -cpu 4. Now and then a batch still
// reads 100 B a task under its tier's usual figure, which is why the figure
// is the median and not the lowest.
func TestTreeHopAllocBudget(t *testing.T) {
	tiers := [2]*budgetTier{newBudgetTier(t, false), newBudgetTier(t, true)}
	fallbacks := fproto.CodecFallbacks.Value()
	var objects, bytes [2][]float64
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // ten batches: about 55 MB
	for batch := 0; batch < 5; batch++ {
		for i, tier := range tiers {
			o, b := tier.batch(t)
			objects[i], bytes[i] = append(objects[i], o), append(bytes[i], b)
		}
	}
	if n := fproto.CodecFallbacks.Value() - fallbacks; n != 0 {
		t.Errorf("%d bodies between this repo's own components took the encoding/json fallback", n)
	}
	direct, tree := median(objects[0]), median(objects[1])
	directBytes, treeBytes := median(bytes[0]), median(bytes[1])
	t.Logf("direct %.2f, tree %.2f allocations per task; direct %.0f, tree %.0f bytes", direct, tree, directBytes, treeBytes)
	if hop := tree - direct; hop > treeHopCeiling {
		t.Errorf("the tree hop costs %.2f allocations per task (%.2f against %.2f direct), budget %.2f", hop, tree, direct, treeHopCeiling)
	}
	if hop := treeBytes - directBytes; hop > treeHopBytesCeiling {
		t.Errorf("the tree hop costs %.0f bytes per task (%.0f against %.0f direct), budget %d", hop, treeBytes, directBytes, treeHopBytesCeiling)
	}
	tiers[1].restartLeaf(t)
}

func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// budgetTier is a client of two executors under one dispatcher, or of one
// under each of two leaves of a root.
type budgetTier struct {
	c      *client.Client
	gen    task.IDGen
	leaves []*dispatch.Dispatcher
}

// newBudgetTier boots a tier and runs two batches of the size measured, after
// which its buffers, pools and per-method instruments have stopped growing:
// the first two batches after a smaller one read 300 to 1,000 B a task more.
func newBudgetTier(t *testing.T, tree bool) *budgetTier {
	t.Helper()
	front, leaves := bootTier(t, tree, 2, dispatch.Options{})
	c, err := client.Connect(client.Options{DispatcherAddr: front, BundleSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	b := &budgetTier{c: c, leaves: leaves}
	b.run(t, 4096)
	b.run(t, 4096)
	return b
}

func (b *budgetTier) submit(t *testing.T, n int, d time.Duration) {
	t.Helper()
	ts := task.Batch(&b.gen, n, d)
	for i := range ts {
		// Every ID has the same number of digits, so every bundle has the
		// same size: a bundle a few bytes longer than the last outgrows the
		// buffer the server copies it into, and a fresh one reads 110 B a
		// task.
		ts[i].ID += 1 << 40
		// The test's own two objects per task, on both tiers alike.
		ts[i].Args = []string{strconv.FormatUint(uint64(ts[i].ID)|1<<60, 16)}
	}
	if err := b.c.Submit(ts); err != nil {
		t.Fatal(err)
	}
}

func (b *budgetTier) run(t *testing.T, n int) {
	t.Helper()
	b.submit(t, n, 0)
	if _, err := b.c.WaitN(n, time.Minute); err != nil {
		t.Fatal(err)
	}
}

// batch runs 4,096 tasks and returns the process-wide heap allocations per
// task, objects and bytes.
func (b *budgetTier) batch(t *testing.T) (objects, bytes float64) {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.run(t, 4096)
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / 4096, float64(m1.TotalAlloc-m0.TotalAlloc) / 4096
}

// restartLeaf restarts a tree tier's second leaf in the middle of a batch:
// what the root replays it finds in its outstanding table, through pointers
// into the bundles it was sent, and every task must still come back exactly
// once.
func (b *budgetTier) restartLeaf(t *testing.T) {
	t.Helper()
	// 2 ms each, so that the leaf dies owing most of them.
	b.submit(t, 512, 2*time.Second)
	addr := b.leaves[1].Addr()
	b.leaves[1].Abort()
	startLeaf(t, addr, dispatch.Options{})
	rs, err := b.c.WaitN(512, time.Minute)
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
}

// bootTier boots execs one-slot executors under one dispatcher, or spread
// over two leaves of a root, and returns the address a client dials and the
// leaves. opts configures each leaf.
func bootTier(tb testing.TB, tree bool, execs int, opts dispatch.Options) (front string, leaves []*dispatch.Dispatcher) {
	tb.Helper()
	leaves = []*dispatch.Dispatcher{startLeaf(tb, "127.0.0.1:0", opts)}
	if tree {
		leaves = append(leaves, startLeaf(tb, "127.0.0.1:0", opts))
	}
	for i := 0; i < execs; i++ {
		startExec(tb, executor.Options{ID: fmt.Sprintf("budget-e%d", i), DispatcherAddr: leaves[i%len(leaves)].Addr()})
	}
	if !tree {
		return leaves[0].Addr(), leaves
	}
	f, err := forward.New(forward.Options{
		Dispatchers: []string{leaves[0].Addr(), leaves[1].Addr()}, Backoff: fastBackoff, Root: dispatch.Options{Logf: tb.Logf},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	return f.Addr(), leaves
}

// The repo benchmark's bulk load, one task an op, in a form a profiler can
// be pointed at (./scripts/allocs.sh -bench 'BenchmarkBulkRound/tree'
// ./internal/forward/ prints who allocates what): four one-slot executors,
// bundles of 64 from one client connection, 512 tasks in flight in a closed
// loop. plain is direct-bulk, journal journal-bulk (group commit, fsync a
// no-op), tree tree-bulk (a root over two leaves). It reports the process's
// heap allocations per task, objects and bytes, as the repo benchmark counts
// them, and on linux its read(2) and write(2) calls per task, every
// connection's both ends included; tree minus plain is what a hop of the tree
// costs.
func BenchmarkBulkRound(b *testing.B) {
	for _, tc := range []struct {
		name          string
		tree, journal bool
	}{{"plain", false, false}, {"journal", false, true}, {"tree", true, false}} {
		b.Run(tc.name, func(b *testing.B) {
			var opts dispatch.Options
			if tc.journal {
				opts.JournalDir, opts.JournalFS = b.TempDir(), noSyncFS{wal.OS}
			}
			front, _ := bootTier(b, tc.tree, 4, opts)
			c, err := client.Connect(client.Options{DispatcherAddr: front, BundleSize: bulkBundle})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			var gen task.IDGen
			closedLoop(b, c, &gen, 1024)
			n := (b.N + bulkBundle - 1) / bulkBundle * bulkBundle
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r0, w0, counted := obs.Syscalls()
			b.ResetTimer()
			closedLoop(b, c, &gen, n)
			b.StopTimer()
			r1, w1, _ := obs.Syscalls()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(n), "allocs/task")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), "B/task")
			if counted {
				b.ReportMetric(float64(r1-r0)/float64(n), "reads/task")
				b.ReportMetric(float64(w1-w0)/float64(n), "writes/task")
			}
		})
	}
}

const (
	bulkBundle   = 64
	bulkInFlight = 512
)

// closedLoop runs n tasks, a whole number of bundles, through c with at most
// bulkInFlight unanswered: a goroutine submits a bundle whenever there is room
// for one, and this one takes the results.
func closedLoop(b *testing.B, c *client.Client, gen *task.IDGen, n int) {
	room := make(chan struct{}, bulkInFlight/bulkBundle)
	submitted := make(chan error, 1)
	go func() {
		// The argument's string is the loop's one object per task, as in the
		// repo benchmark: the tasks and their Args arrays are reused.
		ts, args := make([]task.Task, bulkBundle), make([][1]string, bulkBundle)
		for sent := 0; sent < n; sent += bulkBundle {
			room <- struct{}{}
			for i := range ts {
				ts[i] = task.Sleep(gen.Next(), 0)
				args[i][0] = strconv.FormatUint(uint64(ts[i].ID)|1<<60, 16)
				ts[i].Args = args[i][:]
			}
			if err := c.Submit(ts); err != nil {
				submitted <- err
				return
			}
		}
		submitted <- nil
	}()
	for got := 0; got < n || submitted != nil; {
		select {
		case <-c.Results():
			if got++; got%bulkBundle == 0 {
				<-room
			}
		case err := <-submitted:
			if err != nil {
				b.Fatal(err)
			}
			submitted = nil
		}
	}
}

// noSyncFS is the real filesystem with fsync a no-op, as the repo benchmark
// runs its journal: the journal's software cost without a device's latency.
type noSyncFS struct{ wal.FS }

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }

func (fs noSyncFS) Create(name string, excl bool) (wal.File, error) {
	f, err := fs.FS.Create(name, excl)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }
