//go:build !race

package forward_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
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

// treeHopBytesCeiling is the same hop's bytes. Since a task's head is 48
// bytes the root saves on its heads what the direct dispatcher does, and the
// hop reads −1 to 2 B a task in most runs: over 600 runs at -cpu 1, 2 and 4
// (two scripts/flakes.sh censuses of 100), −267 to 60 but for two, 120 and
// 157, both at -cpu 4, where now and then three of a tier's five batches
// read 100 to 300 B high. The server once copied each relayed submit's body
// into a fresh buffer: ~97 B a task in this loop's bundles, which reads 85 to
// 111 put back. The ceiling is the highest reading but those two plus 20 %:
// that copy does not pass.
const treeHopBytesCeiling = 72

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
	t.Logf("budget: %s hop allocations per task %.2f <= %.2f", t.Name(), tree-direct, treeHopCeiling)
	t.Logf("budget: %s hop bytes per task %.0f <= %d", t.Name(), treeBytes-directBytes, treeHopBytesCeiling)
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
	front, leaves := bootTier(t, tree, 2, 1, dispatch.Options{})
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

// bootTier boots execs executors of slots slots each under one dispatcher, or
// spread over two leaves of a root, and returns the address a client dials and
// the leaves. opts configures each leaf, and its security profile the
// executors'.
func bootTier(tb testing.TB, tree bool, execs, slots int, opts dispatch.Options) (front string, leaves []*dispatch.Dispatcher) {
	tb.Helper()
	leaf := func(i int) *dispatch.Dispatcher {
		o := opts
		if o.JournalDir != "" {
			o.JournalDir = filepath.Join(opts.JournalDir, strconv.Itoa(i)) // a journal of its own
		}
		return startLeaf(tb, "127.0.0.1:0", o)
	}
	leaves = []*dispatch.Dispatcher{leaf(0)}
	if tree {
		leaves = append(leaves, leaf(1))
	}
	for i := 0; i < execs; i++ {
		startExec(tb, executor.Options{ID: fmt.Sprintf("budget-e%d", i), DispatcherAddr: leaves[i%len(leaves)].Addr(), Slots: slots, PSK: opts.PSK,
			Funcs: map[string]executor.Func{"mixed": mixedFunc, "instant": instantFunc, "stdout": stdoutFunc}})
	}
	if !tree {
		return leaves[0].Addr(), leaves
	}
	f := dispatch.New(dispatch.Options{Leaves: []string{leaves[0].Addr(), leaves[1].Addr()}, Logf: tb.Logf})
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
// no-op), tree tree-bulk (a root over two leaves); no workload of the repo
// benchmark runs the other four: secure is the plain load with every
// connection keyed, so under the secure profile, fair the plain load through a
// dispatcher with eight tenants declared (the client's the first),
// tree-journal the tree over journaled leaves, each with a journal directory
// of its own (a root keeps no journal), and slots the plain load on one
// executor of four slots, which is what one falkon-executor process is
// (DESIGN.md §3), and journal-fsync the journal load with every commit
// fsynced in the benchmark's temporary directory, whose filesystem and device
// it logs: what a disk adds; and mixed the plain load with task lengths that
// differ, which no sleep task of the repo benchmark has: func tasks, which
// declare no run time, of which every 20th sleeps 2 ms and the rest return at
// once (ROADMAP item 4's question, whether a batch holds a short task behind
// a long one); and func the plain load with func tasks that all return at
// once: work that states no run time, which a grant still cuts into even
// shares over the free slots where it hands stated work out whole (the sleep
// tasks of plain); and stdout the func load with each task returning 1 KiB of
// stdout, sixteen lines, where every other row's tasks print nothing: what a
// result's bytes cost a dispatcher that relays them. It reports the process's heap allocations per task, objects
// and bytes, as the repo benchmark counts them, and on linux its read(2) and
// write(2) calls per task, every connection's both ends included, and the
// tasks in a leaf's grant to an executor, on average; tree minus plain is
// what a hop of the tree costs, and slots against plain is one worker
// process against four. A journaled row adds its fsyncs per task, a
// tree row each leaf's share of the tasks, and mixed its tasks/s, the 95th
// percentile of a task's latency (its bundle's submit to its result) and the
// slots' efficiency: the run time its executors reported over four slots'
// wall-clock time.
func BenchmarkBulkRound(b *testing.B) {
	for _, tc := range []struct {
		name                                      string
		tree, journal, fsync, secure, fair, mixed bool
		slots                                     int    // each executor's; four slots in all
		fn                                        string // the func tasks run, "" for sleep 0
	}{
		{name: "plain"}, {name: "journal", journal: true}, {name: "tree", tree: true}, {name: "secure", secure: true},
		{name: "fair", fair: true}, {name: "tree-journal", tree: true, journal: true}, {name: "slots", slots: 4},
		{name: "journal-fsync", journal: true, fsync: true}, {name: "mixed", mixed: true, fn: "mixed"}, {name: "func", fn: "instant"},
		{name: "stdout", fn: "stdout"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var opts dispatch.Options
			switch {
			case tc.fsync:
				opts.JournalDir = b.TempDir()
				b.Logf("journal in %s on %s", opts.JournalDir, mountOf(opts.JournalDir))
			case tc.journal:
				opts.JournalDir, opts.JournalFS = b.TempDir(), noSyncFS{wal.OS}
			}
			if tc.secure {
				opts.PSK = []byte("bulk-round-key")
			}
			var tenant string
			if tc.fair {
				for i := range 8 {
					opts.Tenants = append(opts.Tenants, dispatch.TenantSpec{Name: "tenant-" + strconv.Itoa(i), Weight: 1})
				}
				tenant = opts.Tenants[0].Name
			}
			slots := max(tc.slots, 1)
			front, leaves := bootTier(b, tc.tree, 4/slots, slots, opts)
			fsyncs := func() (n int64) {
				for _, d := range leaves {
					n += d.Stats().JournalFsyncs
				}
				return n
			}
			completed := func() (n []int64) {
				for _, d := range leaves {
					n = append(n, d.Stats().Completed)
				}
				return n
			}
			grants := func() (n, tasks float64) {
				for _, d := range leaves {
					h := d.MetricsSnapshot().Histogram("falkon_dispatch_grant_tasks")
					n, tasks = n+float64(h.Count), tasks+h.Sum
				}
				return n, tasks
			}
			c, err := client.Connect(client.Options{DispatcherAddr: front, BundleSize: bulkBundle, PSK: opts.PSK, Tenant: tenant})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			var gen task.IDGen
			var mixed *mixedLoop
			if tc.mixed {
				mixed = new(mixedLoop)
			}
			closedLoop(b, c, &gen, 1024, tc.fn, mixed)
			n := (b.N + bulkBundle - 1) / bulkBundle * bulkBundle
			if mixed != nil {
				*mixed = mixedLoop{sent: make([]atomic.Int64, n/bulkBundle), lat: make([]time.Duration, 0, n)}
			}
			s0, done0 := fsyncs(), completed()
			g0, gt0 := grants()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r0, w0, counted := obs.Syscalls()
			b.ResetTimer()
			start := time.Now()
			closedLoop(b, c, &gen, n, tc.fn, mixed)
			wall := time.Since(start)
			b.StopTimer()
			r1, w1, _ := obs.Syscalls()
			runtime.ReadMemStats(&m1) // before what reads the counts below allocates
			if g1, gt1 := grants(); g1 > g0 {
				b.ReportMetric((gt1-gt0)/(g1-g0), "tasks/grant")
			}
			if tc.journal {
				b.ReportMetric(float64(fsyncs()-s0)/float64(n), "fsyncs/task")
			}
			if tc.tree {
				for i, done := range completed() {
					b.ReportMetric(float64(done-done0[i])/float64(n), "leaf"+strconv.Itoa(i)+"-share")
				}
			}
			if mixed != nil {
				slices.Sort(mixed.lat)
				b.ReportMetric(float64(n)/wall.Seconds(), "tasks/s")
				b.ReportMetric(float64(mixed.lat[len(mixed.lat)*95/100])/float64(time.Millisecond), "p95-ms")
				b.ReportMetric(float64(mixed.run)/float64(4*wall), "slot-eff")
			}
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

// mixedLoop is what closedLoop keeps of a mixed load: when each bundle was
// submitted (Unix nanoseconds; sent[0] is the bundle of the loop's first task
// ID), each task's latency, and the run time its executor reported, summed.
type mixedLoop struct {
	first task.ID
	sent  []atomic.Int64
	lat   []time.Duration
	run   time.Duration
}

// instantFunc is the func load's task: it returns at once.
func instantFunc(task.Task) (string, int, error) { return "", 0, nil }

// stdoutFunc is the stdout load's task: it returns at once, with stdoutKiB.
func stdoutFunc(task.Task) (string, int, error) { return stdoutKiB, 0, nil }

// stdoutKiB is 1 KiB of output: sixteen 64-byte lines, each ending in a
// newline, which the wire escapes.
var stdoutKiB = strings.Repeat(strings.Repeat("x", 63)+"\n", 16)

// mixedFunc is the mixed load's task: every 20th sleeps 2 ms, the rest return
// at once.
func mixedFunc(t task.Task) (string, int, error) {
	if t.ID%20 == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	return "", 0, nil
}

// closedLoop runs n tasks, a whole number of bundles, through c with at most
// bulkInFlight unanswered: a goroutine submits a bundle whenever there is room
// for one, and this one takes the results. The tasks are `sleep 0`, or with fn
// set the executors' func of that name. With mixed set, their latencies and
// run times are kept there if it has room for them.
func closedLoop(b *testing.B, c *client.Client, gen *task.IDGen, n int, fn string, mixed *mixedLoop) {
	room := make(chan struct{}, bulkInFlight/bulkBundle)
	submitted := make(chan error, 1)
	if mixed != nil {
		mixed.first = gen.Next() + 1 // the IDs are consecutive: this goroutine's, then the submitter's
	}
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
				if fn != "" {
					ts[i].Engine, ts[i].Command = task.EngineFunc, fn
				}
			}
			if k := sent / bulkBundle; mixed != nil && k < len(mixed.sent) {
				mixed.sent[k].Store(time.Now().UnixNano())
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
		case r := <-c.Results():
			if mixed != nil && len(mixed.lat) < cap(mixed.lat) {
				k := int(r.ID-mixed.first) / bulkBundle
				mixed.lat = append(mixed.lat, time.Duration(time.Now().UnixNano()-mixed.sent[k].Load()))
				mixed.run += r.RunTime()
			}
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

// mountOf names the filesystem and device dir is on, from the longest mount
// point in /proc/self/mountinfo that holds it.
func mountOf(dir string) string {
	raw, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "an unknown filesystem"
	}
	best, what := "", "an unknown filesystem"
	for _, line := range strings.Split(string(raw), "\n") {
		// 36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 2 {
			continue
		}
		at := f[4]
		if strings.HasPrefix(dir, at) && (at == "/" || len(dir) == len(at) || dir[len(at)] == '/') && len(at) >= len(best) {
			best, what = at, g[0]+" on "+g[1]+" (mounted at "+at+")"
		}
	}
	return what
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
