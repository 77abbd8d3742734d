package dispatch

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wal"
)

// A snapshot cut — what a journaled dispatcher does under imu and mu every
// SnapshotEvery/2 tasks, and for every standby that attaches — copies each
// task it captures as the queue holds it (DESIGN.md §10, "Snapshots"). With
// 10,000 tasks queued and 1,000 outstanding, it allocates what a cut does
// whatever the queue's depth — the segment the journal rotates to, the
// state, its one array of pending tasks — which reads 0.002–0.003 objects a
// captured task. While the cut decoded each task whole it read 3.00, exactly.
const cutAllocsCeiling = 0.01

func TestSnapshotCutAllocsPerTask(t *testing.T) {
	d := cutSystem(t, t.TempDir(), 10_000, 1_000)
	per := testing.AllocsPerRun(5, func() {
		if _, _, _, err := d.cut(false); err != nil {
			t.Fatal(err)
		}
	}) / 11_000
	t.Logf("budget: %s objects per captured task %.4f <= %.2f", t.Name(), per, cutAllocsCeiling)
	if per > cutAllocsCeiling {
		t.Errorf("a snapshot cut allocates %.4f objects per captured task, budget %.2f", per, cutAllocsCeiling)
	}
}

// A cut copies an instance's buffered results as the dispatcher holds them,
// bytes it never writes again, and decodes them whole for the snapshot only
// once it has let go of imu and mu: under the locks, 64 buffered results of
// 64 KiB of stdout and of stderr each cost the few objects an instance does
// (four, for one instance), not a decode of 8 MiB of output.
func TestSnapshotCutDecodesBufferedResultsOutsideTheLocks(t *testing.T) {
	d := cutSystem(t, t.TempDir(), 0, 0)
	out := strings.Repeat("a line of output\n", 64<<10/17)
	d.imu.Lock()
	d.mu.Lock()
	if len(d.instances) != 1 {
		t.Fatalf("%d instances, want 1", len(d.instances))
	}
	for _, inst := range d.instances {
		inst.mu.Lock()
		for i := range 64 {
			inst.buf = append(inst.buf, task.RelayResult(&task.Result{ID: task.ID(i + 1), Stdout: out, Stderr: out, ExecutorID: "x"}))
		}
		inst.mu.Unlock()
	}
	locked := testing.AllocsPerRun(5, func() { d.captureLocked() })
	d.mu.Unlock()
	d.imu.Unlock()
	if locked > 8 {
		t.Errorf("capturing 64 buffered results under the locks allocates %.0f objects, want at most 8", locked)
	}
	_, st, _, err := d.cut(false)
	if err != nil {
		t.Fatal(err)
	}
	if rs := st.Instances[0].Results; len(rs) != 64 || rs[63].ID != 64 || rs[63].Stdout != out || rs[63].Stderr != out || rs[63].ExecutorID != "x" {
		t.Fatalf("the snapshot holds %d buffered results, want the 64 whole", len(rs))
	}
}

// What a cut and a recovery cost per task, at the queue depths
// FALKON_CUT_QUEUED lists (comma-separated; the test is skipped without it),
// each with 1,000 tasks outstanding besides: the time the cut holds imu and
// mu (the median of five) and its objects, and then the time and objects of
// the journal's recovery of the snapshot it wrote (wal.Recover) and of the
// dispatcher's (Listen: the same recovery, and restore's queueing of every
// task). EXPERIMENTS.md, "A dispatcher never decodes a task whole", has the
// readings.
func TestSnapshotCutCost(t *testing.T) {
	depths := os.Getenv("FALKON_CUT_QUEUED")
	if depths == "" {
		t.Skip("FALKON_CUT_QUEUED unset")
	}
	for _, f := range strings.Split(depths, ",") {
		queued, err := strconv.Atoi(f)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		d := cutSystem(t, dir, queued, 1_000)
		tasks := float64(queued + 1_000)
		var held []time.Duration
		var objects uint64
		var st *wal.State
		var boundary uint64
		for range 5 {
			runtime.GC()
			before := mallocs()
			start := time.Now()
			boundary, st, _, err = d.cut(false)
			held = append(held, time.Since(start))
			objects = mallocs() - before
			if err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
		t.Logf("%d queued: the cut holds the locks %.3f µs a task (%v), and allocates %.3f objects a task",
			queued, float64(held[2].Nanoseconds())/1e3/tasks, held[2], float64(objects)/tasks)
		if err := d.wal.WriteSnapshot(boundary, st); err != nil {
			t.Fatal(err)
		}
		d.Abort()
		st = nil
		runtime.GC()

		before, start := mallocs(), time.Now()
		rst, j, _, err := wal.Recover(dir, wal.Options{})
		decode, decodeObjects := time.Since(start), mallocs()-before
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if len(rst.Pending) != int(tasks) {
			t.Errorf("%d queued: recovered %d tasks, want %.0f", queued, len(rst.Pending), tasks)
			continue
		}
		rst = nil
		runtime.GC()

		r := New(Options{JournalDir: dir, SnapshotEvery: -1, Logf: func(string, ...any) {}})
		before, start = mallocs(), time.Now()
		err = r.Listen("127.0.0.1:0")
		listen, listenObjects := time.Since(start), mallocs()-before
		if err != nil {
			t.Fatal(err)
		}
		if s := r.Stats(); s.Queued != int(tasks) {
			t.Errorf("%d queued: the recovered dispatcher queues %d tasks, want %.0f", queued, s.Queued, tasks)
		}
		r.Abort()
		t.Logf("%d queued: recovery %.3f µs and %.2f objects a task (%v), listen %.3f µs and %.2f objects a task (%v)",
			queued, float64(decode.Nanoseconds())/1e3/tasks, float64(decodeObjects)/tasks, decode,
			float64(listen.Nanoseconds())/1e3/tasks, float64(listenObjects)/tasks, listen)
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// ignore is an executor that is told of work and does nothing with the news.
type ignore struct{}

func (ignore) Notify(string, any) error { return nil }

// cutSystem is a journaled dispatcher that takes no snapshot of its own, with
// queued tasks queued and outstanding more granted to an in-process executor,
// each task of one 16-byte argument, as the repo benchmark's are.
func cutSystem(t *testing.T, dir string, queued, outstanding int) *Dispatcher {
	t.Helper()
	d := New(Options{JournalDir: dir, SnapshotEvery: -1, Logf: func(string, ...any) {}})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Abort)
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) // closing destroys the instance, and its tasks
	var gen task.IDGen
	for left := queued + outstanding; left > 0; left -= 65536 {
		ts := task.Batch(&gen, min(left, 65536), 0)
		for i := range ts {
			ts[i].Args = []string{fmt.Sprintf("%016x", uint64(ts[i].ID))}
		}
		if err := c.Submit(ts); err != nil {
			t.Fatal(err)
		}
	}
	d.Register(fproto.RegisterRequest{ExecutorID: "held", Slots: outstanding}, ignore{})
	for d.held("held") < outstanding {
		if _, err := d.Stock("held", 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.Queued != queued || s.Outstanding != outstanding {
		t.Fatalf("queued %d and outstanding %d, want %d and %d", s.Queued, s.Outstanding, queued, outstanding)
	}
	return d
}
