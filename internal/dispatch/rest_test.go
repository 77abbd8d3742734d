//go:build !race

package dispatch_test

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// restTasks is how deep the at-rest test queues: deep enough that what one
// task weighs is read to a fraction of a byte, and that the outstanding table
// grows far past the size below which it is never rebuilt.
const restTasks = 100_000

// What one dispatcher holds per task at rest — the live heap after a
// collection, less the heap before the tasks came, ÷ restTasks — measured at
// -cpu 1, 2 and 4 for tasks of one argument 154.2–155.1 queued, 263.8–264.8
// outstanding and −2.2 to −1.2 retained; 193.3 queued with three arguments,
// and 171.3–173.1 queued and −7.8 to −5.0 retained by a journaled
// dispatcher (176.3–177.3 queued while it was warmed up once). Each ceiling
// is the highest reading plus 15 %, but the retained rows':
//
//   - queued (submitted, no executor registered): the bundle's task as the
//     dispatcher holds it — 48 bytes, and its bytes as received less its ID's
//     and its trace's digits (task.Relayed.Rest: `,"command":"sleep","args":
//     [...]`), every task's in one string of the bundle — and the queue's
//     48-byte entry in a ring array grown by appending (58 bytes a task at
//     this depth). Two more arguments add 39 bytes, their 19 bytes of JSON
//     each; a journal adds the instance's table of live task IDs, which the
//     dedupe of a resubmission reads (~26 bytes a task at its load). While
//     a head was 64 bytes, with the retry bound and the dataset's string
//     header in it, the rows read 170.2–171.1, 209.4 and 192–198.6; while
//     the dispatcher kept each task's whole JSON, in one copy of the rest of
//     the bundle, these rows read 230.9–232.0, 271.1 and 254.2; while it
//     decoded each task whole (a 136-byte task.Task, its Args header and
//     argument) the first read 254–255, and the next 421–422.
//   - outstanding (granted to an executor that has not delivered): the same
//     but the queue's ring, which gave its array back as it drained, and the
//     outstanding table — a 128-byte slot, key and record, at the map's load.
//     It read 279.9–280.9 with 64-byte heads, and 340.6–341.7 while the
//     whole JSON was kept. While each record was
//     a 104-byte share of an 8 KiB chunk behind a pointer slot this row read
//     408–409: a slot by value costs ~13 bytes a task more while the table is
//     full, and no allocation to fill. While the drained ring kept its array
//     it read 398–399.
//   - retained once every result is delivered, per task the table once held:
//     nothing. The outstanding table is rebuilt at its live size once it
//     drains below an eighth of its high-water mark (sched.Core.shrinkOut),
//     and the queue's ring likewise (sched.Ring.Pop); below zero because the
//     warm-up's ring array went too. Without the ring's rule this row read
//     55–56, without the table's 231, and with pointer slots 108–109. The
//     ceiling is 8 (a reading below zero has no "plus 15 %"): a drained ring
//     that keeps its array fails it. A journaled dispatcher retains nothing
//     more: its instance's table of live task IDs is rebuilt the same way
//     (instance.shrinkLive; without it the row reads 15.5–16.5), and its
//     journal keeps two 1 MiB buffers (~10 B a task each at this depth),
//     which its two warm-ups grew. While the journal kept a buffer at the
//     size a burst of deliveries grew it to, the row read −6.8 to 13.6. Its
//     ceiling is 8 too.
const (
	queuedBytesCeiling            = 179
	outstandingBytesCeiling       = 305
	retainedBytesCeiling          = 8
	queuedThreeArgsBytesCeiling   = 223
	queuedJournaledBytesCeiling   = 204
	retainedJournaledBytesCeiling = 8
)

// discard is an executor inside the test's process that is told of work and
// does nothing with the news: the test asks for the work itself.
type discard struct{}

func (discard) Notify(string, any) error { return nil }

// The dispatcher driven through the seam a tree's links use (Register with a
// Pusher, Stock, Deliver), by a client over loopback: restTasks tasks queued
// with no executor registered, then granted to one in-process executor with a
// slot for each, then delivered. Between the steps, nothing moves. Each system
// is weighed at the steps it has a ceiling for.
func TestBytesPerTaskAtRest(t *testing.T) {
	for _, sys := range []struct {
		name     string
		opts     dispatch.Options
		args     int
		ceilings map[string]float64
	}{
		{"one-argument", dispatch.Options{}, 1, map[string]float64{
			"queued": queuedBytesCeiling, "outstanding": outstandingBytesCeiling, "retained": retainedBytesCeiling}},
		{"three-arguments", dispatch.Options{}, 3, map[string]float64{"queued": queuedThreeArgsBytesCeiling}},
		{"journaled", dispatch.Options{JournalDir: t.TempDir()}, 1, map[string]float64{
			"queued": queuedJournaledBytesCeiling, "retained": retainedJournaledBytesCeiling}},
	} {
		t.Run(sys.name, func(t *testing.T) {
			sys.opts.Logf = func(string, ...any) {}
			d, c, _ := startSystem(t, sys.opts, client.Options{BundleSize: 4096}, 0, executor.Options{})
			var gen task.IDGen
			// Buffers, pools and per-method instruments reach steady state. A
			// journal's two append buffers are made 1 MiB each by a flush of
			// over 128 KiB, which one warm-up does not always bring both.
			warmups := 1
			if sys.opts.JournalDir != "" {
				warmups = 2
			}
			for range warmups {
				cycle(t, d, c, &gen, "warm", 4096, sys.args, func(string) {})
				d.Deregister("warm")
			}

			base := liveHeap()
			perTask := map[string]float64{}
			cycle(t, d, c, &gen, "rest", restTasks, sys.args, func(stage string) {
				if _, ok := sys.ceilings[stage]; ok {
					perTask[stage] = float64(int64(liveHeap())-int64(base)) / restTasks
				}
			})
			for _, stage := range []string{"queued", "outstanding", "retained"} {
				ceiling, ok := sys.ceilings[stage]
				if !ok {
					continue
				}
				t.Logf("budget: %s %s bytes per task %.1f <= %.0f", t.Name(), stage, perTask[stage], ceiling)
				if perTask[stage] > ceiling {
					t.Errorf("%s: %.1f bytes per task, budget %.0f", stage, perTask[stage], ceiling)
				}
			}
		})
	}
}

// cycle submits n tasks, each with args 16-byte arguments of its own (one, as
// in the repo benchmark), registers executor id with n slots, stocks it with
// all of them, and delivers their results, calling at after each step with
// "queued", "outstanding" and "retained".
func cycle(t *testing.T, d *dispatch.Dispatcher, c *client.Client, gen *task.IDGen, id string, n, args int, at func(stage string)) {
	t.Helper()
	ts := task.Batch(gen, n, 0)
	for i := range ts {
		for a := range args {
			ts[i].Args = append(ts[i].Args, strconv.FormatUint(uint64(ts[i].ID)|uint64(a+1)<<60, 16))
		}
	}
	first := ts[0].ID
	if err := c.Submit(ts); err != nil {
		t.Fatal(err)
	}
	at("queued")

	d.Register(fproto.RegisterRequest{ExecutorID: id, Slots: n}, discard{})
	var as []fproto.Relay
	for held := 0; held < n; held += len(as) {
		var err error
		if as, err = d.Stock(id, 1, min(n-held, 4096), as[:0]); err != nil || len(as) == 0 {
			t.Fatalf("stocked %d of %d tasks: %v", held, n, err)
		}
	}
	at("outstanding")

	got := make(chan error, 1)
	go func() {
		_, err := c.WaitN(n, time.Minute)
		got <- err
	}()
	epr := c.EPR()
	req := fproto.DeliverRequest{ExecutorID: id}
	for i := 0; i < n; i += len(req.Results) {
		req.Results = req.Results[:0]
		for j := i; j < min(n, i+4096); j++ {
			req.Results = append(req.Results, fproto.TaggedResult{EPR: epr, Result: task.Result{ID: first + task.ID(j)}})
		}
		if _, err := d.Deliver(&req); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Queued != 0 || st.Outstanding != 0 {
		t.Fatalf("after the deliveries: queued %d, outstanding %d", st.Queued, st.Outstanding)
	}
	at("retained")
}

// idleExecutors is how many executors the idle-executor test registers:
// Figure 9 registers 54,000 with one dispatcher.
const idleExecutors = 10_000

// What a dispatcher holds per registered idle executor, through the seam
// (Register with an in-process Pusher, so no connection): its 16-byte ID, the
// core's 80-byte sched.Exec, the dispatcher's 48-byte execRef, and its entries
// in the core's executor map and idle list (~50 bytes at their load). Measured
// 212.6–213.1 bytes at -cpu 1, 2 and 4 while execRef held the allocation label
// nothing read, 196.6 since; the ceiling is the first plus 15 %. A wsrpc
// connection behind each executor adds ~100 KB: EXPERIMENTS.md "The trace ring
// holds no pointers".
const idleExecutorBytesCeiling = 245

// TestBytesPerIdleExecutor registers idleExecutors executors of one slot each
// with a dispatcher that has no work, and weighs them.
func TestBytesPerIdleExecutor(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: func(string, ...any) {}})
	t.Cleanup(func() { d.Close() })
	d.Register(fproto.RegisterRequest{ExecutorID: "warm", Slots: 1}, discard{})
	d.Deregister("warm")
	base := liveHeap()
	for i := range idleExecutors {
		d.Register(fproto.RegisterRequest{ExecutorID: "exec-" + strconv.Itoa(i), Slots: 1}, discard{})
	}
	per := float64(int64(liveHeap())-int64(base)) / idleExecutors
	if st := d.Stats(); st.TotalExecutors != idleExecutors {
		t.Fatalf("%d executors registered, want %d", st.TotalExecutors, idleExecutors)
	}
	t.Logf("budget: %s bytes per registered idle executor %.1f <= %d", t.Name(), per, idleExecutorBytesCeiling)
	if per > idleExecutorBytesCeiling {
		t.Errorf("%.1f bytes per registered idle executor, budget %d", per, idleExecutorBytesCeiling)
	}
}

// liveHeap is the heap in use once a collection has run: two, so that what
// sync.Pools dropped at the first is gone at the second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
