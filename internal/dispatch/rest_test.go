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
// collection, less the heap before the tasks came, ÷ restTasks — measured
// 230.9–231.9, 398.1–399.1 and 55.2–56.1 bytes at -cpu 1, 2 and 4; each
// ceiling is that plus 15 %:
//
//   - queued (submitted, no executor registered): the bundle's task as the
//     dispatcher holds it — 64 bytes, and its JSON as received, argument and
//     all, in one copy of the bundle — and the queue's 48-byte entry in a ring
//     array grown by appending (58 bytes a task at this depth). While the
//     dispatcher decoded each task whole (a 136-byte task.Task, its Args
//     header and argument) this row read 254–255, and the next 421–422.
//   - outstanding (granted to an executor that has not delivered): the same,
//     and the outstanding table — a 128-byte slot, key and record, at the
//     map's load. While each record was a 104-byte share of an 8 KiB chunk
//     behind a pointer slot this row read 408–409: a slot by value costs ~13
//     bytes a task more while the table is full, and no allocation to fill.
//   - retained once every result is delivered, per task the table once held:
//     nearly all of it the queue ring's array, which keeps its capacity. The
//     outstanding table is rebuilt at its live size once it drains below an
//     eighth of its high-water mark (sched.Core.shrinkOut); without that rule
//     a Go map keeps every slot it grew and this row read 231, and with
//     pointer slots it read 108–109.
const (
	queuedBytesCeiling      = 266
	outstandingBytesCeiling = 458
	retainedBytesCeiling    = 64
)

// discard is an executor inside the test's process that is told of work and
// does nothing with the news: the test asks for the work itself.
type discard struct{}

func (discard) Notify(string, any) error { return nil }

// The dispatcher driven through the seam a tree's links use (Register with a
// Pusher, Stock, Deliver), by a client over loopback: restTasks tasks queued
// with no executor registered, then granted to one in-process executor with a
// slot for each, then delivered. Between the steps, nothing moves.
func TestBytesPerTaskAtRest(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{Logf: func(string, ...any) {}}, client.Options{BundleSize: 4096}, 0, executor.Options{})
	var gen task.IDGen
	// Buffers, pools and per-method instruments reach steady state.
	cycle(t, d, c, &gen, "warm", 4096, func(string) {})
	d.Deregister("warm")

	base := liveHeap()
	perTask := map[string]float64{}
	cycle(t, d, c, &gen, "rest", restTasks, func(stage string) {
		perTask[stage] = float64(int64(liveHeap())-int64(base)) / restTasks
	})
	for _, row := range []struct {
		stage   string
		ceiling float64
	}{
		{"queued", queuedBytesCeiling},
		{"outstanding", outstandingBytesCeiling},
		{"retained", retainedBytesCeiling},
	} {
		t.Logf("%-11s %6.1f bytes per task", row.stage, perTask[row.stage])
		if perTask[row.stage] > row.ceiling {
			t.Errorf("%s: %.1f bytes per task, budget %.0f", row.stage, perTask[row.stage], row.ceiling)
		}
	}
}

// cycle submits n tasks, each with a 16-byte argument of its own as in the
// repo benchmark, registers executor id with n slots, stocks it with all of
// them, and delivers their results, calling at after each step with
// "queued", "outstanding" and "retained".
func cycle(t *testing.T, d *dispatch.Dispatcher, c *client.Client, gen *task.IDGen, id string, n int, at func(stage string)) {
	t.Helper()
	ts := task.Batch(gen, n, 0)
	for i := range ts {
		ts[i].Args = []string{strconv.FormatUint(uint64(ts[i].ID)|1<<60, 16)}
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
// core's 80-byte sched.Exec, the dispatcher's 64-byte execRef, and its entries
// in the core's executor map and idle list (~50 bytes at their load). Measured
// 212.6–213.1 bytes at -cpu 1, 2 and 4; the ceiling is that plus 15 %. A wsrpc
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
	t.Logf("%.1f bytes per registered idle executor", per)
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
