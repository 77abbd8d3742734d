//go:build !race

package dispatch_test

import (
	"encoding/json"
	"runtime"
	"strconv"
	"testing"
	"time"

	"falkon/internal/dispatch"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// restTasks is how deep the at-rest test queues: deep enough that what one
// task weighs is read to a fraction of a byte, and that the outstanding table
// grows far past the size below which it is never rebuilt.
const restTasks = 100_000

// What one dispatcher holds per task at rest — the live heap after a
// collection, less the heap before the tasks came, ÷ restTasks — measured at
// -cpu 1, 2 and 4 for tasks of one argument 154.2–155.2 queued, 209.6
// outstanding and 7.1 retained; 193.5 queued with three arguments; 149.3–151.1
// queued and 1.6–3.5 retained by a journaled dispatcher (171.3–173.1 queued
// while only a journaled instance kept a table of owed task IDs, a Go map);
// and 177.8 queued and 6.2 retained for IDs 1,000 apart. Each ceiling is the
// highest reading plus 15 %, but the retained rows':
//
//   - queued (submitted, no executor registered): the bundle's task as the
//     dispatcher holds it — 48 bytes, and its bytes as received less its ID's
//     and its trace's digits (task.Relayed.Rest: `,"command":"sleep","args":
//     [...]`), every task's in one string of the bundle — and the queue's
//     48-byte entry in a ring array grown by appending (58 bytes a task at
//     this depth), and a bit of the instance's owed set, which the dedupe
//     of a resubmission reads. Two more arguments add 39 bytes, their 19
//     bytes of JSON each. While
//     a head was 64 bytes, with the retry bound and the dataset's string
//     header in it, the rows read 170.2–171.1, 209.4 and 192–198.6; while
//     the dispatcher kept each task's whole JSON, in one copy of the rest of
//     the bundle, these rows read 230.9–232.0, 271.1 and 254.2; while it
//     decoded each task whole (a 136-byte task.Task, its Args header and
//     argument) the first read 254–255, and the next 421–422.
//   - outstanding (granted to an executor that has not delivered): the same
//     but the queue's ring, which gave its array back as it drained, and the
//     executor's outstanding queue — a 104-byte record in an array grown by
//     appending. While the records lived in one Go map (a 128-byte slot, key
//     and record, at the map's load) this row read 263.8–264.9; 279.9–280.9
//     with 64-byte heads as well, and 340.6–341.7 while the whole JSON was
//     kept. While each record was a 104-byte share of an 8 KiB chunk behind a
//     pointer slot it read 408–409, and while the drained ring kept its array
//     398–399.
//   - retained once every result is delivered, per task the queue once held:
//     a drained outstanding queue gives back an array over 8,192 records
//     (sched.outQueue.drain), and the queue's ring likewise (sched.Ring.Pop).
//     What this row reads is buffers the measured cycle's bursts grow past
//     what the warm-up grew — the result push's encoding buffer and the
//     client's send buffer, ~1.1 MB — less warm-up arrays that go (~0.6 MB).
//     While the outstanding table was a Go map, its warm-up had left a ~1 MB
//     map that the cycle rebuilt smaller, and the row read −2.2 to −1.2.
//     Without the ring's rule it read 55–56, with a map that was never
//     rebuilt 231, and with pointer slots 108–109; a drained queue that kept
//     its array would add over 100. The ceiling is 8: a drained ring or
//     queue that keeps its array fails it.
//     The owed set's window shrinks as it drains, and its map is dropped once
//     empty. A journaled dispatcher retains nothing more: its journal keeps
//     two 1 MiB buffers (~10 B a task each at this depth), which its two
//     warm-ups grew. Until they are written, a snapshot cut during the cycle
//     holds its captured state (~12 B a task) and the last deliveries' records
//     a buffer a burst may have grown past 1 MiB, so each reading first waits
//     for both (Dispatcher.SettleJournal; read without it, this row made
//     11.9 to 34.2 in about one run of 15 to 120). While the journal kept a
//     buffer at the size a burst of deliveries grew it to, the row read −6.8
//     to 13.6. Its ceiling is 8 too.
//   - sparse IDs: what an owed set's map costs, for IDs its window cannot
//     hold at one bit each (task.Owed): ~23 bytes a task over dense IDs.
const (
	queuedBytesCeiling            = 179
	outstandingBytesCeiling       = 241
	retainedBytesCeiling          = 8
	queuedThreeArgsBytesCeiling   = 223
	queuedJournaledBytesCeiling   = 204
	retainedJournaledBytesCeiling = 8
	queuedSparseBytesCeiling      = 205
	retainedSparseBytesCeiling    = 8
)

// discard is an executor inside the test's process that is told of work and
// does nothing with the news: the test asks for the work itself.
type discard struct{}

func (discard) Notify(string, any) error { return nil }

// The dispatcher driven through the seam a tree's links use (Register with a
// Pusher, Stock, Deliver), by a bare client over loopback: restTasks tasks queued
// with no executor registered, then granted to one in-process executor with a
// slot for each, then delivered. Between the steps, nothing moves. Each system
// is weighed at the steps it has a ceiling for.
func TestBytesPerTaskAtRest(t *testing.T) {
	for _, sys := range []struct {
		name     string
		opts     dispatch.Options
		args     int
		stride   task.ID // between one task's ID and the next's
		ceilings map[string]float64
	}{
		{"one-argument", dispatch.Options{}, 1, 1, map[string]float64{
			"queued": queuedBytesCeiling, "outstanding": outstandingBytesCeiling, "retained": retainedBytesCeiling}},
		{"three-arguments", dispatch.Options{}, 3, 1, map[string]float64{"queued": queuedThreeArgsBytesCeiling}},
		{"journaled", dispatch.Options{JournalDir: t.TempDir()}, 1, 1, map[string]float64{
			"queued": queuedJournaledBytesCeiling, "retained": retainedJournaledBytesCeiling}},
		{"sparse-ids", dispatch.Options{}, 1, 1000, map[string]float64{
			"queued": queuedSparseBytesCeiling, "retained": retainedSparseBytesCeiling}},
	} {
		t.Run(sys.name, func(t *testing.T) {
			sys.opts.Logf = func(string, ...any) {}
			d := dispatch.New(sys.opts)
			if err := d.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			c := dialBare(t, d.Addr())
			var gen task.IDGen
			// Buffers, pools and per-method instruments reach steady state. A
			// journal's two append buffers are made 1 MiB each by a flush of
			// over 128 KiB, which one warm-up does not always bring both.
			warmups := 1
			if sys.opts.JournalDir != "" {
				warmups = 2
			}
			for range warmups {
				cycle(t, d, c, &gen, "warm", 4096, sys.args, sys.stride, func(string) {})
				d.Deregister("warm")
			}

			base := liveHeap()
			perTask := map[string]float64{}
			cycle(t, d, c, &gen, "rest", restTasks, sys.args, sys.stride, func(stage string) {
				if _, ok := sys.ceilings[stage]; ok {
					if err := d.SettleJournal(); err != nil {
						t.Fatal(err)
					}
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

// bare is a client that keeps nothing of what it submits: a connection, its
// instance, what it decodes each results push into (as a client.Client does),
// and the count of each push. A client.Client keeps every bundle it sent until
// its results are in, ~100 bytes a task that client.TestBytesPerOwedTask
// weighs, and would put them in these readings of what a dispatcher holds.
type bare struct {
	cli  *wsrpc.Client
	epr  string
	push fproto.ResultsNotify
	got  chan int
}

func dialBare(t *testing.T, addr string) *bare {
	t.Helper()
	b := &bare{got: make(chan int, 1024)}
	cli, err := wsrpc.Dial(addr, wsrpc.ClientOptions{OnNotify: func(method string, body json.RawMessage) {
		if method == fproto.NotifyResults && b.push.DecodeJSON(body) == nil {
			b.got <- len(b.push.Results)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	var inst fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "rest"}, &inst); err != nil {
		t.Fatal(err)
	}
	b.cli, b.epr = cli, inst.EPR
	return b
}

// cycle submits n tasks in bundles of 4,096, each task with args 16-byte
// arguments of its own (one, as in the repo benchmark), a trace as a client
// gives it, and an ID stride times one of gen's, registers
// executor id with n slots, stocks it with all of them, and delivers their
// results, calling at after each step with "queued", "outstanding" and
// "retained".
func cycle(t *testing.T, d *dispatch.Dispatcher, c *bare, gen *task.IDGen, id string, n, args int, stride task.ID, at func(stage string)) {
	t.Helper()
	ts := task.Batch(gen, n, 0)
	for i := range ts {
		ts[i].ID *= stride
		ts[i].Trace = 0x9e3779b97f4a7c15 + uint64(ts[i].ID)
		for a := range args {
			ts[i].Args = append(ts[i].Args, strconv.FormatUint(uint64(ts[i].ID)|uint64(a+1)<<60, 16))
		}
	}
	first := ts[0].ID
	for sent := 0; sent < n; sent += 4096 {
		var reply fproto.SubmitReply
		bundle := fproto.SubmitRequest{EPR: c.epr, Tasks: ts[sent:min(n, sent+4096)]}
		if err := c.cli.Call(fproto.MethodSubmit, bundle, &reply); err != nil || reply.Accepted != len(bundle.Tasks) {
			t.Fatalf("submit: %v, accepted %d of %d", err, reply.Accepted, len(bundle.Tasks))
		}
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

	epr := c.epr
	req := fproto.DeliverRequest{ExecutorID: id}
	for i := 0; i < n; i += len(req.Results) {
		req.Results = req.Results[:0]
		for j := i; j < min(n, i+4096); j++ {
			req.Results = append(req.Results, fproto.TaggedResult{EPR: epr, Result: task.Result{ID: first + task.ID(j)*stride}})
		}
		if _, err := d.Deliver(&req); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < n; {
		select {
		case k := <-c.got:
			got += k
		case <-time.After(time.Minute):
			t.Fatalf("%d of %d results pushed", got, n)
		}
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
// core's 96-byte sched.Exec, the dispatcher's 48-byte execRef, and its entries
// in the core's executor map and idle list (~50 bytes at their load). Measured
// 212.6–213.1 bytes at -cpu 1, 2 and 4 while execRef held the allocation label
// nothing read, 196.6 after, and 212.6 since the sched.Exec names its queue of
// outstanding tasks (an 80-byte record until then; an executor that is never
// granted a task has no queue); the ceiling is the first plus 15 %. A wsrpc
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
