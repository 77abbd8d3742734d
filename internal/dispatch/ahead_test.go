package dispatch_test

// Dispatch-ahead on the live runtime: what the executor's ask and the
// dispatcher's grant promise together, as counts. The rule's two halves have
// table tests of their own (sched.TestGrantClamp, executor.TestPullSizer);
// these hold what only the assembled system can show — long tasks are not
// bundled, and a batch lost with its executor is still delivered once.

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/faultinj"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// grantsSince groups the dispatcher's pulled, acked and pushed trace events
// after seq into grants: the tasks of one grant share an executor and a
// timestamp. It returns the grants, and which grant each task last rode in.
func grantsSince(d *dispatch.Dispatcher, seq uint64) (grants [][]task.ID, grantOf map[task.ID]int) {
	type key struct {
		exec string
		at   time.Duration
	}
	evs, _ := d.Tracer().Since(seq, 0)
	index := make(map[key]int)
	grantOf = make(map[task.ID]int)
	for _, ev := range evs {
		if ev.Kind != obs.EvPulled && ev.Kind != obs.EvAcked && ev.Kind != obs.EvPushed {
			continue
		}
		k := key{ev.Executor, ev.At}
		g, ok := index[k]
		if !ok {
			g = len(grants)
			index[k] = g
			grants = append(grants, nil)
		}
		grants[g] = append(grants[g], ev.Task)
		grantOf[ev.Task] = g
	}
	return grants, grantOf
}

// traceSeq is the sequence number of the dispatcher's newest trace event.
func traceSeq(d *dispatch.Dispatcher) uint64 {
	_, next := d.Tracer().Since(^uint64(0)>>1, 1)
	return next
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// warmUp runs rounds of 256 instant tasks until the dispatcher has answered
// some pull with at least 8 of them: from then on the executors' asks are
// deep, unless a stall of the host lands inside a measured run time (which
// the callers check for, after the fact). It returns the tasks it ran.
func warmUp(t *testing.T, d *dispatch.Dispatcher, c *client.Client, gen *task.IDGen) (ran int) {
	t.Helper()
	for round := 1; round <= 20; round++ {
		seq := traceSeq(d)
		if err := c.Submit(task.Batch(gen, 256, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(256, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		grants, _ := grantsSince(d, seq)
		for _, g := range grants {
			if len(g) >= 8 {
				return round * 256
			}
		}
	}
	t.Fatal("20 rounds of 256 sleep-0 tasks and no pull was ever answered with 8 tasks: dispatch-ahead is not batching")
	return 0
}

// Tasks that say they are long are dispatched one at a time however deep
// the executors ask: after a warm-up that has both executors pulling
// batches, eight declared 50 ms sleeps ride in eight grants of one, and the
// two executors split them evenly.
func TestDeclaredLongTasksAreNotBundled(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{TraceCapacity: 1 << 16}, client.Options{BundleSize: 64}, 2, executor.Options{SleepScale: 1})
	var gen task.IDGen
	warmUp(t, d, c, &gen)

	seq := traceSeq(d)
	long := task.Batch(&gen, 8, 50*time.Millisecond)
	if err := c.Submit(long); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(len(long), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ranOn := make(map[string]int)
	for _, r := range rs {
		ranOn[r.ExecutorID]++
	}
	for exec, n := range ranOn {
		if n < 3 || n > 5 {
			t.Errorf("executor %s ran %d of the 8 long tasks, want 4 (±1): %v", exec, n, ranOn)
		}
	}
	grants, grantOf := grantsSince(d, seq)
	for _, tk := range long {
		if n := len(grants[grantOf[tk.ID]]); n != 1 {
			t.Errorf("task %d (declared 50 ms) rode in a grant of %d", tk.ID, n)
		}
	}
}

// The even share is a hedge against a run time mispredicted from history, and
// work that states none keeps it (sched.Core.Grant): once 2,048 instant func
// tasks have every slot asking for deep batches, four func tasks of 50 ms,
// which state no run time, are cut one a slot, on four one-slot executors and
// on one four-slot executor alike, and take about one task's time. Granted to
// one slot, they would take four.
func TestUnstatedWorkIsCutOverTheFreeSlots(t *testing.T) {
	const slow = 50 * time.Millisecond
	funcs := map[string]executor.Func{
		"instant": func(task.Task) (string, int, error) { return "", 0, nil },
		"slow": func(task.Task) (string, int, error) {
			time.Sleep(slow)
			return "", 0, nil
		},
	}
	for _, row := range []struct {
		name         string
		execs, slots int
	}{{"four one-slot executors", 4, 1}, {"one four-slot executor", 1, 4}} {
		t.Run(row.name, func(t *testing.T) {
			_, c, _ := startSystem(t, dispatch.Options{}, client.Options{BundleSize: 64}, row.execs, executor.Options{Slots: row.slots, Funcs: funcs})
			var gen task.IDGen
			run := func(n int, fn string) time.Duration {
				t.Helper()
				ts := make([]task.Task, n)
				for i := range ts {
					ts[i] = task.Task{ID: gen.Next(), Engine: task.EngineFunc, Command: fn}
				}
				start := time.Now()
				if err := c.Submit(ts); err != nil {
					t.Fatal(err)
				}
				if _, err := c.WaitN(n, 30*time.Second); err != nil {
					t.Fatal(err)
				}
				return time.Since(start)
			}
			run(2048, "instant")
			took := run(4, "slow")
			t.Logf("four func tasks of %v took %v", slow, took)
			if took >= 2*slow {
				t.Fatalf("four func tasks of %v took %v, want about one task's time: they were not cut over the four free slots", slow, took)
			}
		})
	}
}

// cuts is a dispatcher-side wsrpc.ConnFaults that remembers every accepted
// connection, in order, so that a test can sever one.
type cuts struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (f *cuts) DupNotify() bool { return false }

func (f *cuts) WrapConn(c net.Conn) net.Conn {
	f.mu.Lock()
	f.conns = append(f.conns, c)
	f.mu.Unlock()
	return c
}

func (f *cuts) sever(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.conns[i].Close()
}

// Exactly-once through a batch. A victim executor is handed a batch of at
// least 8 tasks whose first blocks on a gate — in the work push itself, the
// victim waiting, or in the reply to the Deliver of a task that rode alone;
// with the batch in its hands it is lost in one of four ways; a survivor
// executor finishes the work. Every task reaches the client once, the lost
// attempts are counted in Retried (or the late results in Duplicates), and the
// dispatcher ends with nothing queued, outstanding or busy. And an executor
// that has gone quiet is not fed: between the replay of the stalled victim's
// batch and its late Deliver it is granted nothing.
func TestBatchLostWithItsExecutorIsDeliveredOnce(t *testing.T) {
	type rig struct {
		d      *dispatch.Dispatcher
		c      *client.Client
		cuts   *cuts
		armed  *atomic.Bool // the victim's next crash hook kills it
		batch  int          // tasks in the victim's gated batch
		seq    uint64       // the dispatcher's trace once the victim holds the batch
		gen    *task.IDGen
		opened func() // opens the gate
	}
	scenarios := []struct {
		name   string
		dopts  dispatch.Options
		faults faultinj.Spec // the victim's; its crash hooks fire every time and kill it once armed
		// lose loses the victim with the gated batch in its hands and
		// returns the extra tasks it submitted, the attempts that must be
		// counted as retried and the results that must be counted as
		// duplicates.
		lose func(t *testing.T, r *rig) (extra int, retried, duplicates int64)
		// late, if set, runs once the client has every result.
		late func(t *testing.T, r *rig)
	}{
		{
			name:   "crashed mid-batch",
			faults: faultinj.Spec{CrashP: 1},
			lose: func(t *testing.T, r *rig) (int, int64, int64) {
				r.armed.Store(true) // dies before the batch's second task
				r.opened()
				return 0, int64(r.batch), 0
			},
		},
		{
			name:   "dies after a K-result Deliver",
			faults: faultinj.Spec{ResultDieP: 1},
			lose: func(t *testing.T, r *rig) (int, int64, int64) {
				// More work, so that the Deliver's reply hands the victim a
				// new batch to die with.
				const more = 16
				if err := r.c.Submit(task.Batch(r.gen, more, 0)); err != nil {
					t.Fatal(err)
				}
				before := r.d.Stats()
				r.armed.Store(true)
				r.opened()
				waitFor(t, "the victim is gone", func() bool { return r.d.Stats().TotalExecutors == 0 })
				st := r.d.Stats()
				if got := st.Completed - before.Completed; got != int64(r.batch) {
					t.Fatalf("the victim delivered %d results before it died, want its batch of %d", got, r.batch)
				}
				if st.Dispatched == before.Dispatched {
					t.Fatal("the Deliver's reply carried no new work for the victim to die with")
				}
				return more, st.Dispatched - before.Dispatched, 0 // what the reply carried is what was lost
			},
		},
		{
			name: "loses its connection before Deliver",
			lose: func(t *testing.T, r *rig) (int, int64, int64) {
				r.cuts.sever(0) // the victim connected first
				waitFor(t, "the dispatcher has dropped the victim", func() bool { return r.d.Stats().TotalExecutors == 0 })
				r.opened() // it finishes the batch and delivers into a dead connection
				return 0, int64(r.batch), 0
			},
		},
		{
			name:  "stalls past the replay timeout, then delivers",
			dopts: dispatch.Options{ReplayTimeout: 200 * time.Millisecond},
			lose: func(t *testing.T, r *rig) (int, int64, int64) {
				waitFor(t, "the batch is replayed", func() bool { return r.d.Stats().Retried >= int64(r.batch) })
				return 0, int64(r.batch), int64(r.batch)
			},
			late: func(t *testing.T, r *rig) {
				// Its slot was freed by the replay timeout, not by the victim:
				// only a pull could have shown that it is alive, and it sent none.
				evs, _ := r.d.Tracer().Since(r.seq, 0)
				for _, ev := range evs {
					if ev.Executor == "exec-0" && (ev.Kind == obs.EvPushed || ev.Kind == obs.EvPulled || ev.Kind == obs.EvAcked) {
						t.Errorf("the stalled victim was granted task %d (%s) before it delivered", ev.Task, ev.Kind)
					}
				}
				r.opened() // the stalled batch finishes and delivers
			},
		},
	}
	for _, sc := range scenarios {
		for _, pushed := range []bool{false, true} {
			how := "holds a pulled batch"
			if pushed {
				how = "holds a pushed batch"
			}
			t.Run(sc.name+"/"+how, func(t *testing.T) {
				var armed atomic.Bool
				// The gate holds the first attempt to pass it until closed.
				var gate atomic.Pointer[chan struct{}]
				entered := make(chan struct{}, 1)
				funcs := map[string]executor.Func{
					"gate": func(task.Task) (string, int, error) {
						if g := gate.Swap(nil); g != nil {
							entered <- struct{}{}
							<-*g
						}
						return "", 0, nil
					},
					"step": func(task.Task) (string, int, error) { return "", 0, nil },
				}
				cut := &cuts{}
				dopts := sc.dopts
				dopts.Faults, dopts.TraceCapacity = cut, 1<<16
				d, c, _ := startSystem(t, dopts, client.Options{BundleSize: 64}, 1, executor.Options{
					Funcs:      funcs,
					SleepScale: 1e-15, // a declared hour is no sleep at all
					Faults:     faultinj.New(sc.faults, nil, nil),
					CrashFunc: func(int) {
						if armed.Load() {
							runtime.Goexit() // the slot dies where it stands; its connection closes behind it
						}
					},
				})
				var gen task.IDGen
				r := &rig{d: d, c: c, cuts: cut, armed: &armed, gen: &gen}
				submitted := 0

				// Hand the victim a gated batch of at least 8. The warm-up leaves it
				// waiting, so a bundle that starts with the gate is granted in the
				// push; one that starts with a task declaring an hour has that task
				// ride the push alone (a task that says it is long is not bundled),
				// and the gated batch comes back on its Deliver. The victim's ask
				// is deep after the warm-up unless the host stalled inside one of
				// the run times it measured; then the batch is let through and the
				// hand-off tried again.
				const gated = 16
				for attempt := 0; r.batch < 8; attempt++ {
					if attempt == 10 {
						t.Fatal("the victim was never handed 8 of 16 queued tasks in one grant")
					}
					submitted += warmUp(t, d, c, &gen)
					g := make(chan struct{})
					gate.Store(&g)
					r.opened = func() { close(g) }
					seq := traceSeq(d)
					tasks := make([]task.Task, gated)
					for i := range tasks {
						tasks[i] = task.Task{ID: gen.Next(), Engine: task.EngineFunc, Command: "step"}
					}
					tasks[0].Command = "gate"
					bundle := tasks
					if !pushed {
						bundle = append([]task.Task{{ID: gen.Next(), Engine: task.EngineSleep, Duration: time.Hour}}, tasks...)
					}
					if err := c.Submit(bundle); err != nil {
						t.Fatal(err)
					}
					submitted += len(bundle)
					select {
					case <-entered:
					case <-time.After(20 * time.Second):
						t.Fatal("the gate task never started")
					}
					if !pushed { // the result that brought the batch
						if _, err := c.WaitN(1, 30*time.Second); err != nil {
							t.Fatal(err)
						}
					}
					grants, grantOf := grantsSince(d, seq)
					if r.batch = len(grants[grantOf[tasks[0].ID]]); r.batch < 8 {
						t.Logf("attempt %d: the gate task rode in a grant of %d, retrying", attempt, r.batch)
						close(g)
						if _, err := c.WaitN(gated, 30*time.Second); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want := obs.EvAcked
					if pushed {
						want = obs.EvPushed
					}
					evs, _ := d.Tracer().Since(seq, 0)
					for _, ev := range evs {
						if ev.Task == tasks[0].ID && ev.Kind != obs.EvEnqueued && ev.Kind != want {
							t.Fatalf("the gated batch reached the victim as %q, want %q", ev.Kind, want)
						}
					}
				}
				r.seq = traceSeq(d)
				settled := d.Stats()
				if settled.Retried != 0 || settled.Duplicates != 0 {
					t.Fatalf("before the fault: retried=%d duplicates=%d, want 0 0", settled.Retried, settled.Duplicates)
				}

				extra, retried, duplicates := sc.lose(t, r)
				submitted += extra
				survivor, err := executor.Start(executor.Options{ID: "survivor", DispatcherAddr: d.Addr(), Funcs: funcs})
				if err != nil {
					t.Fatal(err)
				}
				defer survivor.Stop()

				// The gated tasks and the extra ones are what is still owed.
				rs, err := c.WaitN(gated+extra, 30*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				seen := make(map[task.ID]bool)
				for _, res := range rs {
					if res.Failed() || seen[res.ID] {
						t.Fatalf("bad or repeated result: %+v", res)
					}
					seen[res.ID] = true
				}
				if sc.late != nil {
					sc.late(t, r)
				}
				waitFor(t, fmt.Sprintf("%d duplicates are counted", duplicates), func() bool { return d.Stats().Duplicates >= duplicates })
				select {
				case res := <-c.Results():
					t.Fatalf("a result was delivered twice: %+v", res)
				case <-time.After(100 * time.Millisecond):
				}
				waitFor(t, "the dispatcher is idle", func() bool { return d.Stats().BusyExecutors == 0 })
				st := d.Stats()
				if st.Completed != int64(submitted) || st.Failed != 0 || st.Retried != retried || st.Duplicates != duplicates ||
					st.Queued != 0 || st.Outstanding != 0 {
					t.Fatalf("completed=%d failed=%d retried=%d duplicates=%d queued=%d outstanding=%d, want %d 0 %d %d 0 0",
						st.Completed, st.Failed, st.Retried, st.Duplicates, st.Queued, st.Outstanding, submitted, retried, duplicates)
				}
			})
		}
	}
}

// A bundle that reaches a journal-less dispatcher twice (a forwarder re-sends
// what a restarted leaf owed, twice over) used to put two copies of every task
// in the queue, and a batch deep enough held both copies of a task at once.
// Every node now keeps the set of task IDs it owes, so the second copy is
// dropped at submit: no grant holds a task twice, each task runs once, and
// the executor is left idle and still handed work.
func TestDoublySubmittedBundleLeavesNoBusyExecutor(t *testing.T) {
	d, c, _ := startSystem(t, dispatch.Options{TraceCapacity: 1 << 16}, client.Options{BundleSize: 64}, 0, executor.Options{})
	var gen task.IDGen
	const lead, unique = 64, 16
	// Everything is queued before the executor exists: a lead of instant
	// tasks for its ask to grow on, then the bundle, twice.
	seq := traceSeq(d)
	if err := c.Submit(task.Batch(&gen, lead, 0)); err != nil {
		t.Fatal(err)
	}
	bundle := task.Batch(&gen, unique, 0)
	for copies := 0; copies < 2; copies++ {
		if err := c.Submit(bundle); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Deduped(); got != unique {
		t.Fatalf("the second copy of the bundle came back with %d tasks deduped, want %d", got, unique)
	}
	if st := d.Stats(); st.Queued != lead+unique {
		t.Fatalf("%d tasks queued, want %d: the second copy was queued", st.Queued, lead+unique)
	}
	ex, err := executor.Start(executor.Options{ID: "double", DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Stop()
	if _, err := c.WaitN(lead+unique, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the bundle has drained", func() bool {
		st := d.Stats()
		return st.Queued == 0 && st.Outstanding == 0 && st.BusyExecutors == 0
	})
	grants, _ := grantsSince(d, seq)
	for _, g := range grants {
		held := make(map[task.ID]bool)
		for _, id := range g {
			if held[id] {
				t.Fatalf("a grant held task %v twice: %v", id, g)
			}
			held[id] = true
		}
	}
	if st := d.Stats(); st.Completed != lead+unique || st.Duplicates != 0 {
		t.Fatalf("completed=%d duplicates=%d, want %d and 0", st.Completed, st.Duplicates, lead+unique)
	}
	select {
	case r := <-c.Results():
		t.Fatalf("a second result: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	// And the executor is still offered work.
	if err := c.Submit(task.Batch(&gen, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(1, 10*time.Second); err != nil {
		t.Fatalf("the executor is no longer handed work: %v", err)
	}
}

// A bundle that names one task twice queues it once: the submit checks each
// task against the owed set as it adds it, so the second mention finds the
// first. The reply counts it deduped, and one result comes back.
func TestBundleNamingATaskTwiceRunsItOnce(t *testing.T) {
	for _, opts := range []dispatch.Options{{}, {JournalDir: t.TempDir()}} {
		d, c, _ := startSystem(t, opts, client.Options{BundleSize: 8}, 1, executor.Options{})
		var gen task.IDGen
		ts := task.Batch(&gen, 3, 0)
		ts = append(ts, ts[1], ts[1]) // 1, 2, 3, 2, 2
		if err := c.Submit(ts); err != nil {
			t.Fatal(err)
		}
		if got := c.Deduped(); got != 2 {
			t.Fatalf("journal %q: %d deduped, want 2", opts.JournalDir, got)
		}
		rs, err := c.WaitN(3, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[task.ID]bool{}
		for _, r := range rs {
			if seen[r.ID] {
				t.Fatalf("journal %q: task %v ran twice", opts.JournalDir, r.ID)
			}
			seen[r.ID] = true
		}
		waitFor(t, "the tasks have drained", func() bool { st := d.Stats(); return st.Queued == 0 && st.Outstanding == 0 })
		if st := d.Stats(); st.Submitted != 3 || st.Completed != 3 {
			t.Fatalf("journal %q: submitted=%d completed=%d, want 3 and 3", opts.JournalDir, st.Submitted, st.Completed)
		}
		select {
		case r := <-c.Results():
			t.Fatalf("journal %q: a fourth result: %+v", opts.JournalDir, r)
		case <-time.After(50 * time.Millisecond):
		}
	}
}
