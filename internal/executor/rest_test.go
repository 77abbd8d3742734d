//go:build !race

package executor_test

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
)

// restExecutors is how many executors the at-rest test starts.
const restExecutors = 64

// What an executor started through executor.Start holds once it has
// registered, run a batch and gone idle — the live heap after a collection,
// less the heap before, ÷ restExecutors — with the dispatcher's end of its
// connection in the same process: measured 27,526–29,219 bytes at -cpu 1, 2
// and 4 in two 150-run censuses, and 31,362 and 31,489 in each process's first
// run. By a heap profile, about 12 KB of that is the read and cork buffers of
// the connection's two ends, 7 KB the executor's instruments (mostly its
// histograms and the wsrpc client's per-method ones), 4 KB its grant decoders
// and slot scratch, and 1 KB what the dispatcher keeps of a registered
// executor. The ceiling is the highest reading plus 15 %. An executor that
// keeps a trace ring of 8,192 events when no tracer is passed to it holds
// ~292,000 and fails it.
const executorBytesCeiling = 36_100

// TestBytesPerExecutor starts restExecutors one-slot executors against a
// dispatcher, has each run at least one batch, and weighs them once every
// one is idle.
func TestBytesPerExecutor(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: func(string, ...any) {}})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	submitted := 0
	// run submits n tasks of d each and waits for their results, and for
	// execs to have counted them: an executor counts a batch once the
	// Deliver that asked for more came back with none, so it is idle.
	run := func(execs []*executor.Executor, n int, d time.Duration) {
		if err := c.Submit(task.Batch(&gen, n, d)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(n, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		submitted += n
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			ran := 0
			for _, ex := range execs {
				ran += int(ex.TasksRun())
			}
			if ran == submitted {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("executors ran %d tasks, %d submitted", ran, submitted)
			}
		}
	}
	start := func(id string) *executor.Executor {
		ex, err := executor.Start(executor.Options{ID: id, DispatcherAddr: d.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	// Pools, per-method instruments and the dispatcher's first buffers reach
	// steady state through an executor that then goes.
	warm := start("warm")
	run([]*executor.Executor{warm}, 64, 0)
	warm.Stop()
	for d.Stats().TotalExecutors != 0 {
		time.Sleep(time.Millisecond)
	}
	submitted = 0

	execs := make([]*executor.Executor, 0, restExecutors)
	defer func() {
		for _, ex := range execs {
			ex.Stop()
		}
	}()
	base := liveHeap()
	for i := range restExecutors {
		execs = append(execs, start("exec-"+strconv.Itoa(i)))
	}
	// Tasks long enough that no executor takes another's share: each runs
	// a batch, however many rounds that takes.
	for round := 0; ; round++ {
		idle := 0
		for _, ex := range execs {
			if ex.TasksRun() == 0 {
				idle++
			}
		}
		if idle == 0 {
			break
		}
		if round == 20 {
			t.Fatalf("%d of %d executors ran no task in %d rounds", idle, restExecutors, round)
		}
		run(execs, restExecutors, 5*time.Millisecond)
	}
	per := float64(int64(liveHeap())-int64(base)) / restExecutors
	runtime.KeepAlive(execs)
	t.Logf("budget: %s bytes per idle executor that has run a batch %.0f <= %d", t.Name(), per, executorBytesCeiling)
	if per > executorBytesCeiling {
		t.Errorf("%.0f bytes per idle executor that has run a batch, budget %d", per, executorBytesCeiling)
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
