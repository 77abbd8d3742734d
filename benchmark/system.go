package main

import (
	"fmt"
	"os"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/wal"
)

// workload is one closed-loop traffic shape through one topology. Every
// workload runs the paper's `sleep 0` task on 4 executors of 1 slot each,
// from one client connection.
type workload struct {
	name string
	why  string
	// journal turns the dispatcher's write-ahead journal on; tree puts a
	// forward.Forwarder root over two leaf dispatchers.
	journal, tree bool
	// bundle is the tasks per Submit call; inflight bounds the tasks
	// submitted and not yet answered.
	bundle, inflight int
	// ratePerSecond converts --seconds into a fixed task count (see
	// sizesFor). Fixed in tasks, not
	// seconds, so memory and allocation figures are per unit of work on
	// both sides of a comparison. It is about what the seed sustains on one
	// core of the 2-core box, so a run measures for about --seconds there.
	ratePerSecond int
	// refNanosPerItem is what the reference loop of this workload's shape
	// takes per item on that box when its host is quiet: the nominal speed
	// that measured times are scaled to (see reference).
	refNanosPerItem float64
}

const executors = 4

var workloads = []workload{
	{
		name:   "direct-bulk",
		why:    "batch path saturated (bundle 64, 512 in flight): wsrpc coalescing, dispatch fx-flush, sched and the executor pull loop do all the work; wal and forward do none",
		bundle: 64, inflight: 512, ratePerSecond: 36000, refNanosPerItem: 3400,
	},
	{
		name:    "journal-bulk",
		why:     "the direct-bulk load with the write-ahead journal on (group commit, fsync stubbed): adds only wal, so the difference from direct-bulk is the WAL's software cost",
		journal: true,
		bundle:  64, inflight: 512, ratePerSecond: 32000, refNanosPerItem: 3400,
	},
	{
		name:   "tree-bulk",
		why:    "the direct-bulk load through a forwarder root over two leaf dispatchers: adds forward and a second wsrpc hop; where a one-node-type tree must show no loss",
		tree:   true,
		bundle: 64, inflight: 512, ratePerSecond: 26000, refNanosPerItem: 3400,
	},
	{
		name:   "direct-serial",
		why:    "bundle 1, one task in flight: nothing is bundled, coalesced or stolen, so the time is hand-off latency; an optimisation that buys throughput with added delay loses here",
		bundle: 1, inflight: 1, ratePerSecond: 17000, refNanosPerItem: 10500,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bootTimes are the spans the benchmark records around its own calls while
// a system boots.
type bootTimes struct {
	register, connect time.Duration
}

// system is the real runtime, booted in-process over loopback TCP.
type system struct {
	w           workload
	dispatchers []*dispatch.Dispatcher
	fwd         *forward.Forwarder
	execs       []*executor.Executor
	cli         *client.Client
	journalDirs []string
	boot        bootTimes
}

// bootSystem starts the dispatcher (or the tree), registers the executors
// and connects the client. journalRoot is where a journaled workload puts
// its journal directory.
func bootSystem(w workload, journalRoot string) (*system, error) {
	s := &system{w: w}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	leaves := 1
	if w.tree {
		leaves = 2
	}
	var addrs []string
	for i := 0; i < leaves; i++ {
		// The dispatcher's defaults, which on the benchmark's one P (see
		// main) mean one scheduling shard: shard routing and stealing are
		// not exercised end to end (sched.steal_ns prices them in the layer
		// ladder). With Shards: 2 on one P, tree-bulk's p50 sat at 12 ms
		// under a p95 of 39 ms and spread by 15 % over six identical runs,
		// against 1-3 % without.
		opts := dispatch.Options{}
		if w.journal {
			dir, err := newJournalDir(journalRoot)
			if err != nil {
				return nil, fmt.Errorf("journal dir: %w", err)
			}
			s.journalDirs = append(s.journalDirs, dir)
			opts.JournalDir = dir
			opts.JournalSync = wal.SyncPolicy{Mode: wal.SyncGroup}
			opts.JournalFS = noSyncFS{wal.OS}
		}
		d := dispatch.New(opts)
		if err := d.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.dispatchers = append(s.dispatchers, d)
		addrs = append(addrs, d.Addr())
	}
	front := addrs[0]
	if w.tree {
		f, err := forward.New(forward.Options{Dispatchers: addrs, Bundle: 64})
		if err != nil {
			return nil, err
		}
		s.fwd = f
		if err := f.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		front = f.Addr()
	}
	t1 := time.Now()
	for i := 0; i < executors; i++ {
		ex, err := executor.Start(executor.Options{
			ID:             fmt.Sprintf("exec-%d", i),
			DispatcherAddr: addrs[i%leaves],
			Slots:          1,
		})
		if err != nil {
			return nil, fmt.Errorf("executor %d: %w", i, err)
		}
		s.execs = append(s.execs, ex)
	}
	t2 := time.Now()
	cli, err := client.Connect(client.Options{DispatcherAddr: front, Name: "benchmark", BundleSize: w.bundle})
	if err != nil {
		return nil, err
	}
	s.cli = cli
	s.boot = bootTimes{register: t2.Sub(t1), connect: time.Since(t2)}
	ok = true
	return s, nil
}

// teardownLimit is how long close waits for a system to stop.
const teardownLimit = 10 * time.Second

// close stops everything the system started and waits for it: client,
// forwarder, executors, dispatchers, then the journal directories.
//
// The forwarder goes before the executors. A leaf pushes a capacity hint to
// its parent whenever an executor leaves, and forward.Forwarder.Close holds
// its mutex while it waits for the leaf connection's read loop, which wants
// the same mutex to absorb the hint: with the executors stopped first, one
// close in about a hundred never returned. This order leaves only the hint
// of the last completion to race with, and 600 closes in a row returned; a
// close that still does not is abandoned, and said so, rather than left to
// hang the run: by then the system is idle and nothing is measured on it.
func (s *system) close() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if s.cli != nil {
			s.cli.Close()
		}
		if s.fwd != nil {
			s.fwd.Close()
		}
		for _, ex := range s.execs {
			ex.Stop()
		}
		for _, d := range s.dispatchers {
			d.Close()
		}
		for _, dir := range s.journalDirs {
			os.RemoveAll(dir)
		}
	}()
	select {
	case <-done:
	case <-time.After(teardownLimit):
		fmt.Fprintf(os.Stderr, "falkon-benchmark: a %s system did not stop within %v: abandoned\n", s.w.name, teardownLimit)
	}
}
