// Command falkon-chaos runs a real multi-process Falkon deployment —
// dispatcher, executors, and a reconnecting client — under a seeded fault
// schedule, then asserts the system's end-to-end invariants:
//
//   - exactly-once: N submitted tasks yield exactly N results with N
//     distinct task IDs, none lost, none delivered twice;
//   - no stuck work: once the workload completes, the dispatcher reports
//     an empty queue and no outstanding tasks;
//   - clean recovery: after a final SIGKILL + restart, the recovered
//     dispatcher still reports nothing pending and serves metrics.
//
// The fault schedule — per-process injector specs, the dispatcher kill
// times, the workload's task durations — is a pure function of -seed, so a
// failing run reproduces with the same seed:
//
//	falkon-chaos -seed 42
//	falkon-chaos -seed 1 -sweep 30        # acceptance sweep
//	falkon-chaos -seed 7 -quick           # CI smoke
//
// Child processes are the real binaries (cmd/falkon-dispatcher,
// cmd/falkon-executor), built on first use; dispatcher crashes (injected
// kills, journal fail-stops, executor faults) are supervised and restarted
// the way an operator's init system would.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"falkon/internal/client"
	"falkon/internal/faultinj"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// cfg carries one run's parameters, all derived from flags and the seed.
type cfg struct {
	seed      uint64
	tasks     int
	execs     int
	slots     int
	kills     int
	tree      int
	treeDepth int
	standbys  int
	binDir    string
	workDir   string
	verbose   bool
	waitFor   time.Duration
	maxSleep  time.Duration
}

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "master seed driving the entire fault schedule")
		sweep    = flag.Int("sweep", 1, "run this many consecutive seeds (all must pass)")
		tasks    = flag.Int("tasks", 200, "tasks to submit per run")
		execs    = flag.Int("execs", 3, "executor processes")
		slots    = flag.Int("slots", 2, "slots per executor")
		kills    = flag.Int("kills", 2, "scheduled dispatcher SIGKILLs per run")
		quick    = flag.Bool("quick", false, "small fast run for CI smoke (overrides -tasks/-execs/-kills)")
		keep     = flag.Bool("keep", false, "keep work directories (logs, journals) after a passing run")
		verbose  = flag.Bool("v", false, "stream child process logs to stderr")
		tree     = flag.Int("tree", 0, "dispatch-tree leaves: boot 1 forwarder root + N journaled leaf dispatchers, SIGKILL leaves instead of the dispatcher (0 = flat single dispatcher)")
		treeDeep = flag.Int("tree-depth", 2, "dispatch-tree levels with -tree: 2 = root over leaves, ≥3 adds forwarder-of-forwarders layers between them")
		standbys = flag.Int("standbys", 0, "HA cluster: boot 1 leader + N standby dispatchers sharing an election lease, SIGKILL whoever leads (0 = no HA)")
		binDir   = flag.String("bin", "", "directory holding the falkon binaries (empty = go build into the work area)")
		waitFor  = flag.Duration("timeout", 2*time.Minute, "per-run workload completion timeout")
		maxSleep = flag.Duration("max-sleep", 20*time.Millisecond, "every task sleeps a seed-derived time in [0, this); 0 makes them all `sleep 0`, which executors pull in batches, so the kills and injected crashes land on processes that hold one")
	)
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	c := cfg{
		seed: *seed, tasks: *tasks, execs: *execs, slots: *slots, kills: *kills,
		tree: *tree, treeDepth: *treeDeep, standbys: *standbys,
		binDir: *binDir, verbose: *verbose, waitFor: *waitFor,
		maxSleep: *maxSleep,
	}
	if c.treeDepth < 2 {
		c.treeDepth = 2
	}
	if *quick {
		c.tasks, c.execs, c.kills = 60, 2, 1
		if c.waitFor > time.Minute {
			c.waitFor = time.Minute
		}
	}
	// The HA acceptance bar is a chain of consecutive failovers, not one:
	// give the full (non-quick) run at least three leader kills.
	if c.standbys > 0 && !*quick && c.kills < 3 {
		c.kills = 3
	}

	if c.binDir == "" {
		dir, err := os.MkdirTemp("", "falkon-chaos-bin-")
		if err != nil {
			log.Fatalf("falkon-chaos: %v", err)
		}
		defer os.RemoveAll(dir)
		log.Printf("building binaries into %s", dir)
		build := exec.Command("go", "build", "-o", dir, "./cmd/falkon-dispatcher", "./cmd/falkon-executor", "./cmd/falkon-forwarder")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			log.Fatalf("falkon-chaos: go build: %v", err)
		}
		c.binDir = dir
	}

	failed := 0
	for i := 0; i < *sweep; i++ {
		run := c
		run.seed = c.seed + uint64(i)
		var err error
		switch {
		case run.standbys > 0:
			err = runStandbysOne(run, *keep)
		case run.tree > 0:
			err = runTreeOne(run, *keep)
		default:
			err = runOne(run, *keep)
		}
		if err != nil {
			failed++
			fmt.Printf("FAIL seed=%d: %v\n", run.seed, err)
			fmt.Printf("REPRODUCE: go run ./cmd/falkon-chaos -seed %d -tasks %d -execs %d -slots %d -kills %d -tree %d -tree-depth %d -standbys %d -max-sleep %v\n",
				run.seed, run.tasks, run.execs, run.slots, run.kills, run.tree, run.treeDepth, run.standbys, run.maxSleep)
		}
	}
	if failed > 0 {
		fmt.Printf("chaos: %d/%d seeds FAILED\n", failed, *sweep)
		os.Exit(1)
	}
	fmt.Printf("chaos: %d/%d seeds passed\n", *sweep, *sweep)
}

// runOne executes a full chaos run for one seed.
func runOne(c cfg, keep bool) (err error) {
	c.workDir, err = os.MkdirTemp("", fmt.Sprintf("falkon-chaos-%d-", c.seed))
	if err != nil {
		return err
	}
	defer func() {
		if err == nil && !keep {
			os.RemoveAll(c.workDir)
		} else {
			log.Printf("seed %d: work dir kept at %s", c.seed, c.workDir)
		}
	}()

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	journal := filepath.Join(c.workDir, "journal")

	// The whole schedule derives from the seed. Print it up front: two runs
	// with the same seed print — and execute — the same schedule.
	dspec := dispatcherSpec(c.seed, 0)
	especs := make([]string, c.execs)
	for i := range especs {
		especs[i] = executorSpec(c.seed, i, 0).String()
	}
	killAts := killSchedule(c)
	log.Printf("seed %d schedule: dispatcher=%q executors=%q kills=%v", c.seed, dspec.String(), especs, killAts)

	// Dispatcher under supervision: restarted after injected kills and
	// journal fail-stops, always recovering from the same journal dir.
	disp := newSuper("dispatcher", c, func(restart int) *exec.Cmd {
		spec := dispatcherSpec(c.seed, restart)
		return exec.Command(filepath.Join(c.binDir, "falkon-dispatcher"),
			"-addr", addr,
			"-journal-dir", journal,
			"-journal-sync", "group",
			"-snapshot-every", "200",
			"-replay-timeout", "500ms",
			"-max-retries", "50",
			"-stats-every", "0",
			"-faults", spec.String(),
		)
	})
	defer disp.stop()
	if err := waitListening(addr, 10*time.Second); err != nil {
		return fmt.Errorf("dispatcher never listened: %w", err)
	}

	// Executors under supervision: injected crashes (crash mid-task,
	// result-then-die) kill the process; the supervisor restarts it with a
	// fresh derived seed so a first-op crash can't loop forever.
	sups := make([]*super, c.execs)
	for i := 0; i < c.execs; i++ {
		i := i
		sups[i] = newSuper(fmt.Sprintf("executor-%d", i), c, func(restart int) *exec.Cmd {
			return exec.Command(filepath.Join(c.binDir, "falkon-executor"),
				"-dispatcher", addr,
				"-name", fmt.Sprintf("chaos-ex%d", i),
				"-slots", fmt.Sprint(c.slots),
				"-reconnect",
				"-reconnect-timeout", "60s",
				"-faults", executorSpec(c.seed, i, restart).String(),
			)
		})
		defer sups[i].stop()
	}

	// Scheduled dispatcher SIGKILLs — the disk-level crash story.
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		start := time.Now()
		for _, at := range killAts {
			d := time.Until(start.Add(at))
			if d > 0 {
				select {
				case <-time.After(d):
				case <-disp.stopped:
					return
				}
			}
			log.Printf("seed %d: SIGKILL dispatcher (scheduled %v)", c.seed, at)
			disp.kill()
		}
	}()

	// The reconnecting client, in-process, with its own transport faults.
	// The registry collects falkon_fault_injected_total{fault=...} for the
	// final report.
	creg := obs.NewRegistry()
	cinj := faultinj.New(clientSpec(c.seed), creg, nil)
	var cl *client.Client
	for attempt := 0; ; attempt++ {
		cl, err = client.Connect(client.Options{
			DispatcherAddr:   addr,
			Name:             "falkon-chaos",
			BundleSize:       20,
			Reconnect:        true,
			ReconnectTimeout: 60 * time.Second,
			Faults:           cinj,
		})
		if err == nil {
			break
		}
		if attempt > 100 {
			return fmt.Errorf("client connect: %w", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer cl.Close()

	// Workload: sleep tasks with seed-derived durations.
	var gen task.IDGen
	ts := make([]task.Task, c.tasks)
	for i := range ts {
		ts[i] = task.Task{
			ID:       gen.Next(),
			Engine:   task.EngineSleep,
			Duration: time.Duration(faultinj.Uniform(c.seed, 99, uint64(i)) * float64(c.maxSleep)),
		}
	}
	if err := cl.Submit(ts); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	results, err := cl.WaitN(len(ts), c.waitFor)
	if err != nil {
		return fmt.Errorf("await results: %w", err)
	}
	<-killDone

	if err := verifyExactlyOnce(c.seed, ts, results); err != nil {
		return err
	}

	// Invariant 3: the system drained — nothing queued or outstanding once
	// every result is delivered (stale replays may lag briefly).
	if err := awaitDrained(cl, 15*time.Second); err != nil {
		return err
	}

	// Invariant 4: clean WAL recovery. Kill the dispatcher one last time;
	// the restarted process must replay the journal to an empty pending set
	// and still serve stats and metrics.
	log.Printf("seed %d: final SIGKILL + recovery check", c.seed)
	disp.kill()
	if err := awaitDrained(cl, 30*time.Second); err != nil {
		return fmt.Errorf("after final restart: %w", err)
	}
	ms, err := cl.Metrics()
	if err != nil {
		return fmt.Errorf("metrics after recovery: %w", err)
	}
	sub := ms.Counters["falkon_tasks_submitted_total"]
	comp := ms.Counters["falkon_tasks_completed_total"]
	if comp < int64(len(ts)) {
		return fmt.Errorf("metrics inconsistent: completed=%d < submitted workload %d (submitted counter %d)", comp, len(ts), sub)
	}

	log.Printf("seed %d PASS: %d results, client reconnects=%d resubmit-deduped=%d dup-results-dropped=%d, client faults: %s, dispatcher restarts=%d",
		c.seed, len(results), cl.Reconnects(), cl.Deduped(), cl.DuplicatesDropped(), cinj.Summary(), disp.restarts())
	// The final report names every fault counter the run observed — the
	// client injector's own registry plus whatever the (last incarnation of
	// the) dispatcher counted — in the exposition's own vocabulary, so a
	// chaos run's output is greppable against /metrics dashboards.
	printFaultCounters("client", creg.Snapshot().Counters)
	printFaultCounters("dispatcher", ms.Counters)
	return nil
}

// verifyExactlyOnce checks invariants 1 and 2 against a completed workload:
// N submitted tasks yield exactly N results with N distinct IDs, none lost,
// none delivered twice — and none failed, since sleep tasks cannot fail on
// their own, so any failure means the replay policy gave up on live work.
func verifyExactlyOnce(seed uint64, ts []task.Task, results []task.Result) error {
	if len(results) != len(ts) {
		return fmt.Errorf("submitted %d tasks, got %d results", len(ts), len(results))
	}
	got := make(map[task.ID]struct{}, len(results))
	failedResults := 0
	for _, r := range results {
		if _, dup := got[r.ID]; dup {
			return fmt.Errorf("task %v delivered twice", r.ID)
		}
		got[r.ID] = struct{}{}
		if r.Failed() {
			failedResults++
			log.Printf("seed %d: task %v failed: %s (exit %d)", seed, r.ID, r.Err, r.ExitCode)
		}
	}
	for _, t := range ts {
		if _, ok := got[t.ID]; !ok {
			return fmt.Errorf("task %v lost: no result", t.ID)
		}
	}
	if failedResults > 0 {
		return fmt.Errorf("%d tasks failed under injected faults", failedResults)
	}
	return nil
}

// printFaultCounters prints the falkon_fault_injected_total{fault=...}
// family from a metrics snapshot, sorted for stable output; silent when the
// run injected nothing on that side.
func printFaultCounters(side string, counters map[string]int64) {
	var keys []string
	for k := range counters {
		if strings.HasPrefix(k, "falkon_fault_injected_total{") && counters[k] > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		log.Printf("  %s %s %d", side, k, counters[k])
	}
}

// awaitDrained polls Stats until queue and outstanding are empty. The stats
// RPC itself rides the reconnecting client, so this also proves the
// dispatcher is up and serving.
func awaitDrained(cl *client.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := cl.Stats()
		if err == nil && st.Queued == 0 && st.Outstanding == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("stats unavailable: %w", err)
			}
			return fmt.Errorf("not drained: queued=%d outstanding=%d", st.Queued, st.Outstanding)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// dispatcherSpec derives the dispatcher's injector spec. Each restart gets
// a fresh derived seed — same master seed, same sequence of specs — so a
// fault that fires on the first operation cannot recur forever.
func dispatcherSpec(seed uint64, restart int) faultinj.Spec {
	return faultinj.Spec{
		Seed:       faultinj.DeriveSeed(seed, 1000+uint64(restart)),
		LatencyP:   0.01,
		Latency:    2 * time.Millisecond,
		DupNotifyP: 0.05,
		FsyncErrP:  0.002,
		TornWriteP: 0.001,
		ENOSPCP:    0.001,
		SlowDiskP:  0.01,
		SlowDisk:   2 * time.Millisecond,
	}
}

// executorSpec derives executor i's injector spec for its restart'th
// incarnation.
func executorSpec(seed uint64, i, restart int) faultinj.Spec {
	return faultinj.Spec{
		Seed:       faultinj.DeriveSeed(seed, 2000+100*uint64(i)+uint64(restart)),
		LatencyP:   0.02,
		Latency:    time.Millisecond,
		DropP:      0.002,
		MidFrameP:  0.001,
		CrashP:     0.01,
		StallP:     0.005,
		Stall:      time.Second, // > dispatcher replay timeout: provokes replays
		ResultDieP: 0.005,
	}
}

// clientSpec derives the in-process client's transport faults.
func clientSpec(seed uint64) faultinj.Spec {
	return faultinj.Spec{
		Seed:        faultinj.DeriveSeed(seed, 3000),
		LatencyP:    0.02,
		Latency:     time.Millisecond,
		DropP:       0.002,
		ShortWriteP: 0.001,
	}
}

// killSchedule derives when to SIGKILL the dispatcher: kills spread across
// the expected workload window, jittered deterministically by the seed.
func killSchedule(c cfg) []time.Duration {
	window := 10 * time.Second
	if c.tasks < 100 {
		window = 5 * time.Second
	}
	out := make([]time.Duration, c.kills)
	for i := range out {
		frac := (float64(i) + 0.3 + 0.6*faultinj.Uniform(c.seed, 50, uint64(i))) / float64(c.kills+1)
		out[i] = time.Duration(frac * float64(window))
	}
	return out
}

// super restarts a child process until stopped, appending its output to a
// log file in the work dir.
type super struct {
	name string
	mk   func(restart int) *exec.Cmd

	mu       sync.Mutex
	cmd      *exec.Cmd
	restart  int
	stopping bool
	stopped  chan struct{}
	logW     io.Writer
	logC     io.Closer
}

func newSuper(name string, c cfg, mk func(restart int) *exec.Cmd) *super {
	s := &super{name: name, mk: mk, stopped: make(chan struct{})}
	f, err := os.Create(filepath.Join(c.workDir, name+".log"))
	if err != nil {
		log.Fatalf("falkon-chaos: %v", err)
	}
	s.logC = f
	s.logW = f
	if c.verbose {
		s.logW = io.MultiWriter(f, os.Stderr)
	}
	go s.loop()
	return s
}

// loop starts the child and restarts it whenever it exits, until stop().
func (s *super) loop() {
	defer close(s.stopped)
	for {
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			return
		}
		cmd := s.mk(s.restart)
		cmd.Stdout = s.logW
		cmd.Stderr = s.logW
		if err := cmd.Start(); err != nil {
			s.mu.Unlock()
			log.Printf("chaos: start %s: %v", s.name, err)
			return
		}
		s.cmd = cmd
		s.restart++
		s.mu.Unlock()
		cmd.Wait()
		s.mu.Lock()
		stopping := s.stopping
		s.mu.Unlock()
		if stopping {
			return
		}
		time.Sleep(200 * time.Millisecond) // restart backoff
	}
}

// kill SIGKILLs the current incarnation (the supervisor restarts it).
func (s *super) kill() {
	s.mu.Lock()
	cmd := s.cmd
	s.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
	}
}

// stop terminates the child for good.
func (s *super) stop() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		<-s.stopped
		return
	}
	s.stopping = true
	cmd := s.cmd
	s.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Signal(syscall.SIGTERM)
		go func(c *exec.Cmd) {
			time.Sleep(3 * time.Second)
			if c.Process != nil {
				c.Process.Kill()
			}
		}(cmd)
	}
	<-s.stopped
	s.logC.Close()
}

// restarts reports how many times the child was (re)started.
func (s *super) restarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restart - 1
}

// freeAddr reserves an ephemeral port and returns 127.0.0.1:port. The
// listener is closed before use; the small race is acceptable for a test
// harness, and the port stays stable across dispatcher restarts.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// waitListening dials until the dispatcher accepts or the timeout expires.
func waitListening(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}
