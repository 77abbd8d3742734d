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
// Child processes are the real binaries (cmd/falkon-dispatcher — every
// dispatching node, a tree's roots and an HA cluster's members included — and
// cmd/falkon-executor), built on first use; dispatcher crashes (injected
// kills, journal fail-stops, executor faults) are supervised and restarted
// the way an operator's init system would. -tree and -standbys change which
// nodes exist, who is killed when and what "healed" means (tree.go,
// standbys.go); everything else is one run (runOne).
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
	"falkon/internal/fproto"
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
		tree     = flag.Int("tree", 0, "dispatch-tree leaves: boot 1 root (falkon-dispatcher -leaves) + N journaled leaf dispatchers, SIGKILL leaves instead of the dispatcher (0 = flat single dispatcher)")
		treeDeep = flag.Int("tree-depth", 2, "dispatch-tree levels with -tree: 2 = root over leaves, ≥3 adds layers of roots between them")
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
		build := exec.Command("go", "build", "-o", dir, "./cmd/falkon-dispatcher", "./cmd/falkon-executor")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			log.Fatalf("falkon-chaos: go build: %v", err)
		}
		c.binDir = dir
	}

	failed := 0
	for i := 0; i < *sweep; i++ {
		one := c
		one.seed = c.seed + uint64(i)
		if err := runOne(one, *keep); err != nil {
			failed++
			fmt.Printf("FAIL seed=%d: %v\n", one.seed, err)
			fmt.Printf("REPRODUCE: go run ./cmd/falkon-chaos -seed %d -tasks %d -execs %d -slots %d -kills %d -tree %d -tree-depth %d -standbys %d -max-sleep %v\n",
				one.seed, one.tasks, one.execs, one.slots, one.kills, one.tree, one.treeDepth, one.standbys, one.maxSleep)
		}
	}
	if failed > 0 {
		fmt.Printf("chaos: %d/%d seeds FAILED\n", failed, *sweep)
		os.Exit(1)
	}
	fmt.Printf("chaos: %d/%d seeds passed\n", *sweep, *sweep)
}

// run is one seed's deployment: its parameters and every child it started.
type run struct {
	cfg
	supers []*super      // in start order; stopped in reverse
	done   chan struct{} // closed when the run ends
}

// topology is what differs between the three kinds of run — which nodes
// exist, who is killed when, and what "healed" means — as a boot function
// (bootFlat, bootTree, bootStandbys) hands it to runOne.
type topology struct {
	what    string                           // the PASS line's "(tree 2 leaves, depth 2)"; empty for the flat run
	front   string                           // what the client dials
	execAt  func(i int) string               // what executor i dials
	victims []*super                         // whom the kills fall on; the report lists their restarts
	rows    int                              // links the front reports up once healed (0: not a tree)
	kills   func(cl *client.Client) error    // the kills while the workload runs
	atRest  func() error                     // one more, once everything has drained
	check   func(st fproto.StatsReply) error // what the healed front must also say of itself; may be nil
}

// runOne executes a full chaos run for one seed: a mode boots its nodes, and
// everything else — executors, client, workload, the invariants and the report
// — is the same whatever they are.
func runOne(c cfg, keep bool) (err error) {
	boot, tag := bootFlat, ""
	switch {
	case c.standbys > 0:
		boot, tag = bootStandbys, "-ha"
	case c.tree > 0:
		boot, tag = bootTree, "-tree"
	}
	r := &run{cfg: c, done: make(chan struct{})}
	r.workDir, err = os.MkdirTemp("", fmt.Sprintf("falkon-chaos%s-%d-", tag, c.seed))
	if err != nil {
		return err
	}
	defer func() {
		if err == nil && !keep {
			os.RemoveAll(r.workDir)
		} else {
			log.Printf("seed %d: work dir kept at %s", c.seed, r.workDir)
		}
	}()
	defer r.stop()

	// The whole schedule derives from the seed, and boot prints it up front:
	// two runs with the same seed print — and execute — the same schedule.
	t, err := boot(r)
	if err != nil {
		return err
	}

	// Executors under supervision, reconnecting so each rides out its
	// dispatcher's restarts: injected crashes (crash mid-task,
	// result-then-die) kill the process; the supervisor restarts it with a
	// fresh derived seed so a first-op crash can't loop forever.
	for i := 0; i < c.execs; i++ {
		r.start(fmt.Sprintf("executor-%d", i), "", func(restart int) *exec.Cmd {
			return exec.Command(filepath.Join(c.binDir, "falkon-executor"),
				"-dispatcher", t.execAt(i),
				"-name", fmt.Sprintf("chaos-ex%d", i),
				"-slots", fmt.Sprint(c.slots),
				"-reconnect",
				"-reconnect-timeout", "60s",
				"-faults", executorSpec(c.seed, i, restart).String(),
			)
		})
	}

	// The reconnecting client, in-process, with its own transport faults; it
	// cannot tell a tree or a cluster from a flat dispatcher. The registry
	// collects falkon_fault_injected_total{fault=...} for the final report.
	creg := obs.NewRegistry()
	cinj := faultinj.New(clientSpec(c.seed), creg, nil)
	var cl *client.Client
	for attempt := 0; ; attempt++ {
		cl, err = client.Connect(client.Options{
			DispatcherAddr:   t.front,
			Name:             "falkon-chaos" + tag,
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
	killErr := make(chan error, 1)
	go func() { killErr <- t.kills(cl) }()
	results, err := cl.WaitN(len(ts), c.waitFor)
	if err != nil {
		return fmt.Errorf("await results: %w", err)
	}
	if err := <-killErr; err != nil {
		return err
	}

	if err := verifyExactlyOnce(c.seed, ts, results); err != nil {
		return err
	}

	// Invariant 3: the system drained and healed — nothing queued or
	// outstanding once every result is delivered (stale replays may lag
	// briefly), and every link of a tree back up. What the nodes that ran the
	// workload injected is read now: the next step kills one of them.
	if err := awaitHealed(cl, t.rows, 30*time.Second); err != nil {
		return err
	}
	injected, err := cl.Metrics()
	if err != nil {
		return fmt.Errorf("metrics after the workload: %w", err)
	}

	// Invariant 4: clean recovery. One more kill, at rest; the restarted (or
	// promoted) node must replay its journal to an empty pending set, and what
	// the client dials must still account for the whole workload.
	if err := t.atRest(); err != nil {
		return err
	}
	if err := awaitHealed(cl, t.rows, 30*time.Second); err != nil {
		return fmt.Errorf("after the kill at rest: %w", err)
	}
	if t.check != nil {
		st, err := cl.Stats()
		if err == nil {
			err = t.check(st)
		}
		if err != nil {
			return fmt.Errorf("after the kill at rest: %w", err)
		}
	}
	ms, err := cl.Metrics()
	if err != nil {
		return fmt.Errorf("metrics after recovery: %w", err)
	}
	if comp := ms.Counters["falkon_tasks_completed_total"]; comp < int64(len(ts)) {
		return fmt.Errorf("metrics inconsistent: completed=%d < submitted workload %d (submitted counter %d)",
			comp, len(ts), ms.Counters["falkon_tasks_submitted_total"])
	}

	restarts := make([]string, len(t.victims))
	for i, v := range t.victims {
		restarts[i] = fmt.Sprintf("%s=%d", v.name, v.restarts())
	}
	log.Printf("seed %d PASS%s: %d results, client reconnects=%d resubmit-deduped=%d dup-results-dropped=%d, client faults: %s, restarts: %s",
		c.seed, t.what, len(results), cl.Reconnects(), cl.Deduped(), cl.DuplicatesDropped(), cinj.Summary(), strings.Join(restarts, " "))
	// The final report names every fault counter the run observed — the
	// client injector's own registry plus whatever the dispatching side (a
	// root merges its leaves') counted — in the exposition's own vocabulary,
	// so a chaos run's output is greppable against /metrics dashboards.
	printFaultCounters("client", creg.Snapshot().Counters)
	printFaultCounters("dispatcher", injected.Counters)
	return nil
}

// bootFlat is the flat run: one journaled dispatcher, SIGKILLed on the
// seed's wall-clock schedule and restarted over the same journal.
func bootFlat(r *run) (topology, error) {
	addr, err := freeAddr()
	if err != nil {
		return topology{}, err
	}
	especs := make([]string, r.execs)
	for i := range especs {
		especs[i] = executorSpec(r.seed, i, 0).String()
	}
	killAts := killSchedule(r.cfg)
	log.Printf("seed %d schedule: dispatcher=%q executors=%q kills=%v", r.seed, dispatcherSpec(r.seed, 1000, 0).String(), especs, killAts)

	victims := []*super{r.startDispatcher("dispatcher", addr, 1000)}
	if err := allListening(victims...); err != nil {
		return topology{}, err
	}
	return topology{
		front: addr, execAt: func(int) string { return addr }, victims: victims,
		kills: r.scheduledKills(killAts, victims), atRest: r.killAtRest(victims[0]),
	}, nil
}

// startDispatcher supervises a journaled falkon-dispatcher — every node that
// holds tasks of its own — restarted after injected kills and journal
// fail-stops, always recovering from the same journal directory. Its injector
// spec is seeded from salt and the restart count; extra flags follow the
// common ones.
func (r *run) startDispatcher(name, addr string, salt uint64, extra ...string) *super {
	journal := filepath.Join(r.workDir, "journal-"+name)
	return r.start(name, addr, func(restart int) *exec.Cmd {
		return exec.Command(filepath.Join(r.binDir, "falkon-dispatcher"), append([]string{
			"-addr", addr,
			"-journal-dir", journal,
			"-journal-sync", "group",
			"-snapshot-every", "200",
			"-replay-timeout", "500ms",
			"-max-retries", "50",
			"-stats-every", "0",
			"-faults", dispatcherSpec(r.seed, salt, restart).String(),
		}, extra...)...)
	})
}

// scheduledKills SIGKILLs the victims in rotation at the seed's wall-clock
// times, counted from when the workload was submitted — the disk-level crash
// story.
func (r *run) scheduledKills(killAts []time.Duration, victims []*super) func(*client.Client) error {
	return func(*client.Client) error {
		start := time.Now()
		for i, at := range killAts {
			select {
			case <-time.After(time.Until(start.Add(at))):
			case <-r.done:
				return nil
			}
			v := victims[i%len(victims)]
			log.Printf("seed %d: SIGKILL %s (scheduled %v)", r.seed, v.name, at)
			v.kill()
		}
		return nil
	}
}

// killAtRest is the last kill of a run whose victims restart in place.
func (r *run) killAtRest(v *super) func() error {
	return func() error {
		log.Printf("seed %d: final SIGKILL %s + recovery check", r.seed, v.name)
		v.kill()
		return nil
	}
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

// awaitHealed polls the front's stats until nothing is queued or outstanding
// and wantRows links are up. The stats RPC itself rides the reconnecting
// client, so this also proves the front is up and serving. A root aggregates
// queued/outstanding across its live children only — a dead child drops out
// of the sample — so "drained" must also require every node back up, or the
// check would pass while a restarted leaf is still replaying journaled work
// (which must execute and be dropped as dups on the way up before the tree
// truly reads empty). Roots flatten their children's LeafStats rows upward,
// so the front's row set covers every root→child edge in the topology — a
// dead leaf under a live mid still shows up (and a dead mid hides its
// subtree's rows, shrinking the set below wantRows). A flat dispatcher and an
// HA leader report no rows, and none are wanted.
func awaitHealed(cl *client.Client, wantRows int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := cl.Stats()
		up := 0
		for _, l := range st.Leaves {
			if l.Up {
				up++
			}
		}
		if err == nil && st.Queued == 0 && st.Outstanding == 0 && up == wantRows {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("stats unavailable: %w", err)
			}
			return fmt.Errorf("not healed: queued=%d outstanding=%d nodes up %d/%d", st.Queued, st.Outstanding, up, wantRows)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// dispatcherSpec derives a journaled dispatcher's injector spec: one fault
// family, seeded per node by salt (the flat dispatcher 1000, tree leaf i
// 1000+500i, cluster member i 4000+500i). Each restart gets a fresh derived
// seed — same master seed, same sequence of specs — so a fault that fires on
// the first operation cannot recur forever.
func dispatcherSpec(seed, salt uint64, restart int) faultinj.Spec {
	return faultinj.Spec{
		Seed:       faultinj.DeriveSeed(seed, salt+uint64(restart)),
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
	addr string // where the child listens; empty for an executor
	mk   func(restart int) *exec.Cmd

	mu       sync.Mutex
	cmd      *exec.Cmd
	restart  int
	stopping bool
	stopped  chan struct{}
	logW     io.Writer
	logC     io.Closer
}

// start supervises a child for the rest of the run.
func (r *run) start(name, addr string, mk func(restart int) *exec.Cmd) *super {
	s := &super{name: name, addr: addr, mk: mk, stopped: make(chan struct{})}
	f, err := os.Create(filepath.Join(r.workDir, name+".log"))
	if err != nil {
		log.Fatalf("falkon-chaos: %v", err)
	}
	s.logC = f
	s.logW = f
	if r.verbose {
		s.logW = io.MultiWriter(f, os.Stderr)
	}
	r.supers = append(r.supers, s)
	go s.loop()
	return s
}

// stop ends the run: every child, last started first.
func (r *run) stop() {
	close(r.done)
	for i := len(r.supers) - 1; i >= 0; i-- {
		r.supers[i].stop()
	}
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
