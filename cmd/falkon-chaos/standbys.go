package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"falkon/internal/client"
	"falkon/internal/faultinj"
	"falkon/internal/obs"
	"falkon/internal/replica"
	"falkon/internal/task"
)

// runStandbysOne executes one chaos run against a live HA cluster:
// c.standbys+1 falkon-dispatcher processes sharing a lease file, each in
// -lease-file mode (leader serves and replicates its journal; the others
// mirror it as standbys). The killer repeatedly reads the lease, SIGKILLs
// whichever node currently leads, and waits for a successor to win a
// strictly newer term — so every kill is a real failover, and the client
// must still see exactly-once delivery through the whole chain of them.
//
// Kills are progress-gated rather than wall-clock-scheduled: each one
// fires only after the cluster has completed another slice of the
// workload, which guarantees the failovers land mid-workload no matter
// how fast the executors drain it.
func runStandbysOne(c cfg, keep bool) (err error) {
	c.workDir, err = os.MkdirTemp("", fmt.Sprintf("falkon-chaos-ha-%d-", c.seed))
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

	n := c.standbys + 1
	addrs := make([]string, n)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return err
		}
	}
	chain := strings.Join(addrs, ",")
	leasePath := filepath.Join(c.workDir, "lease")
	lease := &replica.Lease{Path: leasePath}

	log.Printf("seed %d HA schedule: nodes=%v lease=%s kills=%d (progress-gated)", c.seed, addrs, leasePath, c.kills)

	// Cluster members under supervision. A SIGKILLed leader restarts in the
	// same mode and rejoins as a standby (its journal dir becomes its mirror
	// dir); a node that loses its lease exits 4 and restarts the same way.
	nodes := make([]*super, n)
	for i := range nodes {
		i := i
		journal := filepath.Join(c.workDir, fmt.Sprintf("node-%d", i))
		nodes[i] = newSuper(fmt.Sprintf("node-%d", i), c, func(restart int) *exec.Cmd {
			spec := dispatcherSpec(c.seed, restart)
			spec.Seed = faultinj.DeriveSeed(c.seed, 4000+500*uint64(i)+uint64(restart))
			return exec.Command(filepath.Join(c.binDir, "falkon-dispatcher"),
				"-addr", addrs[i],
				"-journal-dir", journal,
				"-journal-sync", "group",
				"-snapshot-every", "200",
				"-replay-timeout", "500ms",
				"-max-retries", "50",
				"-stats-every", "0",
				"-lease-file", leasePath,
				"-lease-ttl", "750ms",
				"-node-id", fmt.Sprintf("node-%d", i),
				"-replicate", "quorum",
				"-faults", spec.String(),
			)
		})
		defer nodes[i].stop()
	}

	st0, err := waitLeader(lease, 0, 15*time.Second)
	if err != nil {
		return err
	}
	if err := waitListening(st0.Addr, 10*time.Second); err != nil {
		return fmt.Errorf("first leader %s never listened: %w", st0.Holder, err)
	}
	log.Printf("seed %d: %s leads at term %d", c.seed, st0.Holder, st0.Term)

	// Executors follow the full address chain: whoever leads is in it.
	sups := make([]*super, c.execs)
	for i := 0; i < c.execs; i++ {
		i := i
		sups[i] = newSuper(fmt.Sprintf("executor-%d", i), c, func(restart int) *exec.Cmd {
			return exec.Command(filepath.Join(c.binDir, "falkon-executor"),
				"-dispatcher", chain,
				"-name", fmt.Sprintf("chaos-ex%d", i),
				"-slots", fmt.Sprint(c.slots),
				"-reconnect",
				"-reconnect-timeout", "60s",
				"-faults", executorSpec(c.seed, i, restart).String(),
			)
		})
		defer sups[i].stop()
	}

	// The reconnecting client follows the same chain; the cluster id the
	// leader stamps on its instance makes the EPR valid on every member.
	creg := obs.NewRegistry()
	cinj := faultinj.New(clientSpec(c.seed), creg, nil)
	var cl *client.Client
	for attempt := 0; ; attempt++ {
		cl, err = client.Connect(client.Options{
			DispatcherAddr:   chain,
			Name:             "falkon-chaos-ha",
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

	// The leader killer: wait for the cluster to complete another slice of
	// the workload, SIGKILL the current leader, wait for the failover (a
	// strictly newer lease term), repeat.
	killErr := make(chan error, 1)
	go func() {
		killErr <- func() error {
			deadline := time.Now().Add(c.waitFor)
			term := st0.Term
			for k := 0; k < c.kills; k++ {
				target := int64((k + 1) * c.tasks / (c.kills + 2))
				if err := waitProgress(cl, target, deadline); err != nil {
					return fmt.Errorf("kill %d: %w", k, err)
				}
				st, err := waitLeader(lease, term-1, time.Until(deadline))
				if err != nil {
					return fmt.Errorf("kill %d: %w", k, err)
				}
				victim := nodeIndex(st.Holder)
				if victim < 0 || victim >= n {
					return fmt.Errorf("kill %d: lease names unknown holder %q", k, st.Holder)
				}
				log.Printf("seed %d: SIGKILL leader %s (term %d, %d+ tasks done)", c.seed, st.Holder, st.Term, target)
				nodes[victim].kill()
				next, err := waitLeader(lease, st.Term, time.Until(deadline))
				if err != nil {
					return fmt.Errorf("failover %d after killing %s: %w", k, st.Holder, err)
				}
				log.Printf("seed %d: failover %d: %s leads at term %d", c.seed, k+1, next.Holder, next.Term)
				term = next.Term
			}
			return nil
		}()
	}()

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

	// The failover chain really happened: every takeover bumps the lease
	// term, so c.kills leader deaths mean at least 1+c.kills terms.
	final, err := lease.Read()
	if err != nil {
		return err
	}
	if final.Term < uint64(1+c.kills) {
		return fmt.Errorf("lease term %d after %d leader kills — failovers did not happen", final.Term, c.kills)
	}

	if err := awaitDrained(cl, 30*time.Second); err != nil {
		return err
	}

	// One more failover at rest: kill the leader after the workload is done
	// and require the promoted successor to replay its mirror to a clean,
	// fully-accounted state.
	st, err := waitLeader(lease, 0, 10*time.Second)
	if err != nil {
		return err
	}
	log.Printf("seed %d: final SIGKILL leader %s + promoted-recovery check", c.seed, st.Holder)
	if v := nodeIndex(st.Holder); v >= 0 && v < n {
		nodes[v].kill()
	}
	if _, err := waitLeader(lease, st.Term, 30*time.Second); err != nil {
		return fmt.Errorf("no successor after final kill: %w", err)
	}
	if err := awaitDrained(cl, 30*time.Second); err != nil {
		return fmt.Errorf("after final failover: %w", err)
	}
	stats, err := cl.Stats()
	if err != nil {
		return fmt.Errorf("stats after final failover: %w", err)
	}
	if stats.Replication == nil || stats.Replication.Role != "leader" {
		return fmt.Errorf("promoted dispatcher reports no leader replication stats: %+v", stats.Replication)
	}
	if stats.Completed < int64(len(ts)) {
		return fmt.Errorf("promoted counters inconsistent: completed=%d < workload %d", stats.Completed, len(ts))
	}

	restarts := make([]string, n)
	for i, nd := range nodes {
		restarts[i] = fmt.Sprint(nd.restarts())
	}
	log.Printf("seed %d PASS (HA %d standbys): %d results across %d failovers (final term %d), client reconnects=%d resubmit-deduped=%d dup-results-dropped=%d, client faults: %s, node restarts=%v",
		c.seed, c.standbys, len(results), c.kills, final.Term, cl.Reconnects(), cl.Deduped(), cl.DuplicatesDropped(), cinj.Summary(), restarts)
	printFaultCounters("client", creg.Snapshot().Counters)
	return nil
}

// waitLeader polls the lease file until a live holder with term > minTerm
// appears.
func waitLeader(lease *replica.Lease, minTerm uint64, timeout time.Duration) (replica.LeaseState, error) {
	deadline := time.Now().Add(timeout)
	var last replica.LeaseState
	for {
		st, err := lease.Read()
		if err == nil && st.Holder != "" && !st.Expired(time.Now()) && st.Term > minTerm {
			return st, nil
		}
		if err == nil {
			last = st
		}
		if time.Now().After(deadline) {
			return last, fmt.Errorf("no leader past term %d within %v (lease: %+v)", minTerm, timeout, last)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitProgress polls the cluster's completed-task counter (replayed across
// failovers, so monotonic) until it reaches target. Stats errors during a
// failover window are retried.
func waitProgress(cl *client.Client, target int64, deadline time.Time) error {
	for {
		st, err := cl.Stats()
		if err == nil && st.Completed >= target {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("stats unavailable waiting for %d completions: %w", target, err)
			}
			return fmt.Errorf("stalled at %d/%d completions", st.Completed, target)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// nodeIndex parses the "node-%d" holder ids this harness assigns.
func nodeIndex(holder string) int {
	var i int
	if _, err := fmt.Sscanf(holder, "node-%d", &i); err != nil {
		return -1
	}
	return i
}
