package main

import (
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	"falkon/internal/client"
	"falkon/internal/fproto"
	"falkon/internal/replica"
)

// bootStandbys boots a live HA cluster: c.standbys+1 falkon-dispatcher
// processes sharing a lease file, each in -lease-file mode (leader serves and
// replicates its journal; the others mirror it as standbys). The killer
// repeatedly reads the lease, SIGKILLs whichever node currently leads, and
// waits for a successor to win a strictly newer term — so every kill is a
// real failover, and the client must still see exactly-once delivery through
// the whole chain of them.
//
// Kills are progress-gated rather than wall-clock-scheduled: each one
// fires only after the cluster has completed another slice of the
// workload, which guarantees the failovers land mid-workload no matter
// how fast the executors drain it.
func bootStandbys(r *run) (topology, error) {
	n := r.standbys + 1
	addrs := make([]string, n)
	for i := range addrs {
		var err error
		if addrs[i], err = freeAddr(); err != nil {
			return topology{}, err
		}
	}
	// Executors and the client follow the full address chain: whoever leads
	// is in it, and the cluster id the leader stamps on an instance makes its
	// EPR valid on every member.
	chain := strings.Join(addrs, ",")
	leasePath := filepath.Join(r.workDir, "lease")
	lease := &replica.Lease{Path: leasePath}

	log.Printf("seed %d HA schedule: nodes=%v lease=%s kills=%d (progress-gated)", r.seed, addrs, leasePath, r.kills)

	// Cluster members under supervision. A SIGKILLed leader restarts in the
	// same mode and rejoins as a standby (its journal dir becomes its mirror
	// dir); a node that loses its lease exits 4 and restarts the same way.
	nodes := make([]*super, n)
	for i := range nodes {
		name := fmt.Sprintf("node-%d", i)
		nodes[i] = r.startDispatcher(name, addrs[i], 4000+500*uint64(i),
			"-lease-file", leasePath,
			"-lease-ttl", "750ms",
			"-node-id", name,
			"-replicate", "quorum",
		)
	}

	st0, err := waitLeader(lease, 0, 15*time.Second)
	if err != nil {
		return topology{}, err
	}
	if err := waitListening(st0.Addr, 10*time.Second); err != nil {
		return topology{}, fmt.Errorf("first leader %s never listened: %w", st0.Holder, err)
	}
	log.Printf("seed %d: %s leads at term %d", r.seed, st0.Holder, st0.Term)

	// killLeader SIGKILLs whoever holds a live lease past minTerm and waits
	// for its successor's strictly newer term.
	killLeader := func(minTerm uint64, why string, timeout time.Duration) (killed, next replica.LeaseState, err error) {
		if killed, err = waitLeader(lease, minTerm, timeout); err != nil {
			return
		}
		victim := nodeIndex(killed.Holder)
		if victim < 0 || victim >= n {
			return killed, next, fmt.Errorf("lease names unknown holder %q", killed.Holder)
		}
		log.Printf("seed %d: SIGKILL leader %s (term %d, %s)", r.seed, killed.Holder, killed.Term, why)
		nodes[victim].kill()
		if next, err = waitLeader(lease, killed.Term, timeout); err != nil {
			err = fmt.Errorf("no successor after killing %s: %w", killed.Holder, err)
		}
		return
	}

	return topology{
		what:    fmt.Sprintf(" (HA %d standbys, %d failovers)", r.standbys, r.kills),
		front:   chain,
		execAt:  func(int) string { return chain },
		victims: nodes,
		// The leader killer: wait for the cluster to complete another slice of
		// the workload, SIGKILL the current leader, wait for the failover,
		// repeat.
		kills: func(cl *client.Client) error {
			deadline := time.Now().Add(r.waitFor)
			term := st0.Term
			for k := 0; k < r.kills; k++ {
				target := int64((k + 1) * r.tasks / (r.kills + 2))
				if err := waitProgress(cl, target, deadline); err != nil {
					return fmt.Errorf("kill %d: %w", k, err)
				}
				_, next, err := killLeader(term-1, fmt.Sprintf("%d+ tasks done", target), time.Until(deadline))
				if err != nil {
					return fmt.Errorf("kill %d: %w", k, err)
				}
				log.Printf("seed %d: failover %d: %s leads at term %d", r.seed, k+1, next.Holder, next.Term)
				term = next.Term
			}
			return nil
		},
		// One more failover at rest: the failover chain must really have
		// happened — every takeover bumps the lease term, so r.kills leader
		// deaths mean at least 1+r.kills terms — and the promoted successor
		// must replay its mirror to a clean, fully-accounted state.
		atRest: func() error {
			killed, _, err := killLeader(0, "at rest: promoted-recovery check", 30*time.Second)
			if err == nil && killed.Term < uint64(1+r.kills) {
				err = fmt.Errorf("lease term %d after %d leader kills — failovers did not happen", killed.Term, r.kills)
			}
			return err
		},
		check: func(st fproto.StatsReply) error {
			if st.Replication == nil || st.Replication.Role != "leader" {
				return fmt.Errorf("promoted dispatcher reports no leader replication stats: %+v", st.Replication)
			}
			return nil
		},
	}, nil
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
