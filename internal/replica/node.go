package replica

import (
	"fmt"
	"math/rand"
	"time"
)

// NodeOptions configures one HA cluster member (RunNode).
type NodeOptions struct {
	// Lease is the shared election lease; its ID is this node's identity in
	// the lease file and its Addr the dispatcher address it advertises when
	// leading.
	Lease *Lease
	// Standby configures the replication follower run while another node
	// leads (its ID defaults to the lease's). Its Leader resolver is
	// overwritten to follow the lease. Its Metrics receive
	// falkon_elections_total and the role/term gauges too.
	Standby StandbyOptions
	// Promote starts serving as leader at term: build the dispatcher over
	// the standby's journal directory (the standby is already stopped) and
	// return once it is listening. A Promote error aborts the node.
	Promote func(term uint64) error
	// Logf receives node logs; nil silences them.
	Logf func(format string, args ...any)
	// Stop, when non-nil, makes RunNode return ErrNodeStopped when closed
	// (graceful shutdown).
	Stop <-chan struct{}
}

// ErrLeaseLost reports a leader that could not renew in time and must stop.
var ErrLeaseLost = fmt.Errorf("replica: lease lost")

// ErrNodeStopped reports a node stopped via NodeOptions.Stop.
var ErrNodeStopped = fmt.Errorf("replica: node stopped")

// RunNode runs one HA cluster member until it stops: follow the current
// leader as a replication standby, attempt the lease every TTL/3 (jittered,
// so peers don't stampede the lease file), and on winning it stop the
// standby, promote (recover the standby's journal and serve), then renew
// until the lease is lost. It returns ErrLeaseLost after a failed renewal
// (the caller must stop serving at once, and exits; the supervisor restarts
// the node and it rejoins as a standby), ErrNodeStopped on graceful stop, or
// the first hard error.
func RunNode(opts NodeOptions) error {
	if opts.Lease == nil || opts.Promote == nil {
		return fmt.Errorf("replica: node needs Lease and Promote")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	lease := *opts.Lease
	check := lease.TTL / 3
	if check <= 0 {
		check = 500 * time.Millisecond
	}
	sbOpts := opts.Standby
	cElections := sbOpts.Metrics.Counter("falkon_elections_total")
	gRole := sbOpts.Metrics.Gauge("falkon_replica_role")
	gTerm := sbOpts.Metrics.Gauge("falkon_replica_term")

	// The standby follows whoever the lease names — never ourselves.
	sbOpts.Leader = func() (string, error) {
		st, err := lease.Read()
		if err != nil {
			return "", err
		}
		if st.Holder == "" || st.Expired(time.Now()) {
			return "", fmt.Errorf("replica: no live leader")
		}
		if st.Holder == lease.ID {
			return "", fmt.Errorf("replica: lease names this node but it is not serving")
		}
		return st.Addr, nil
	}
	if sbOpts.ID == "" {
		sbOpts.ID = lease.ID
	}

	var standby *Standby
	stopStandby := func() {
		if standby != nil {
			standby.Stop()
			standby = nil
		}
	}
	defer stopStandby()

	for {
		// TakeOver, not a renewal: RunNode only reaches this loop before it
		// has ever led (after winning it moves to renewLoop and never comes
		// back), so a lease that already names this node here belongs to a
		// PREVIOUS incarnation that crashed while holding it. Renewing that
		// lease in place would resurrect the dead incarnation's term and let
		// attached standbys resume stream positions that no longer mean
		// anything; a takeover bumps the term so everyone re-baselines.
		st, won, err := lease.TakeOver()
		if err != nil {
			return err
		}
		if won {
			logf("replica: node %s won lease (term %d)", lease.ID, st.Term)
			stopStandby() // closes its journal; Promote recovers it
			cElections.Inc()
			gRole.Set(1)
			gTerm.Set(int64(st.Term))
			if err := opts.Promote(st.Term); err != nil {
				return fmt.Errorf("replica: promote: %w", err)
			}
			return renewLoop(&lease, check, opts.Stop, logf)
		}
		gRole.Set(0)
		if standby == nil {
			sb, err := StartStandby(sbOpts)
			if err != nil {
				return err
			}
			standby = sb
			logf("replica: node %s following %s (term %d)", lease.ID, st.Addr, st.Term)
		}
		// Jittered wait so cluster peers don't hit the lease in lockstep.
		d := check/2 + time.Duration(rand.Int63n(int64(check)))
		select {
		case <-time.After(d):
		case <-opts.Stop:
			return ErrNodeStopped
		}
	}
}

// renewLoop keeps a promoted leader's lease alive, renewing every TTL/3 (the
// check period) so two consecutive misses still fit inside the TTL; a failed
// renewal is fail-stop.
func renewLoop(lease *Lease, every time.Duration, stop <-chan struct{}, logf func(string, ...any)) error {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ok, err := lease.Renew()
			if err != nil {
				logf("replica: leader %s renew error: %v", lease.ID, err)
				continue // transient FS error: the TTL is the real deadline
			}
			if !ok {
				logf("replica: leader %s lost lease", lease.ID)
				return ErrLeaseLost
			}
		case <-stop:
			lease.Release()
			return ErrNodeStopped
		}
	}
}
