package replica

import (
	"fmt"
	"math/rand"
	"time"

	"falkon/internal/obs"
)

// NodeOptions configures one HA cluster member (RunNode).
type NodeOptions struct {
	// ID is this node's identity in the lease file; Addr is the dispatcher
	// address it advertises when leading.
	ID   string
	Addr string
	// Lease is the shared election lease. Its ID/Addr are overwritten with
	// this node's.
	Lease *Lease
	// Standby configures the replication follower run while another node
	// leads. Its Leader resolver is overwritten to follow the lease.
	Standby StandbyOptions
	// Promote starts serving as leader at term: build the dispatcher over
	// the standby's journal directory (the standby is already stopped) and
	// return once it is listening. A Promote error aborts the node.
	Promote func(term uint64) error
	// OnLostLease, when set, runs after a leader fails to renew, just
	// before RunNode returns ErrLeaseLost. The process must stop serving;
	// the standard reaction is to exit and let a supervisor restart the
	// node as a standby.
	OnLostLease func()
	// CheckEvery paces standby-side acquisition attempts (default TTL/3,
	// jittered so peers don't stampede the lease file).
	CheckEvery time.Duration
	// Metrics receives falkon_elections_total and the role/term gauges.
	Metrics *obs.Registry
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
// leader as a replication standby, attempt the lease on every tick, and on
// winning it stop the standby, promote (recover the standby's journal and
// serve), then renew until the lease is lost. It returns ErrLeaseLost after
// a failed renewal (the caller exits; the supervisor restarts the node and
// it rejoins as a standby), ErrNodeStopped on graceful stop, or the first
// hard error.
func RunNode(opts NodeOptions) error {
	if opts.Lease == nil || opts.Promote == nil {
		return fmt.Errorf("replica: node needs Lease and Promote")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	lease := *opts.Lease
	lease.ID, lease.Addr = opts.ID, opts.Addr
	check := opts.CheckEvery
	if check <= 0 {
		check = lease.TTL / 3
	}
	if check <= 0 {
		check = 500 * time.Millisecond
	}
	cElections := opts.Metrics.Counter("falkon_elections_total")
	gRole := opts.Metrics.Gauge("falkon_replica_role")
	gTerm := opts.Metrics.Gauge("falkon_replica_term")

	// The standby follows whoever the lease names — never ourselves.
	sbOpts := opts.Standby
	sbOpts.Metrics = opts.Metrics
	sbOpts.Leader = func() (string, error) {
		st, err := lease.Read()
		if err != nil {
			return "", err
		}
		if st.Holder == "" || st.Expired(time.Now()) {
			return "", fmt.Errorf("replica: no live leader")
		}
		if st.Holder == opts.ID {
			return "", fmt.Errorf("replica: lease names this node but it is not serving")
		}
		return st.Addr, nil
	}
	if sbOpts.ID == "" {
		sbOpts.ID = opts.ID
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
		// TakeOver, not TryAcquire: RunNode only reaches this loop before it
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
			logf("replica: node %s won lease (term %d)", opts.ID, st.Term)
			stopStandby() // closes its journal; Promote recovers it
			cElections.Inc()
			gRole.Set(1)
			gTerm.Set(int64(st.Term))
			if err := opts.Promote(st.Term); err != nil {
				return fmt.Errorf("replica: promote: %w", err)
			}
			return renewLoop(&lease, opts, logf)
		}
		gRole.Set(0)
		if standby == nil {
			sb, err := StartStandby(sbOpts)
			if err != nil {
				return err
			}
			standby = sb
			logf("replica: node %s following %s (term %d)", opts.ID, st.Addr, st.Term)
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

// renewLoop keeps a promoted leader's lease alive. Renewal happens at TTL/3
// so two consecutive misses still fit inside the TTL; a failed renewal is
// fail-stop.
func renewLoop(lease *Lease, opts NodeOptions, logf func(string, ...any)) error {
	every := lease.TTL / 3
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ok, err := lease.Renew()
			if err != nil {
				logf("replica: leader %s renew error: %v", opts.ID, err)
				continue // transient FS error: the TTL is the real deadline
			}
			if !ok {
				logf("replica: leader %s lost lease", opts.ID)
				if opts.OnLostLease != nil {
					opts.OnLostLease()
				}
				return ErrLeaseLost
			}
		case <-opts.Stop:
			lease.Release()
			return ErrNodeStopped
		}
	}
}
