package provision

import (
	"fmt"
	"sync"
	"time"

	"falkon/internal/obs"
)

// Allocator abstracts the resource-allocation pathway (the paper uses GRAM4
// over an LRM; the live runtime starts in-process executors,
// core.LocalAllocator; the simulator allocates nodes of a virtual-time LRM
// through its GRAM gateway, simfalkon.Allocator).
type Allocator interface {
	// Allocate requests one allocation of n executors, each configured with
	// the given distributed idle timeout (0 = no self-release). It returns
	// an allocation id. Executors start asynchronously.
	Allocate(n int, idleTimeout time.Duration) (string, error)
	// Deallocate tears down every executor in the allocation.
	Deallocate(id string) error
	// Counts reports executors alive and executors still starting up across
	// all allocations from this allocator.
	Counts() (alive, pending int)
}

// Stats is what the provisioner reads of a dispatcher: tasks queued and
// tasks dispatched but not yet completed.
type Stats struct {
	Queued  int
	Running int
}

// StatsSource reports current dispatcher state (a direct pointer in-process,
// an RPC shim remotely, the model's counters in the simulator).
type StatsSource func() (Stats, error)

// Options configures a Provisioner.
type Options struct {
	// Stats polls dispatcher state.
	Stats StatsSource
	// Allocator issues and revokes allocations.
	Allocator Allocator
	// Acquisition chooses request sizes (default AllAtOnce, as in the
	// paper's experiments).
	Acquisition AcquisitionPolicy
	// Release selects the release policy (default ReleaseDistributed).
	Release ReleasePolicy
	// IdleTimeout is the distributed release idle time (Falkon-15 used
	// 15 s, etc.). Ignored for other release policies.
	IdleTimeout time.Duration
	// QueueThreshold releases an allocation when queued tasks fall below it
	// (centralized policy only).
	QueueThreshold int
	// MinExecutors and MaxExecutors bound the pool (paper: 0 and 32 for the
	// synthetic workload experiments).
	MinExecutors int
	MaxExecutors int
	// PollInterval is how often whoever drives the provisioner calls Poll
	// (default 1 s): Start's ticker on the wall clock, the simulator's on
	// its virtual one.
	PollInterval time.Duration
	// Logf receives provisioner logs; nil silences them.
	Logf func(format string, args ...any)
	// Metrics, when set, receives allocation/release counters and a live
	// allocation gauge.
	Metrics *obs.Registry
}

// Provisioner drives dynamic resource provisioning for one dispatcher. The
// decision is Poll, which reads no clock: Start runs it on a wall-clock
// ticker, the simulator from its event loop.
type Provisioner struct {
	opts Options

	cAlloc    *obs.Counter // falkon_provision_allocations_total
	cRelease  *obs.Counter // falkon_provision_releases_total
	cRequests *obs.Counter // falkon_provision_executors_requested_total
	gLive     *obs.Gauge   // falkon_provision_allocations_live

	mu          sync.Mutex
	allocations []allocation
	releases    int
	stopped     bool

	stop chan struct{}
	done chan struct{}
}

// allocation is one live request: the allocator's id for it and its size.
type allocation struct {
	id string
	n  int
}

// New validates options and returns an unstarted provisioner.
func New(opts Options) (*Provisioner, error) {
	if opts.Stats == nil {
		return nil, fmt.Errorf("provision: nil stats source")
	}
	if opts.Allocator == nil {
		return nil, fmt.Errorf("provision: nil allocator")
	}
	if opts.Acquisition == nil {
		opts.Acquisition = AllAtOnce()
	}
	if opts.MaxExecutors <= 0 {
		return nil, fmt.Errorf("provision: MaxExecutors must be positive")
	}
	if opts.MinExecutors < 0 || opts.MinExecutors > opts.MaxExecutors {
		return nil, fmt.Errorf("provision: invalid MinExecutors %d", opts.MinExecutors)
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = time.Second
	}
	p := &Provisioner{
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	// A nil registry hands back unregistered instruments, so the hot path
	// needs no guards.
	p.cAlloc = opts.Metrics.Counter("falkon_provision_allocations_total")
	p.cRelease = opts.Metrics.Counter("falkon_provision_releases_total")
	p.cRequests = opts.Metrics.Counter("falkon_provision_executors_requested_total")
	p.gLive = opts.Metrics.Gauge("falkon_provision_allocations_live")
	return p, nil
}

// PollInterval returns the configured poll period with its default resolved.
func (p *Provisioner) PollInterval() time.Duration { return p.opts.PollInterval }

// Start begins the wall-clock polling loop.
func (p *Provisioner) Start() {
	go func() {
		defer close(p.done)
		tick := time.NewTicker(p.opts.PollInterval)
		defer tick.Stop()
		p.Poll() // immediate first evaluation
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.Poll()
			}
		}
	}()
}

// Stop halts the loop. It does not tear down live allocations; call
// ReleaseAll for that.
func (p *Provisioner) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.stopped = true
	p.mu.Unlock()
	close(p.stop)
	<-p.done
}

// Allocations returns the number of allocation requests issued so far (the
// paper's Table 4 "resource allocations" row).
func (p *Provisioner) Allocations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.allocations) + p.releases
}

// logf logs through the configured sink.
func (p *Provisioner) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// Poll performs one evaluate/acquire/release cycle. One caller at a time.
func (p *Provisioner) Poll() {
	st, err := p.opts.Stats()
	if err != nil {
		p.logf("provision: stats: %v", err)
		return
	}
	alive, pending := p.opts.Allocator.Counts()
	have := alive + pending

	// Demand: one executor per queued or in-flight task (the workload's
	// instantaneous width), bounded by the configured pool size.
	demand := st.Queued + st.Running
	if demand < p.opts.MinExecutors {
		demand = p.opts.MinExecutors
	}
	if demand > p.opts.MaxExecutors {
		demand = p.opts.MaxExecutors
	}

	if need := demand - have; need > 0 {
		for _, n := range p.opts.Acquisition.Requests(need) {
			id, err := p.opts.Allocator.Allocate(n, p.idleTimeout())
			if err != nil {
				p.logf("provision: allocate %d: %v", n, err)
				break
			}
			p.mu.Lock()
			p.allocations = append(p.allocations, allocation{id, n})
			p.mu.Unlock()
			p.cAlloc.Inc()
			p.cRequests.Add(int64(n))
			p.gLive.Add(1)
			p.logf("provision: allocated %s (%d executors)", id, n)
		}
	}

	// Centralized release: with the queue below threshold and nothing running,
	// give back the newest allocation if what stays alive is still
	// MinExecutors — an allocation goes whole, so the pool may rest above the
	// minimum, never below it. One a poll, so a burst that arrives meanwhile
	// finds the rest.
	if p.opts.Release == ReleaseCentralized && st.Queued < p.opts.QueueThreshold && st.Running == 0 && alive > 0 {
		p.mu.Lock()
		var id string
		if n := len(p.allocations); n > 0 && max(alive-p.allocations[n-1].n, 0) >= p.opts.MinExecutors {
			id = p.allocations[n-1].id
			p.allocations = p.allocations[:n-1]
			p.releases++
		}
		p.mu.Unlock()
		if id != "" {
			p.cRelease.Inc()
			p.gLive.Add(-1)
			if err := p.opts.Allocator.Deallocate(id); err != nil {
				p.logf("provision: deallocate %s: %v", id, err)
			} else {
				p.logf("provision: released allocation %s", id)
			}
		}
	}
}

// idleTimeout returns the distributed-release timeout to configure on new
// executors.
func (p *Provisioner) idleTimeout() time.Duration {
	if p.opts.Release == ReleaseDistributed {
		return p.opts.IdleTimeout
	}
	return 0
}

// ReleaseAll deallocates everything (shutdown path).
func (p *Provisioner) ReleaseAll() {
	p.mu.Lock()
	all := p.allocations
	p.allocations = nil
	p.releases += len(all)
	p.mu.Unlock()
	p.cRelease.Add(int64(len(all)))
	p.gLive.Add(int64(-len(all)))
	for _, a := range all {
		if err := p.opts.Allocator.Deallocate(a.id); err != nil {
			p.logf("provision: deallocate %s: %v", a.id, err)
		}
	}
}
