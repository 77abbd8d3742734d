package simfalkon

import (
	"fmt"
	"time"

	"falkon/internal/lrm"
	"falkon/internal/provision"
)

// Allocator is the resource-allocation pathway of the paper's §4.6
// experiments, on virtual time: provision.Allocator over a GRAM gateway and
// the Model the acquired nodes register their executors with. The decision
// of when to call it is provision.Provisioner's, the one the live runtime
// ships; StartProvisioner wires the two.
type Allocator struct {
	m  *Model
	gw *lrm.Gateway

	pending int // nodes requested whose executor has not registered yet
	next    int
	allocs  map[string]*lrm.NodeAllocation
	execs   map[*lrm.Job]*Exec // a registered node's executor
}

// NewAllocator returns an allocator that asks gw for nodes and registers an
// executor with m for each one that comes up.
func NewAllocator(m *Model, gw *lrm.Gateway) *Allocator {
	return &Allocator{m: m, gw: gw, allocs: make(map[string]*lrm.NodeAllocation), execs: make(map[*lrm.Job]*Exec)}
}

// Allocate issues one GRAM request for n nodes. Each node's executor
// registers when the LRM has started it and it has booted, and returns its
// own node when its idle timeout releases it (distributed release).
func (a *Allocator) Allocate(n int, idleTimeout time.Duration) (string, error) {
	a.next++
	id := fmt.Sprintf("alloc-%d", a.next)
	a.pending += n
	a.allocs[id] = a.gw.AllocateNodes(n, func(j *lrm.Job) {
		a.pending--
		a.execs[j] = a.m.AddExecutor(idleTimeout, func(*Exec) { a.gw.ReleaseNode(j) })
	})
	return id, nil
}

// Deallocate gives the allocation back: a node still in the LRM's hands is
// cancelled, an idle executor is released with its node, and a working one
// when it has delivered what it holds.
func (a *Allocator) Deallocate(id string) error {
	na, ok := a.allocs[id]
	if !ok {
		return fmt.Errorf("simfalkon: unknown allocation %q", id)
	}
	delete(a.allocs, id)
	for _, j := range na.Jobs {
		if x, registered := a.execs[j]; registered {
			delete(a.execs, j)
			a.m.Release(x)
		} else {
			a.gw.ReleaseNode(j)
			a.pending--
		}
	}
	return nil
}

// Counts reports the model's live executors and the nodes still in flight
// (Figures 12-13's "allocated" series).
func (a *Allocator) Counts() (alive, pending int) { return a.m.LiveExecutors(), a.pending }

// StartProvisioner runs the shipped provisioner against m on the virtual
// clock: its stats are the model's queue and busy executors, its allocator a
// new Allocator over gw, and Poll runs every PollInterval until done()
// reports true. opts' Stats and Allocator are filled in here.
func StartProvisioner(m *Model, gw *lrm.Gateway, opts provision.Options, done func() bool) (*provision.Provisioner, *Allocator) {
	a := NewAllocator(m, gw)
	opts.Allocator = a
	opts.Stats = func() (provision.Stats, error) {
		return provision.Stats{Queued: m.QueueLen(), Running: m.BusyExecutors()}, nil
	}
	p, err := provision.New(opts)
	if err != nil {
		panic(err) // a bug in the experiment: nothing here comes from outside
	}
	m.E.Every(p.PollInterval(), func() bool {
		if done() {
			return false
		}
		p.Poll()
		return true
	})
	return p, a
}
