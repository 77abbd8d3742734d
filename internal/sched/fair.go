package sched

import "sort"

// The pending queue: one Ring per tenant arbitrated by start-time
// fair queuing (SFQ). Every pop charges the picked tenant virtual time
// inversely proportional to its weight, so over any busy interval tenants
// receive service in weight ratio regardless of how many tasks each has
// backlogged — one flooding tenant cannot push another tenant's work
// arbitrarily far back. A Core with fair-share off holds the same queue
// with no tenant extractor: one flow, one ring — SFQ over one
// flow is FIFO.

// FairShare configures the weighted fair-share tenant layer of a Core.
type FairShare struct {
	// Weights maps tenant name → relative weight; unlisted tenants get 1. A
	// tenant with weight 2 receives twice the service of a weight-1 tenant
	// while both are backlogged.
	Weights map[string]float64
}

// weightFor resolves the effective weight of a tenant.
func (f *FairShare) weightFor(name string) float64 {
	if w, ok := f.Weights[name]; ok && w > 0 {
		return w
	}
	return 1
}

// tenantQ is one tenant's pending FIFO plus its SFQ service tag.
type tenantQ[T any] struct {
	name string
	cost float64 // virtual service one pop is charged: 1/weight
	ring Ring[Item[T]]
	// finish is the virtual finish tag of this tenant's last pop; the
	// next pop starts at max(finish, global virtual time), which lets an
	// idle tenant re-enter at the current clock instead of burning saved
	// credit or owing debt for time it had nothing queued.
	finish float64
}

// fairQueue multiplexes per-tenant rings under SFQ. All operations are
// deterministic: tenants are scanned in name-sorted order, so ties in
// virtual start time always resolve the same way — both runtimes (live
// and simulated) replay identically from the same inputs.
type fairQueue[T any] struct {
	cfg    FairShare
	tenant func(T) string
	byName map[string]*tenantQ[T]
	order  []*tenantQ[T] // name-sorted, for deterministic scans
	vt     float64       // global virtual time (start tag of last pop)
	total  int
}

func newFairQueue[T any](cfg FairShare, tenant func(T) string) *fairQueue[T] {
	return &fairQueue[T]{
		cfg:    cfg,
		tenant: tenant,
		byName: make(map[string]*tenantQ[T]),
	}
}

// flow returns the queue x belongs in. With no extractor there is one flow
// and no name to look up.
func (q *fairQueue[T]) flow(x T) *tenantQ[T] {
	if q.tenant != nil {
		return q.get(q.tenant(x))
	}
	if len(q.order) == 0 {
		q.get("")
	}
	return q.order[0]
}

// get returns name's queue, creating and order-inserting it on first use.
func (q *fairQueue[T]) get(name string) *tenantQ[T] {
	if tq, ok := q.byName[name]; ok {
		return tq
	}
	tq := &tenantQ[T]{
		name: name,
		cost: 1 / q.cfg.weightFor(name),
		// A new tenant starts at the current virtual time: it competes
		// from now on, with no claim on service that predates it.
		finish: q.vt,
	}
	q.byName[name] = tq
	i := sort.Search(len(q.order), func(i int) bool { return q.order[i].name >= name })
	q.order = append(q.order, nil)
	copy(q.order[i+1:], q.order[i:])
	q.order[i] = tq
	return tq
}

// push appends it to its tenant's ring.
func (q *fairQueue[T]) push(it Item[T]) {
	q.flow(it.X).ring.Push(it)
	q.total++
}

// peek returns the SFQ-minimal backlogged tenant and its virtual start
// time without dequeuing. Ties resolve to the name-sorted earliest.
func (q *fairQueue[T]) peek() (tq *tenantQ[T], start float64, ok bool) {
	for _, cand := range q.order {
		if cand.ring.Len() == 0 {
			continue
		}
		s := cand.finish
		if s < q.vt {
			s = q.vt
		}
		if tq == nil || s < start {
			tq, start = cand, s
		}
	}
	return tq, start, tq != nil
}

// charge books one item removed from tq, the tenant peek selected at virtual
// time start: 1/weight of virtual service.
func (q *fairQueue[T]) charge(tq *tenantQ[T], start float64) {
	tq.finish = start + tq.cost
	q.vt = start
	q.total--
}

// pop removes the next item under SFQ arbitration.
func (q *fairQueue[T]) pop() (Item[T], bool) {
	tq, start, ok := q.peek()
	if !ok {
		return Item[T]{}, false
	}
	q.charge(tq, start)
	return tq.ring.Pop()
}

// each visits every queued item, tenants in name order, FIFO within each.
func (q *fairQueue[T]) each(fn func(Item[T])) {
	for _, tq := range q.order {
		for _, it := range tq.ring.Window(tq.ring.Len()) {
			fn(it)
		}
	}
}

// dropWhere removes every queued item matching the predicate.
func (q *fairQueue[T]) dropWhere(match func(Item[T]) bool) int {
	dropped := 0
	for _, tq := range q.order {
		dropped += tq.ring.DropWhere(match)
	}
	q.total -= dropped
	return dropped
}

// lens accumulates per-tenant queue lengths into dst.
func (q *fairQueue[T]) lens(dst map[string]int) {
	for _, tq := range q.order {
		if n := tq.ring.Len(); n > 0 {
			dst[tq.name] += n
		}
	}
}
