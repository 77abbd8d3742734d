package sched

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzCore drives a Core through a sequence of operations decoded from the
// fuzz input — enqueue and restore; add, resize and drop an executor; offer,
// pop and remove idle; pick (Pick, PickWithin, PickAny), then assign;
// complete by the holder in any order, a run of an executor's tasks in grant
// order, by another executor, or twice; expire, drop queued or outstanding,
// each orphan replayed as the dispatcher does — and after every one holds it
// to a reference model (coreModel):
//
//   - every task is in exactly one of queued, outstanding, finished, dropped,
//     with the attempts and stamps the model gave it;
//   - Exec.Assigned is the count of outstanding entries naming the executor,
//     and Slots what it registered or was resized to; AddExec under a live ID
//     keeps the ID's entries, and the new record's Assigned counts them;
//   - a completion counts once, and only from the holder; any other is a
//     counted duplicate;
//   - a task is requeued while its attempts are within its retry bound and
//     never dispatched more than bound+1 times; past it, it finishes failed;
//   - the core's count of free slots is the model's, Σ max(slots − held, 0),
//     and a grant's share is the rule's, from the model's counts: the ask,
//     cut to an even share of the queue over the free slots and of all the
//     work held over the registered ones; a grant holds no more tasks than
//     asked, no more that state no whole run time than that share, and no
//     more declared run time past its first task than the round trip;
//   - an executor goes idle only with a free slot and no push pending, a push
//     goes only to a registered executor with a free slot, and nothing that
//     left the table is on the idle stack;
//   - under weights, two tenants backlogged together never drift apart in
//     weighted service by more than the SFQ bound, 1/w₁ + 1/w₂.
//
// An executor whose slots are taken by assignments or a shrink stays on the
// idle stack and is skipped when popped, so "idle" here is Offer's word.
func FuzzCore(f *testing.F) {
	// Each op is two bytes, (op, arg); the first two bytes configure the core.
	f.Add([]byte{0, 2})
	f.Add([]byte{1, 1, opAdd, 8, opEnqueue, 0, opEnqueue, 1, opEnqueue, 0, opEnqueue, 1, opEnqueue, 0, opEnqueue, 1, opEnqueue, 0, opEnqueue, 1,
		opPick, 0, opPick, 4, opPick, 8, opPick, 0, opCompleteOK, 0, opCompleteFailed, 0, opExpire, 0, opNotify, 0, opOffer, 0})
	f.Add([]byte{3, 2, opAdd, 0, opAdd, 1, opResize, 9, opEnqueue, 37, opRestore, 13, opNote, 4,
		opEnqueue, 40, opOffer, 1, opNotify, 0, opPick, 5, opPick, 1, opCompleteOther, 65, opCompleteTwice, 0,
		opDropQueued, 1, opDropOut, 0, opDrop, 0, opPopIdle, 0, opRemoveIdle, 1, opUnnotify, 1})
	// Grants to a two-slot executor, results out of grant order and in runs,
	// a re-registration under the live ID, and an expiry over what is left.
	f.Add([]byte{0, 1, opAdd, 4, opEnqueue, 0, opEnqueue, 0, opEnqueue, 0, opEnqueue, 0, opEnqueue, 0, opEnqueue, 0,
		opPick, 88, opPick, 88, opPick, 88, opCompleteOK, 3, opCompleteRun, 68, opAdd, 8, opCompleteOther, 1,
		opCompleteRun, 0, opPick, 0, opExpire, 1, opCompleteRun, 96})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := newCoreRig(in)
		for r.step() {
			if err := r.check(); err != nil {
				t.Fatalf("%v\nafter:\n%s", err, strings.Join(r.log, "\n"))
			}
		}
	})
}

const (
	opEnqueue = iota
	opRestore
	opAdd
	opResize
	opDrop
	opOffer
	opPopIdle
	opRemoveIdle
	opPick
	opCompleteOK
	opCompleteFailed
	opCompleteOther
	opCompleteTwice
	opExpire
	opDropQueued
	opDropOut
	opNotify
	opNote
	opUnnotify
	opCompleteRun
	nOps
)

// fuzzTask is FuzzCore's payload: a task names its tenant, dataset, declared
// run time, whether that is its whole run time, and retry bound (0: the core's).
type fuzzTask struct {
	id, retries int
	tn, ds      string
	d           time.Duration
	whole       bool
}

var (
	fuzzExecs    = []string{"e0", "e1", "e2", "e3"}
	fuzzTenants  = []string{"a", "b", "c"}
	fuzzDatasets = []string{"", "d1", "d2"}
)

const (
	queued = iota
	outstanding
	finished
	dropped
)

// mTask is the model's record of one task.
type mTask struct {
	fuzzTask
	state, attempts, limit int
	queuedAt               time.Duration
	holder                 string // while outstanding
	dispatched, notified   time.Duration
	grant                  int // the order it was last assigned in, over all executors
}

// coreModel is what the core must agree with: every task's state, every
// registered executor's slots, and the counters.
type coreModel struct {
	tasks     []mTask // task i+1
	slots     map[string]int
	counters  Counters
	maxRetry  int
	weights   map[string]float64 // nil: fair share off
	served    map[string]float64 // picks per tenant over its weight
	pairStart map[[2]string]float64
	grants    int // assignments so far
}

func (m *coreModel) count(state int, match func(*mTask) bool) int {
	n := 0
	for i := range m.tasks {
		if m.tasks[i].state == state && (match == nil || match(&m.tasks[i])) {
			n++
		}
	}
	return n
}

// out lists the outstanding tasks, by ID.
func (m *coreModel) out() []*mTask {
	var ts []*mTask
	for i := range m.tasks {
		if m.tasks[i].state == outstanding {
			ts = append(ts, &m.tasks[i])
		}
	}
	return ts
}

// heldBy lists the tasks e holds, in grant order.
func (m *coreModel) heldBy(e string) []*mTask {
	ts := slices.DeleteFunc(m.out(), func(t *mTask) bool { return t.holder != e })
	slices.SortFunc(ts, func(a, b *mTask) int { return a.grant - b.grant })
	return ts
}

type coreRig struct {
	in  []byte
	c   *Core[string, int, fuzzTask]
	m   coreModel
	now time.Duration
	log []string
	err error // what step found wrong
}

// maxOps bounds a run: check is linear in the tasks, so a long input would
// cost the square of its length and slow the search down, not widen it.
const maxOps = 256

func newCoreRig(in []byte) *coreRig {
	r := &coreRig{in: in[:min(len(in), 2+2*maxOps)]}
	cfg, maxRetry := r.next(), 1+int(r.next())%3
	r.m = coreModel{slots: map[string]int{}, maxRetry: maxRetry, served: map[string]float64{}, pairStart: map[[2]string]float64{}}
	opts := Options[fuzzTask]{
		MaxRetries:  maxRetry,
		Dataset:     func(x fuzzTask) string { return x.ds },
		TaskRetries: func(x fuzzTask) int { return x.retries },
		Tenant:      func(x fuzzTask) string { return x.tn },
		Declared:    func(x fuzzTask) (time.Duration, bool) { return x.d, x.whole },
	}
	if cfg&1 != 0 {
		r.m.weights = map[string]float64{}
		for i, tn := range fuzzTenants {
			r.m.weights[tn] = float64(1 + int(cfg>>(1+2*i))%3)
		}
		opts.FairShare = &FairShare{Weights: r.m.weights}
	}
	r.c = NewCore[string, int](opts)
	r.logf("config: max retries %d, weights %v", maxRetry, r.m.weights)
	return r
}

func (r *coreRig) next() byte {
	if len(r.in) == 0 {
		return 0
	}
	b := r.in[0]
	r.in = r.in[1:]
	return b
}

func (r *coreRig) logf(format string, args ...any) {
	r.log = append(r.log, fmt.Sprintf("%3d  ", len(r.log))+fmt.Sprintf(format, args...))
}

// exec returns e's record, or nil when it is not registered (the model's
// word; check holds the core to it).
func (r *coreRig) exec(e string) *Exec[string] {
	if _, ok := r.m.slots[e]; !ok {
		return nil
	}
	x, _ := r.c.Exec(e)
	return x
}

// step decodes and applies one operation; false once the input is used up.
// An operation the state has no subject for does nothing.
func (r *coreRig) step() bool {
	if len(r.in) < 2 {
		return false
	}
	op, arg := int(r.next())%nOps, int(r.next())
	r.now++
	c, m := r.c, &r.m
	e := fuzzExecs[arg%4]
	x := r.exec(e)
	switch op {
	case opEnqueue, opRestore:
		t := fuzzTask{id: len(m.tasks) + 1, tn: fuzzTenants[arg%3], retries: arg / 3 % 4, ds: fuzzDatasets[arg/12%3], d: time.Duration(arg/36%2) * 10, whole: arg/72%2 == 1}
		mt := mTask{fuzzTask: t, queuedAt: r.now, limit: t.retries}
		if mt.limit == 0 {
			mt.limit = m.maxRetry
		}
		if op == opEnqueue {
			c.Enqueue(r.now, t)
			m.counters.Submitted++
		} else {
			mt.attempts = arg / 12 % (mt.limit + 1)
			c.Restore(r.now, t, mt.attempts)
		}
		m.tasks = append(m.tasks, mt)
		r.logf("%s task %d %+v attempts %d", [...]string{"enqueue", "restore"}[op], t.id, t, mt.attempts)
	case opAdd:
		m.slots[e] = 1 + arg/4%3
		if y := c.AddExec(e, m.slots[e]); y == x {
			return r.fail("AddExec(%s) returned the record it replaced", e)
		}
		r.logf("add %s, %d slots (registered before: %v)", e, m.slots[e], x != nil)
	case opResize:
		if x == nil {
			return true
		}
		c.Resize(x, arg/4%5)
		m.slots[e] = max(arg/4%5, 1)
		r.logf("resize %s to %d (holds %d)", e, arg/4%5, x.Assigned)
	case opDrop:
		gone, orphans := c.DropExecutor(e)
		r.logf("drop %s: %d orphans", e, len(orphans))
		if (gone != nil) != (x != nil) {
			return r.fail("DropExecutor(%s) returned %v for a registered-%v executor", e, gone, x != nil)
		}
		var want []int
		for _, t := range m.out() {
			if t.holder == e {
				want = append(want, t.id)
			}
		}
		delete(m.slots, e)
		r.replay(orphans, want)
	case opOffer:
		if x == nil {
			return true
		}
		want := x.idlePos < 0 && !x.Notified && x.Assigned < x.Slots
		if got := c.Offer(x); got != want || (got && x.idlePos < 0) {
			return r.fail("Offer(%s) = %v, want %v (free %d, notified %v)", e, got, want, x.Free(), x.Notified)
		}
		r.logf("offer %s", e)
	case opPopIdle:
		if p, ok := c.PopIdle(); ok {
			r.logf("pop idle: %s", p.ID)
			if q, _ := c.Exec(p.ID); q != p || p.idlePos >= 0 {
				return r.fail("PopIdle returned %s, not the registered record or still idle", p.ID)
			}
		}
	case opRemoveIdle:
		if x == nil {
			return true
		}
		c.RemoveIdle(x)
		r.logf("remove idle %s", e)
		if x.idlePos >= 0 {
			return r.fail("%s idle after RemoveIdle", e)
		}
	case opPick:
		if x == nil {
			return true
		}
		switch arg / 4 % 3 {
		case 0:
			r.pick(x, 0, nil)
		case 1:
			// A grant, as the dispatcher cuts one (Core.Grant).
			rtt := [...]time.Duration{math.MaxInt64, 15, 0}[arg/96]
			asked := 1 + arg/12%8
			share := c.Share(asked)
			if err := r.checkShare(asked, share); err != nil {
				return r.fail("%v", err)
			}
			g := c.Grant(asked, rtt)
			var n, unstated int
			var run time.Duration
			for t := r.pick(x, 1, &g); t != nil; t = r.pick(x, 1, &g) {
				if n > 0 && run+t.d > rtt {
					return r.fail("grant took task %d, declaring %d, past %d of %d round trip", t.id, t.d, run, rtt)
				}
				if n++; !t.whole {
					unstated++
				}
				run += t.d
			}
			if n > asked || unstated > share {
				return r.fail("grant of %d tasks, %d stating no whole run time, for an ask of %d and a share of %d", n, unstated, asked, share)
			}
		case 2:
			r.pick(x, 2, nil)
		}
	case opCompleteOK, opCompleteFailed, opCompleteOther, opCompleteTwice:
		out := m.out()
		if len(out) == 0 {
			return true
		}
		t := out[arg%len(out)]
		by := t.holder
		if op == opCompleteOther {
			by = fuzzExecs[(slices.Index(fuzzExecs, t.holder)+1+arg/64%3)%4]
		}
		r.logf("complete task %d by %s (holder %s, op %d)", t.id, by, t.holder, op)
		if op == opCompleteOther {
			m.counters.Duplicates++
			if _, ok := c.Complete(by, t.id); ok {
				return r.fail("Complete(%s, %d) accepted from a non-holder", by, t.id)
			}
			return true
		}
		o, ok := c.Complete(by, t.id)
		if !r.completed(t, o, ok) {
			return true
		}
		if op == opCompleteFailed {
			r.replay([]Outstanding[string, int, fuzzTask]{o}, []int{t.id})
			return true
		}
		t.state = finished
		if op == opCompleteTwice {
			m.counters.Duplicates++
			if _, ok := c.Complete(by, t.id); ok {
				return r.fail("Complete(%s, %d) accepted twice", by, t.id)
			}
		}
	case opExpire:
		cutoff := r.now - time.Duration(arg%8)
		var want []int
		for _, t := range m.out() {
			if t.dispatched < cutoff {
				want = append(want, t.id)
			}
		}
		exp := c.Expire(cutoff)
		r.logf("expire before %d: %d", cutoff, len(exp))
		for _, o := range exp {
			if y := r.exec(o.Executor); y != nil && (!y.Suspect || !(y.idlePos >= 0 || y.Notified || y.Free() <= 0)) {
				return r.fail("%s lost task %d to the replay timeout: suspect %v, idle %v with %d free", o.Executor, o.Key, y.Suspect, y.idlePos >= 0, y.Free())
			}
		}
		r.replay(exp, want)
	case opDropQueued, opDropOut:
		tn := fuzzTenants[arg%3]
		state := [...]int{opDropQueued: queued, opDropOut: outstanding}[op]
		match := func(t *mTask) bool { return t.tn == tn }
		want := m.count(state, match)
		var got int
		if op == opDropQueued {
			got = c.DropQueued(func(x fuzzTask) bool { return x.tn == tn })
		} else {
			got = c.DropOutstanding(func(x fuzzTask) bool { return x.tn == tn })
		}
		r.logf("drop tenant %s's %s: %d", tn, [...]string{"queued", "outstanding"}[state], got)
		if got != want {
			return r.fail("dropped %d, want %d", got, want)
		}
		for i := range m.tasks {
			if t := &m.tasks[i]; t.state == state && match(t) {
				t.state = dropped
			}
		}
	case opCompleteRun:
		// What a slot's Deliver brings: a run of the tasks one executor holds,
		// in the order they were granted to it, from the record the caller holds.
		held := m.heldBy(e)
		if len(held) == 0 {
			return true
		}
		from := arg / 4 % len(held)
		run := held[from:min(len(held), from+1+arg/32)]
		r.logf("complete %d of %s's tasks in grant order from task %d", len(run), e, run[0].id)
		for _, t := range run {
			if o, ok := c.CompleteFrom(x, t.id); !r.completed(t, o, ok) {
				return true
			}
			t.state = finished
		}
	case opNotify:
		ns := c.Notifications(r.now)
		r.logf("notifications: %d", len(ns))
		seen := map[string]bool{}
		for _, n := range ns {
			if q := r.exec(n.Exec.ID); q != n.Exec || seen[n.Exec.ID] || n.Exec.Free() <= 0 || !n.Exec.Notified || n.Exec.idlePos >= 0 || n.Exec.LastNotifyAt != r.now {
				return r.fail("pushed %s: registered record %v, twice %v, free %d, notified %v, idle %v", n.Exec.ID, q == n.Exec, seen[n.Exec.ID], n.Exec.Free(), n.Exec.Notified, n.Exec.idlePos >= 0)
			}
			seen[n.Exec.ID] = true
		}
	case opNote:
		if x == nil {
			return true
		}
		c.NoteCompletion(x, fuzzDatasets[1+arg/4%2])
		r.logf("%s holds %s", e, fuzzDatasets[1+arg/4%2])
	case opUnnotify:
		if x == nil {
			return true
		}
		x.Notified, x.Suspect = false, false // what a pull or a delivery does
		r.logf("%s heard from", e)
	}
	return true
}

// completed holds one completion of t by its holder to the model; false when
// it failed the run.
func (r *coreRig) completed(t *mTask, o Outstanding[string, int, fuzzTask], ok bool) bool {
	if !ok || o.Key != t.id || o.Executor != t.holder || o.Item.Attempts != t.attempts || o.DispatchedAt != t.dispatched ||
		o.NotifiedAt != t.notified || o.Item.QueuedAt != t.queuedAt {
		return !r.fail("completion of task %d by %s = %+v, %v; the model holds %+v", t.id, t.holder, o, ok, *t)
	}
	return true
}

// fail records what step found wrong, for check to report, and ends the run.
func (r *coreRig) fail(format string, args ...any) bool {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.in = nil
	return true
}

// pick picks for x (mode 0 Pick, 1 PickWithin g, 2 PickAny) and assigns
// what it got to x, which it returns.
func (r *coreRig) pick(x *Exec[string], mode int, g *Grant) *mTask {
	c, m := r.c, &r.m
	var it Item[fuzzTask]
	var hit, ok bool
	switch mode {
	case 0:
		it, hit, ok = c.Pick(x)
	case 1:
		it, hit, ok = c.PickWithin(x, g)
	case 2:
		it, ok = c.PickAny()
	}
	if !ok {
		r.logf("pick for %s (mode %d, grant %+v): none", x.ID, mode, g)
		if g == nil && m.count(queued, nil) > 0 {
			r.fail("nothing picked from %d queued", m.count(queued, nil))
		}
		return nil
	}
	r.logf("pick for %s (mode %d, grant %+v): task %d, hit %v", x.ID, mode, g, it.X.id, hit)
	if it.X.id < 1 || it.X.id > len(m.tasks) {
		r.fail("picked task %d, which was never queued", it.X.id)
		return nil
	}
	t := &m.tasks[it.X.id-1]
	if t.state != queued || it.Attempts != t.attempts || it.QueuedAt != t.queuedAt || (hit && (x.Cache == nil || !x.Cache.Has(t.ds))) {
		r.fail("picked %+v (hit %v); the model holds %+v", it, hit, *t)
		return nil
	}
	if m.weights != nil {
		m.served[t.tn] += 1 / m.weights[t.tn]
	}
	notified := x.LastNotifyAt
	if notified < it.QueuedAt || notified > r.now {
		notified = r.now
	}
	o := c.Assign(r.now, x, t.id, it)
	t.state, t.holder, t.dispatched, t.notified, t.grant = outstanding, x.ID, r.now, notified, m.grants
	t.attempts++
	m.grants++
	m.counters.Dispatched++
	if o.Item.Attempts != t.attempts || o.NotifiedAt != notified || o.DispatchedAt != r.now || o.Executor != x.ID {
		r.fail("Assign gave %+v; want attempts %d, notified %d", o, t.attempts, notified)
		return nil
	}
	return t
}

// replay applies the replay policy to orphans, which must be the tasks want
// names, as the dispatcher does: requeued while retries remain, else failed.
func (r *coreRig) replay(orphans []Outstanding[string, int, fuzzTask], want []int) {
	var got []int
	for _, o := range orphans {
		got = append(got, o.Key)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		r.fail("orphaned tasks %v, want %v", got, want)
		return
	}
	slices.SortFunc(orphans, func(a, b Outstanding[string, int, fuzzTask]) int { return a.Key - b.Key })
	for _, o := range orphans {
		t := &r.m.tasks[o.Key-1]
		if o.Item.Attempts != t.attempts || o.Item.QueuedAt != t.queuedAt {
			r.fail("orphan %+v; the model holds %+v", o, *t)
			return
		}
		requeued := r.c.Requeue(o.Item)
		r.logf("replay task %d after %d attempts (bound %d): requeued %v", t.id, t.attempts, t.limit, requeued)
		if requeued != (t.attempts <= t.limit) {
			r.fail("Requeue of task %d after %d attempts with bound %d = %v", t.id, t.attempts, t.limit, requeued)
			return
		}
		t.state = finished // failed, retries exhausted
		if requeued {
			t.state = queued
			r.m.counters.Retried++
		}
	}
}

// check holds the core to the model after an operation.
func (r *coreRig) check() error {
	if r.err != nil {
		return r.err
	}
	c, m := r.c, &r.m
	if q, o := m.count(queued, nil), m.count(outstanding, nil); c.QueueLen() != q || c.OutstandingLen() != o {
		return fmt.Errorf("core holds %d queued and %d outstanding, model %d and %d", c.QueueLen(), c.OutstandingLen(), q, o)
	}
	var err error
	seen := make(map[int]bool)
	c.EachQueued(func(it Item[fuzzTask]) {
		if t := &m.tasks[it.X.id-1]; t.state != queued || seen[t.id] || it.Attempts != t.attempts || it.QueuedAt != t.queuedAt {
			err = fmt.Errorf("queued %+v (seen before: %v); the model holds %+v", it, seen[t.id], *t)
		}
		seen[it.X.id] = true
	})
	c.EachOutstanding(func(o Outstanding[string, int, fuzzTask]) {
		if t := &m.tasks[o.Key-1]; t.state != outstanding || o.Executor != t.holder || o.Item.Attempts != t.attempts || o.DispatchedAt != t.dispatched {
			err = fmt.Errorf("outstanding %+v; the model holds %+v", o, *t)
		}
	})
	if err != nil {
		return err
	}
	for _, t := range m.tasks {
		if t.attempts > t.limit+1 {
			return fmt.Errorf("task %d dispatched %d times with retry bound %d", t.id, t.attempts, t.limit)
		}
	}
	slots, busy := 0, 0
	for _, e := range fuzzExecs {
		x, ok := c.Exec(e)
		want, registered := m.slots[e]
		if ok != registered {
			return fmt.Errorf("%s registered %v, model %v", e, ok, registered)
		}
		if !ok {
			continue
		}
		held := m.count(outstanding, func(t *mTask) bool { return t.holder == e })
		if x.Slots != want || x.Assigned != held || (x.idlePos >= 0 && x.Notified) {
			return fmt.Errorf("%s: %d slots, %d assigned, idle %v, notified %v; model %d slots, %d held", e, x.Slots, x.Assigned, x.idlePos >= 0, x.Notified, want, held)
		}
		slots += want
		if held > 0 {
			busy++
		}
	}
	if total, b := c.ExecStats(); c.Slots() != slots || total != len(m.slots) || b != busy {
		return fmt.Errorf("core: %d slots, %d executors, %d busy; model %d, %d, %d", c.Slots(), total, b, slots, len(m.slots), busy)
	}
	if free, _ := m.freeSlots(); c.free != free {
		return fmt.Errorf("core: %d free slots; model %d", c.free, free)
	}
	if got := c.Counters; got.Submitted != m.counters.Submitted || got.Dispatched != m.counters.Dispatched ||
		got.Retried != m.counters.Retried || got.Duplicates != m.counters.Duplicates {
		return fmt.Errorf("counters %+v, model %+v", got, m.counters)
	}
	if m.weights != nil {
		return r.checkFairShare()
	}
	return nil
}

// freeSlots is the model's count of slots free to take work: each
// registered executor's slots less what it holds, none for one that holds
// more than it has.
func (m *coreModel) freeSlots() (free, slots int) {
	for e, n := range m.slots {
		free += max(n-m.count(outstanding, func(t *mTask) bool { return t.holder == e }), 0)
		slots += n
	}
	return free, slots
}

// checkShare holds a grant of n for an ask of asked to the rule, from the
// model's counts: the ask, cut to an even share of the queue over the free
// slots and of all the work held over the registered ones, and at least 1 —
// so never below an even share of the queue over the registered slots.
func (r *coreRig) checkShare(asked, n int) error {
	m := &r.m
	free, slots := m.freeSlots()
	queued, held := m.count(queued, nil), m.count(outstanding, nil)
	ceil := func(a, b int) int { return (a + b - 1) / b }
	want, floor := asked, asked
	if free > 0 {
		want = min(want, ceil(queued, free))
	}
	if slots > 0 {
		want = min(want, ceil(queued+held, slots))
		floor = min(floor, ceil(queued, slots))
	}
	if want, floor = max(want, 1), max(floor, 1); n != want || n < floor {
		return fmt.Errorf("Share(%d) = %d with %d queued, %d held, %d of %d slots free: want %d, at least %d", asked, n, queued, held, free, slots, want, floor)
	}
	return nil
}

// checkFairShare holds the queue to the per-tenant counts and every pair of
// tenants backlogged together to the SFQ bound, measured from when both
// became backlogged.
func (r *coreRig) checkFairShare() error {
	m := &r.m
	lens := map[string]int{}
	r.c.TenantQueueLens(lens)
	for _, tn := range fuzzTenants {
		if want := m.count(queued, func(t *mTask) bool { return t.tn == tn }); lens[tn] != want {
			return fmt.Errorf("tenant %s: %d queued, model %d", tn, lens[tn], want)
		}
	}
	for i, a := range fuzzTenants {
		for _, b := range fuzzTenants[i+1:] {
			pair, gap := [2]string{a, b}, m.served[a]-m.served[b]
			if lens[a] == 0 || lens[b] == 0 {
				delete(m.pairStart, pair)
				continue
			}
			start, ok := m.pairStart[pair]
			if !ok {
				m.pairStart[pair] = gap
				continue
			}
			if bound := 1/m.weights[a] + 1/m.weights[b]; math.Abs(gap-start) > bound+1e-9 {
				return fmt.Errorf("tenants %s and %s drifted %.3f apart in weighted service while both were backlogged (SFQ bound %.3f)", a, b, gap-start, bound)
			}
		}
	}
	return nil
}
