package sched

import "time"

const (
	// window bounds how deep into the queue a pick looks for a task whose
	// dataset the picking executor holds; beyond it, age wins over locality
	// (prevents starvation).
	window = 64
	// cacheCapacity is how many datasets an executor's cache remembers.
	cacheCapacity = 16
)

// Item is one queued (or re-queued) task: the caller's payload plus the
// bookkeeping the core owns. QueuedAt is the first enqueue time and
// survives retries; Attempts counts dispatches so far.
type Item[T any] struct {
	X        T
	QueuedAt time.Duration
	Attempts int
}

// Exec is the core's per-executor scheduling record. Ref is an opaque
// caller attachment (the live runtime hangs its connection state there,
// the simulator its timer state) carried back on effects.
type Exec[E comparable] struct {
	ID       E
	Slots    int
	Assigned int
	// Notified marks an un-acknowledged work-available push; an executor
	// gets at most one (it clears when the executor next pulls or
	// delivers).
	Notified bool
	// Suspect marks an executor the core took a slot back from without its
	// word — the replay timeout expired its task (Expire). It has said
	// nothing and may be hung; like Notified, the flag clears when the
	// executor next pulls or delivers, and until then the live runtime hands
	// it no work it has not asked for.
	Suspect bool
	// LastNotifyAt is when the last work-available push was sent — the
	// anchor of the Figure-10 enqueue→notify stage.
	LastNotifyAt time.Duration
	// Cache is the executor's dataset cache: nil until it first finishes a
	// task that names a dataset (NoteCompletion).
	Cache *DatasetCache
	Ref   any

	idlePos int // index in the idle stack, -1 when absent
	// out is the executor's outstanding records (an *outQueue), nil until it
	// is first assigned a task: an executor that never runs one costs none.
	out any
}

// Free returns the executor's unassigned slots.
func (x *Exec[E]) Free() int { return x.Slots - x.Assigned }

// unheld is Free, or 0 for an executor that holds more than its slots (it
// shrank, or re-registered narrower, with its tasks still out): its share of
// the core's free-slot count.
func (x *Exec[E]) unheld() int { return max(x.Free(), 0) }

// Outstanding records one dispatched task awaiting its result.
type Outstanding[E comparable, K comparable, T any] struct {
	Key      K
	Item     Item[T]
	Executor E
	// DispatchedAt is assignment time; NotifiedAt is the notification the
	// assignment answered, clamped into [Item.QueuedAt, DispatchedAt] so
	// the Figure-10 stages partition exactly (see Stamps).
	DispatchedAt time.Duration
	NotifiedAt   time.Duration
}

// Notification is one work-available push the caller owes an executor.
type Notification[E comparable] struct {
	Exec *Exec[E]
	// Queued is the queue-depth hint carried in the push.
	Queued int
}

// Counters aggregates the scheduling lifecycle counts both runtimes
// report. The core increments the counters tied to its own transitions
// (Submitted, Dispatched, Retried, Duplicates, CacheHits, CacheMisses);
// callers increment Completed/Failed when they finalize results, since
// finalization is a runtime-side effect.
type Counters struct {
	Submitted   int64
	Completed   int64
	Failed      int64
	Retried     int64
	Dispatched  int64
	Duplicates  int64
	CacheHits   int64
	CacheMisses int64
}

// Options configures a Core.
type Options[T any] struct {
	// MaxRetries bounds per-task re-dispatches (default 3); a task may be
	// requeued MaxRetries times, so it runs at most MaxRetries+1 times.
	MaxRetries int
	// Dataset extracts the dataset a task reads ("" when untagged); nil
	// treats every task as untagged.
	Dataset func(T) string
	// TaskRetries extracts a per-task retry bound overriding MaxRetries
	// (0 = no override); nil disables overrides.
	TaskRetries func(T) int
	// Tenant extracts the tenant a task was submitted under ("" = the
	// default tenant); nil treats all work as one tenant.
	Tenant func(T) string
	// Declared extracts the run time a task states for itself (0 = none
	// stated) — the paper's "clients assign each task an estimated
	// runtime", which is what makes dispatcher→executor bundling safe with
	// mixed task sizes (see Grant) — and whether that is its whole run time;
	// nil treats every task as unstated.
	Declared func(T) (run time.Duration, whole bool)
	// FairShare enables the weighted fair-share tenant layer (see the
	// FairShare type); nil queues all work as one FIFO flow.
	FairShare *FairShare
}

// Core is the scheduling state machine: pending queue, executor table
// with idle tracking, each executor's queue of outstanding tasks, replay
// bookkeeping, and the pick rule. It is not safe for concurrent use — the
// live dispatcher serializes access under its mutex, the simulator is
// single-threaded.
//
// Type parameters: E identifies executors, K identifies outstanding
// (dispatched, unacknowledged) tasks, T is the caller's task payload.
type Core[E comparable, K comparable, T any] struct {
	opts Options[T]
	// queue holds the pending work: per-tenant flows under fair-share, one
	// flow (plain FIFO) without it.
	queue *fairQueue[T]
	execs map[E]*Exec[E]
	slots int        // sum of Slots over execs
	free  int        // sum of max(Slots-Assigned, 0) over execs (Share)
	idle  []*Exec[E] // LIFO stack; nil slots are tombstones
	dead  int        // tombstone count in idle
	// nout counts the outstanding records, which live in their executors'
	// queues (outQueue).
	nout int
	// notes is what Notifications returns, kept from call to call.
	notes []Notification[E]

	// Counters is exported state: the caller owns Completed/Failed (see
	// Counters doc) and snapshots the rest.
	Counters Counters
}

// NewCore constructs a core with opts defaults resolved.
func NewCore[E comparable, K comparable, T any](opts Options[T]) *Core[E, K, T] {
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 3
	}
	c := &Core[E, K, T]{
		opts:  opts,
		execs: make(map[E]*Exec[E]),
	}
	c.SetFairShare(opts.FairShare)
	return c
}

// SetFairShare reconfigures the fair-share tenant layer (nil = off: one
// flow, whatever tenant a task names), moving any queued work over in the
// order it would have been served. The simulator folds its public knobs
// through here; live callers configure at construction.
func (c *Core[E, K, T]) SetFairShare(fs *FairShare) {
	old := c.queue
	c.opts.FairShare = fs
	if fs != nil {
		c.queue = newFairQueue(*fs, c.opts.Tenant)
	} else {
		c.queue = newFairQueue[T](FairShare{}, nil)
	}
	if old != nil {
		for it, ok := old.pop(); ok; it, ok = old.pop() {
			c.queue.push(it)
		}
	}
}

// FairShareEnabled reports whether the fair-share tenant layer is active.
func (c *Core[E, K, T]) FairShareEnabled() bool { return c.opts.FairShare != nil }

// SetMaxRetries updates the default retry bound (n <= 0 keeps current).
func (c *Core[E, K, T]) SetMaxRetries(n int) {
	if n > 0 {
		c.opts.MaxRetries = n
	}
}

// QueueLen returns queued (not yet dispatched) tasks.
func (c *Core[E, K, T]) QueueLen() int { return c.queue.total }

// TenantQueueLens accumulates per-tenant queued counts into dst. Only
// meaningful under fair-share; without it the queue is tenant-blind and
// nothing is reported.
func (c *Core[E, K, T]) TenantQueueLens(dst map[string]int) {
	if c.FairShareEnabled() {
		c.queue.lens(dst)
	}
}

// OutstandingLen returns dispatched, unacknowledged tasks.
func (c *Core[E, K, T]) OutstandingLen() int { return c.nout }

// Empty reports that nothing is queued or outstanding (drain condition).
func (c *Core[E, K, T]) Empty() bool { return c.QueueLen() == 0 && c.nout == 0 }

// Enqueue admits a new task at now. Requeues go through Requeue instead so
// Submitted counts tasks, not attempts.
func (c *Core[E, K, T]) Enqueue(now time.Duration, x T) {
	c.queue.push(Item[T]{X: x, QueuedAt: now})
	c.Counters.Submitted++
}

// Restore re-admits a recovered task with its prior attempt count, without
// counting it as a new submission — journal recovery restores Counters
// wholesale and must not double-count.
func (c *Core[E, K, T]) Restore(now time.Duration, x T, attempts int) {
	c.queue.push(Item[T]{X: x, QueuedAt: now, Attempts: attempts})
}

// EachQueued visits every queued item (snapshot capture): FIFO order, or
// under fair-share tenants in name order with FIFO within each. The
// callback must not mutate the core.
func (c *Core[E, K, T]) EachQueued(fn func(Item[T])) { c.queue.each(fn) }

// EachOutstanding visits every outstanding entry, executor by executor in
// unspecified order and each executor's in grant order (snapshot capture).
// The callback must not mutate the core.
func (c *Core[E, K, T]) EachOutstanding(fn func(Outstanding[E, K, T])) {
	for _, x := range c.execs {
		if q := c.outOf(x); q != nil {
			for _, o := range q.recs[q.head:] {
				if o.Item.Attempts != 0 {
					fn(o)
				}
			}
		}
	}
}

// DropQueued removes every queued task matching the predicate.
func (c *Core[E, K, T]) DropQueued(match func(T) bool) int {
	return c.queue.dropWhere(func(it Item[T]) bool { return match(it.X) })
}

// DropOutstanding removes every outstanding task matching the predicate,
// giving its slot back and re-offering the executor, and returns how many it
// removed. A result that still arrives for one is a duplicate.
func (c *Core[E, K, T]) DropOutstanding(match func(T) bool) int {
	dropped := 0
	for _, x := range c.execs {
		q := c.outOf(x)
		if q == nil {
			continue
		}
		n := dropped
		for p := q.head; p < len(q.recs); p++ {
			if o := &q.recs[p]; o.Item.Attempts != 0 && match(o.Item.X) {
				c.take(x, q, p)
				dropped++
			}
		}
		if dropped > n {
			c.Offer(x)
		}
	}
	return dropped
}

// AddExec registers an executor with the given slot capacity. Under an ID
// already registered it starts a fresh scheduling record, which takes over
// the old one's outstanding entries: Assigned goes on counting them.
func (c *Core[E, K, T]) AddExec(id E, slots int) *Exec[E] {
	if slots <= 0 {
		slots = 1
	}
	x := &Exec[E]{ID: id, Slots: slots, idlePos: -1}
	if old, ok := c.execs[id]; ok {
		c.RemoveIdle(old)
		c.slots -= old.Slots
		c.free -= old.unheld()
		x.Assigned, x.out, old.out = old.Assigned, old.out, nil
	}
	c.slots += slots
	c.free += x.unheld()
	c.execs[id] = x
	return x
}

// Exec looks an executor up by id.
func (c *Core[E, K, T]) Exec(id E) (*Exec[E], bool) {
	x, ok := c.execs[id]
	return x, ok
}

// ExecStats returns registered and busy (assigned > 0) executor counts.
func (c *Core[E, K, T]) ExecStats() (total, busy int) {
	for _, x := range c.execs {
		total++
		if x.Assigned > 0 {
			busy++
		}
	}
	return total, busy
}

// Slots returns the registered slots, summed over executors (the capacity a
// tree parent is told).
func (c *Core[E, K, T]) Slots() int { return c.slots }

// Resize changes a registered executor's slot count and nothing else: what it
// holds stays counted against it. The caller offers it again if it grew.
func (c *Core[E, K, T]) Resize(x *Exec[E], slots int) {
	if slots <= 0 {
		slots = 1
	}
	c.slots += slots - x.Slots
	c.free -= x.unheld()
	x.Slots = slots
	c.free += x.unheld()
}

// DropExecutor removes an executor (disconnect, deregister, release) and
// returns its outstanding tasks, in grant order, for the caller to replay or
// finalize: its own queue's array, read and handed back with no other
// executor's task visited.
func (c *Core[E, K, T]) DropExecutor(id E) (x *Exec[E], dropped []Outstanding[E, K, T]) {
	x, ok := c.execs[id]
	if !ok {
		return nil, nil
	}
	delete(c.execs, id)
	c.slots -= x.Slots
	c.free -= x.unheld()
	c.RemoveIdle(x)
	if q := c.outOf(x); q != nil && x.Assigned > 0 {
		q.compact(x.Assigned)
		dropped, c.nout = q.recs, c.nout-x.Assigned
	}
	x.out = nil
	return x, dropped
}

// Offer records that x has free capacity and no pending notification,
// pushing it on the idle stack. It reports whether x became idle.
func (c *Core[E, K, T]) Offer(x *Exec[E]) bool {
	if x.idlePos >= 0 || x.Notified || x.Assigned >= x.Slots {
		return false
	}
	x.idlePos = len(c.idle)
	c.idle = append(c.idle, x)
	return true
}

// PopIdle pops the most recently idled executor (LIFO, matching the
// paper's stack behaviour) or reports ok=false when none remain.
func (c *Core[E, K, T]) PopIdle() (*Exec[E], bool) {
	for n := len(c.idle); n > 0; n = len(c.idle) {
		x := c.idle[n-1]
		c.idle = c.idle[:n-1]
		if x == nil {
			c.dead--
			continue
		}
		x.idlePos = -1
		return x, true
	}
	return nil, false
}

// RemoveIdle drops x from the idle stack in O(1) by tombstoning its
// tracked position (the old implementations scanned the whole stack).
// Remaining executors keep their relative order, so pop order — and with
// it simulator determinism — is unchanged.
func (c *Core[E, K, T]) RemoveIdle(x *Exec[E]) {
	if x.idlePos < 0 {
		return
	}
	c.idle[x.idlePos] = nil
	x.idlePos = -1
	c.dead++
	// Compact when tombstones dominate, keeping the stack at 2x live.
	if c.dead > 64 && c.dead*2 >= len(c.idle) {
		kept := c.idle[:0]
		for _, v := range c.idle {
			if v != nil {
				v.idlePos = len(kept)
				kept = append(kept, v)
			}
		}
		clearTail(c.idle, len(kept))
		c.idle = kept
		c.dead = 0
	}
}

// Share is the even-share half of the grant rule (dispatch-ahead): an
// executor that asks for asked tasks in one pull gets at most
// ⌈queued ÷ free slots⌉ tasks that state no whole run time, so that no slot
// free to take work is left without its share of the queue, and at most
// ⌈(queued + outstanding) ÷ registered slots⌉, an even share of all the work
// the core holds, so that one slot never takes the whole queue while its
// neighbours are busy; never less than 1. The free slots — Σ max(Slots −
// Assigned, 0), the asker's among them, since it has just delivered or is
// waiting — are a count kept as slots and assignments change, not a loop;
// with none free the first bound is skipped. It is a hedge against a run
// time mispredicted from history, which a task that states its whole run
// time does not need (Grant).
func (c *Core[E, K, T]) Share(asked int) int {
	queued := c.QueueLen()
	if c.free > 0 {
		asked = min(asked, (queued+c.free-1)/c.free)
	}
	if c.slots > 0 {
		asked = min(asked, (queued+c.nout+c.slots-1)/c.slots)
	}
	return max(asked, 1)
}

// Grant is what is left of one pull reply's budget, which PickWithin spends
// task by task.
type Grant struct {
	ask, taken int
	unstated   int           // tasks that state no whole run time still to take: Share
	room       time.Duration // declared run time still to take, once a task is in
}

// Grant opens the budget of one pull reply (dispatch-ahead) to an executor
// that asked for asked tasks and whose last round trip took rtt. Tasks are
// taken in pick order up to the ask, and the reply stops at the first that
// would take it past either of two more limits, never skipping ahead, so
// SFQ order and locality hold:
//   - Share(asked) of the tasks that state no whole run time (exec, func,
//     and data tasks that stage an io), which are cut evenly over the free
//     slots against a run time mispredicted from history. A task whose
//     statement is its whole run time (a sleep, or a data task with no io)
//     counts only against the ask and the next limit;
//   - rtt of declared run time: the first task goes whatever it declares,
//     and a later one only while the reply's declared times stay within the
//     round trip it saves. A task that says it is long therefore rides
//     alone: it neither waits behind a batch nor holds a batch's results
//     back while it runs.
func (c *Core[E, K, T]) Grant(asked int, rtt time.Duration) Grant {
	return Grant{ask: max(asked, 1), unstated: c.Share(asked), room: rtt}
}

// admits reports whether the next task, which declares run and whole, fits.
func (g *Grant) admits(run time.Duration, whole bool) bool {
	return g.taken < g.ask && (whole || g.unstated > 0) && (g.taken == 0 || run <= g.room)
}

// spend takes a task that declares run and whole out of g, or with n = -1
// gives it back (Refund).
func (g *Grant) spend(run time.Duration, whole bool, n int) {
	g.taken += n
	if !whole {
		g.unstated -= n
	}
	g.room -= time.Duration(n) * run
}

// declared is Options.Declared, or nothing stated without one.
func (c *Core[E, K, T]) declared(x T) (time.Duration, bool) {
	if c.opts.Declared == nil {
		return 0, false
	}
	return c.opts.Declared(x)
}

// Pick selects the next task for x, removing it from the queue and
// reporting whether it is a dataset cache hit. The queue is served in FIFO
// (or SFQ) order, except that an executor whose cache holds a dataset takes
// the first task within the window that reads one it holds: locality comes
// from the tasks that name their data, and a queue naming none pops as is.
func (c *Core[E, K, T]) Pick(x *Exec[E]) (it Item[T], hit, ok bool) {
	return c.PickWithin(x, nil)
}

// PickWithin is Pick for the tasks of one pull reply, which spends g: when the
// task Pick would select does not fit what is left of g (Core.Grant), the
// queue is left untouched and ok is false. A nil g refuses nothing, and a nil
// x consults no cache (PickAny).
func (c *Core[E, K, T]) PickWithin(x *Exec[E], g *Grant) (it Item[T], hit, ok bool) {
	// SFQ selects the tenant first and locality comes second: the window
	// scan runs within that tenant's ring, so a cache hit never lets one
	// tenant jump another's turn.
	tq, start, ok := c.queue.peek()
	if !ok {
		return it, false, false
	}
	ring := &tq.ring
	at := 0 // offset of the selected task from the ring's head
	if x != nil && x.Cache != nil && c.opts.Dataset != nil {
		for i, cand := range ring.Window(window) {
			if x.Cache.Has(c.opts.Dataset(cand.X)) {
				at, hit = i, true
				break
			}
		}
	}
	if g != nil {
		run, whole := c.declared(ring.Window(at + 1)[at].X)
		if !g.admits(run, whole) {
			return it, false, false
		}
		g.spend(run, whole, 1)
	}
	if at == 0 {
		it, _ = ring.Pop()
	} else {
		// A cache hit is pulled forward from within the window.
		it = ring.Window(at + 1)[at]
		ring.RemoveAt(at)
	}
	c.queue.charge(tq, start)
	if hit {
		c.Counters.CacheHits++
	} else if x != nil && c.opts.Dataset != nil && c.opts.Dataset(it.X) != "" {
		c.Counters.CacheMisses++
	}
	return it, hit, true
}

// Refund gives back to g what PickWithin spent of it on it, a task the caller
// sheds instead of granting.
func (c *Core[E, K, T]) Refund(g *Grant, it Item[T]) {
	run, whole := c.declared(it.X)
	g.spend(run, whole, -1)
}

// PickAny pops the next task with no executor's dataset cache consulted.
// Under fair-share the pop still runs the SFQ arbitration, so the queue
// drains in the same weighted order an executor's pick would give it.
func (c *Core[E, K, T]) PickAny() (it Item[T], ok bool) {
	it, _, ok = c.PickWithin(nil, nil)
	return it, ok
}

const (
	resultBudget = 64 << 10 // the most output (Stdout+Stderr) one Deliver is sized to carry
	sizerBlock   = 128      // half the PullSizer's window, in results
)

// PullSizer is the pulling side's half of dispatch-ahead, as Share and
// PickWithin are the dispatcher's: an executor's slot sizes its next pull by
// it, and a tree root's link what it keeps at its leaf. It reads the last
// pull's round trip (RTT) and the run times and outputs of the last
// sizerBlock to 2*sizerBlock results, kept as two blocks: [0] is being
// filled, [1] is the one before. Of a block's run times it reads the second
// largest, so that one reading the host stalled under — a result that took a
// scheduler quantum, not its own time — does not hold the ask at 1 for the
// 128 to 256 tasks it stays in the window; a workload that really has long
// tasks has more than one of them per block.
type PullSizer struct {
	RTT time.Duration
	run [2][2]time.Duration // per block: the largest run time, and the next
	out [2]int
	n   int // results in block 0
}

// Observe folds one finished task into the window.
func (p *PullSizer) Observe(run time.Duration, out int) {
	if p.n == sizerBlock {
		p.run[1], p.out[1] = p.run[0], p.out[0]
		p.run[0], p.out[0], p.n = [2]time.Duration{}, 0, 0
	}
	p.n++
	run = max(run, 1) // 0 is "no result seen"
	if top := &p.run[0]; run > top[0] {
		top[0], top[1] = run, top[0]
	} else if run > top[1] {
		top[1] = run
	}
	p.out[0] = max(p.out[0], out)
}

// Ask is the tasks to ask for in the next pull, at most limit.
func (p *PullSizer) Ask(limit int) int {
	run := max(p.run[0][1], p.run[1][1])
	if run == 0 {
		run = p.run[0][0] // the first result of all is all there is to go by
	}
	return pullSize(p.RTT, run, max(p.out[0], p.out[1]), limit)
}

// pullSize is the rule: 1 + ⌊rtt ÷ run⌋ tasks, so that a batch adds no more
// head-of-line and result-return delay than the one round trip it saves; no
// more than resultBudget ÷ out, so that its results fit one frame of that
// size; limit at most; and 1 until both a round trip and a result have been
// seen (rtt or run zero).
func pullSize(rtt, run time.Duration, out, limit int) int {
	if rtt <= 0 || run <= 0 {
		return 1
	}
	n := limit
	if q := rtt / run; q < time.Duration(limit) {
		n = 1 + int(q)
	}
	if out > 0 {
		n = min(n, resultBudget/out)
	}
	return max(1, min(n, limit))
}

// NoteCompletion records that x holds dataset after running a task that
// reads it. The first dataset x finishes makes its cache, and from then on
// its picks look for the datasets it holds; "" records nothing.
func (c *Core[E, K, T]) NoteCompletion(x *Exec[E], dataset string) {
	if dataset == "" {
		return
	}
	if x.Cache == nil {
		x.Cache = NewDatasetCache(cacheCapacity)
	}
	x.Cache.Touch(dataset)
}

// Assign marks it dispatched to x at now under key, incrementing the
// attempt count and appending the outstanding entry to x's queue. NotifiedAt
// is clamped so that the enqueue→notify stage ends at the last push sent to
// this executor, or absorbs the whole wait when no push followed the enqueue
// (piggy-backed and re-pulled assignments). key must not be outstanding: a
// caller queues one copy of a task at a time (the dispatcher's owed set,
// DESIGN.md §11). now must not decrease between assignments to one executor:
// Expire relies on it.
func (c *Core[E, K, T]) Assign(now time.Duration, x *Exec[E], key K, it Item[T]) (o Outstanding[E, K, T]) {
	it.Attempts++
	notifiedAt := x.LastNotifyAt
	if notifiedAt < it.QueuedAt || notifiedAt > now {
		notifiedAt = now
	}
	q := c.outOf(x)
	if q == nil {
		q = new(outQueue[E, K, T])
		x.out = q
	}
	if n := len(q.recs); n > 0 && n == cap(q.recs) && 2*x.Assigned <= n {
		q.compact(x.Assigned) // half the array is taken: reuse it rather than grow it
	}
	o = Outstanding[E, K, T]{Key: key, Item: it, Executor: x.ID, DispatchedAt: now, NotifiedAt: notifiedAt}
	q.recs = append(q.recs, o)
	if x.Assigned < x.Slots {
		c.free--
	}
	x.Assigned++
	c.nout++
	c.Counters.Dispatched++
	return o
}

// Complete acknowledges key's result from executor id, removing the
// outstanding entry and freeing the slot. ok=false marks a duplicate
// (late result after replay, or bogus delivery), which is counted.
func (c *Core[E, K, T]) Complete(id E, key K) (o Outstanding[E, K, T], ok bool) {
	x, ok := c.execs[id]
	if !ok {
		c.Counters.Duplicates++
		return o, false
	}
	return c.CompleteFrom(x, key)
}

// CompleteFrom is Complete for a caller that holds the executor's record: a
// result in grant order costs no lookup by key or by ID.
func (c *Core[E, K, T]) CompleteFrom(x *Exec[E], key K) (o Outstanding[E, K, T], ok bool) {
	q, p := c.locate(x, key)
	if p < 0 {
		return o, false
	}
	o = q.recs[p]
	c.take(x, q, p)
	return o, true
}

// locate returns x's queue and the position in it of key's record, or -1 for
// a duplicate, which it counts. A result in grant order is the queue's head
// or the record just past the last completion; any other is looked up.
func (c *Core[E, K, T]) locate(x *Exec[E], key K) (*outQueue[E, K, T], int) {
	if q := c.outOf(x); q != nil && x.Assigned > 0 {
		if q.recs[q.head].Key == key {
			return q, q.head
		}
		if p := q.next; p < len(q.recs) && q.recs[p].Item.Attempts != 0 && q.recs[p].Key == key {
			return q, p
		}
		if p := q.lookup(key); p >= 0 {
			return q, p
		}
	}
	c.Counters.Duplicates++
	return nil, -1
}

// outOf returns x's outstanding records, nil before its first assignment.
func (c *Core[E, K, T]) outOf(x *Exec[E]) *outQueue[E, K, T] {
	q, _ := x.out.(*outQueue[E, K, T])
	return q
}

// take removes the live record at p from x's queue, freeing its slot.
func (c *Core[E, K, T]) take(x *Exec[E], q *outQueue[E, K, T], p int) {
	q.recs[p] = Outstanding[E, K, T]{} // references released, and Attempts 0: taken
	c.nout--
	if x.Assigned--; x.Assigned < x.Slots {
		c.free++
	}
	if x.Assigned == 0 {
		q.drain()
		return
	}
	q.next = p + 1
	for q.recs[q.head].Item.Attempts == 0 {
		q.head++
	}
}

// Expire removes every outstanding task dispatched before cutoff (the
// timeout half of the replay policy), freeing the executors' slots and
// re-offering them. The caller replays or finalizes the returned entries.
// A queue is in grant order, which is dispatch order, so each is read from
// its head up to its first record dispatched at or after cutoff.
func (c *Core[E, K, T]) Expire(cutoff time.Duration) []Outstanding[E, K, T] {
	var expired []Outstanding[E, K, T]
	for _, x := range c.execs {
		q := c.outOf(x)
		if q == nil {
			continue
		}
		n := len(expired)
		for p := q.head; p < len(q.recs); p++ {
			o := &q.recs[p]
			if o.Item.Attempts == 0 {
				continue
			}
			if !dispatchedBefore(o.DispatchedAt, cutoff) {
				break
			}
			expired = append(expired, *o)
			c.take(x, q, p)
		}
		if len(expired) > n {
			x.Suspect = true
			c.Offer(x)
		}
	}
	return expired
}

// dispatchedBefore is Expire's test of a live record.
var dispatchedBefore = func(at, cutoff time.Duration) bool { return at < cutoff }

// outQueue is one executor's outstanding records in grant order. A result
// that arrives in that order — every one-slot executor's, and each slot's
// batch on a multi-slot one — is at the head or just past the last
// completion, and is found with no hashing. Results out of that order (a tree
// link's leaf returns them one leaf executor at a time) are found through idx,
// a key index filled from the first one on and emptied when the queue drains. A
// taken record is zeroed where it lies, so Item.Attempts is 0 on it and at
// least 1 on a live one (Assign counts the attempt); the executor's Assigned
// is the number of live ones.
type outQueue[E comparable, K comparable, T any] struct {
	recs []Outstanding[E, K, T]
	head int // recs[:head] are taken, and recs[head] is live while any is
	next int // just past the last completion: where an in-order result is
	// idx holds the positions of recs[:indexed]'s live records by key, as they
	// were when indexed: a record taken since is found taken where it lies.
	idx     map[K]int
	indexed int
}

// lookup returns the position of the live record under key through the
// index, indexing the records appended since it last missed; -1 when none.
func (q *outQueue[E, K, T]) lookup(key K) int {
	if q.idx == nil {
		q.idx, q.indexed = make(map[K]int, len(q.recs)-q.head), q.head
	}
	for {
		if p, ok := q.idx[key]; ok && q.recs[p].Item.Attempts != 0 {
			return p
		}
		if q.indexed == len(q.recs) {
			return -1
		}
		for ; q.indexed < len(q.recs); q.indexed++ {
			if o := &q.recs[q.indexed]; o.Item.Attempts != 0 {
				q.idx[o.Key] = q.indexed
			}
		}
	}
}

// compact moves the n live records to the front of the array, in grant
// order; into an array of twice their number instead once they would fill
// under an eighth of one larger than shrinkFloor (as Ring.Pop does).
func (q *outQueue[E, K, T]) compact(n int) {
	live, shrink := q.recs[:0], cap(q.recs) > shrinkFloor && 8*n < cap(q.recs)
	if shrink {
		live = make([]Outstanding[E, K, T], 0, 2*n)
	}
	for _, o := range q.recs[q.head:] {
		if o.Item.Attempts != 0 {
			live = append(live, o)
		}
	}
	if shrink {
		q.idx = nil
	} else {
		clear(q.recs[n:]) // the moved records' old copies
	}
	clear(q.idx)
	q.recs, q.head, q.next, q.indexed = live, 0, 0, 0
}

// drain resets a queue whose last record was taken. Its array and its index,
// emptied, are kept for the next grants up to shrinkFloor records, and given
// back beyond: a burst of 100,000 tasks in flight leaves nothing behind.
func (q *outQueue[E, K, T]) drain() {
	q.recs = q.recs[:0]
	if cap(q.recs) > shrinkFloor {
		q.recs, q.idx = nil, nil
	}
	clear(q.idx)
	q.head, q.next, q.indexed = 0, 0, 0
}

// retryLimit returns the retry bound applying to it (the per-task
// override when present, the default otherwise).
func (c *Core[E, K, T]) retryLimit(it Item[T]) int {
	if c.opts.TaskRetries != nil {
		if tr := c.opts.TaskRetries(it.X); tr > 0 {
			return tr
		}
	}
	return c.opts.MaxRetries
}

// Requeue applies the §3.1 replay policy to a failed, timed-out, or
// orphaned attempt: when retries remain the item returns to the queue
// (keeping its original QueuedAt) and Requeue reports true; when
// exhausted it reports false and the caller finalizes the failure.
func (c *Core[E, K, T]) Requeue(it Item[T]) bool {
	if it.Attempts > c.retryLimit(it) {
		return false
	}
	c.Counters.Retried++
	c.queue.push(it) // no bound applies: the task was already admitted
	return true
}

// Notifications runs the notify half of the hybrid push/pull protocol:
// it pops idle executors until the queue is covered, marking each
// notified and stamping LastNotifyAt = now, and returns the pushes the
// caller owes. Each executor gets at most one outstanding notification. The
// slice is the core's scratch: it is the caller's until the next call.
func (c *Core[E, K, T]) Notifications(now time.Duration) []Notification[E] {
	clear(c.notes) // no executor is kept alive by a notification long sent
	ns := c.notes[:0]
	queued := c.QueueLen()
	for queued > 0 {
		x, ok := c.PopIdle()
		if !ok {
			break
		}
		free := x.Free()
		if free <= 0 || x.Notified {
			continue
		}
		x.Notified = true
		x.LastNotifyAt = now
		ns = append(ns, Notification[E]{Exec: x, Queued: queued})
		queued -= free
	}
	c.notes = ns
	return ns
}
