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
}

// Free returns the executor's unassigned slots.
func (x *Exec[E]) Free() int { return x.Slots - x.Assigned }

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
	// mixed task sizes (see PickWithin); nil treats every task as unstated.
	Declared func(T) time.Duration
	// FairShare enables the weighted fair-share tenant layer (see the
	// FairShare type); nil queues all work as one FIFO flow.
	FairShare *FairShare
}

// Core is the scheduling state machine: pending queue, executor table
// with idle tracking, outstanding table, replay bookkeeping, and the pick
// rule. It is not safe for concurrent use — the live dispatcher
// serializes access under its mutex, the simulator is single-threaded.
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
	idle  []*Exec[E] // LIFO stack; nil slots are tombstones
	dead  int        // tombstone count in idle
	// out holds each outstanding record by value, in the map's own slot (Go
	// stores a key and value of up to 128 bytes each inline): assigning a task
	// allocates nothing. peak is its high-water mark since it was last built
	// (see shrinkOut).
	out  map[K]Outstanding[E, K, T]
	peak int
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
		out:   make(map[K]Outstanding[E, K, T]),
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
func (c *Core[E, K, T]) OutstandingLen() int { return len(c.out) }

// Empty reports that nothing is queued or outstanding (drain condition).
func (c *Core[E, K, T]) Empty() bool { return c.QueueLen() == 0 && len(c.out) == 0 }

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

// EachOutstanding visits every outstanding entry in unspecified order
// (snapshot capture). The callback must not mutate the core.
func (c *Core[E, K, T]) EachOutstanding(fn func(Outstanding[E, K, T])) {
	for _, o := range c.out {
		fn(o)
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
	for k, o := range c.out {
		if !match(o.Item.X) {
			continue
		}
		delete(c.out, k)
		dropped++
		if x := c.release(o.Executor); x != nil {
			c.Offer(x)
		}
	}
	c.shrinkOut()
	return dropped
}

// AddExec registers (or re-registers, replacing scheduling state but
// keeping outstanding entries) an executor with the given slot capacity.
func (c *Core[E, K, T]) AddExec(id E, slots int) *Exec[E] {
	if slots <= 0 {
		slots = 1
	}
	if old, ok := c.execs[id]; ok {
		c.RemoveIdle(old)
		c.slots -= old.Slots
	}
	c.slots += slots
	x := &Exec[E]{ID: id, Slots: slots, idlePos: -1}
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
	x.Slots = slots
}

// DropExecutor removes an executor (disconnect, deregister, release) and
// returns its outstanding tasks for the caller to replay or finalize.
func (c *Core[E, K, T]) DropExecutor(id E) (x *Exec[E], dropped []Outstanding[E, K, T]) {
	x, ok := c.execs[id]
	if !ok {
		return nil, nil
	}
	delete(c.execs, id)
	c.slots -= x.Slots
	c.RemoveIdle(x)
	for k, o := range c.out {
		if o.Executor == id {
			delete(c.out, k)
			dropped = append(dropped, o)
		}
	}
	c.shrinkOut()
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

// Unbounded is the PickWithin room that refuses nothing.
const Unbounded = time.Duration(1<<63 - 1)

// Share is the even-share half of the grant rule (dispatch-ahead): an
// executor that asks for asked tasks in one pull gets at most
// ⌈queued ÷ registered slots⌉ and never less than 1, so one executor's
// batch never holds a task an idle slot could be running. A pull reply is
// then Share tasks at most: the first from Pick, the rest from PickWithin.
func (c *Core[E, K, T]) Share(asked int) int {
	if c.slots > 0 {
		asked = min(asked, (c.QueueLen()+c.slots-1)/c.slots)
	}
	return max(asked, 1)
}

// Pick selects the next task for x, removing it from the queue and
// reporting whether it is a dataset cache hit. The queue is served in FIFO
// (or SFQ) order, except that an executor whose cache holds a dataset takes
// the first task within the window that reads one it holds: locality comes
// from the tasks that name their data, and a queue naming none pops as is.
func (c *Core[E, K, T]) Pick(x *Exec[E]) (it Item[T], hit, ok bool) {
	return c.PickWithin(x, Unbounded)
}

// PickWithin is Pick for the second and later tasks of one pull reply:
// when the task Pick would select declares (Options.Declared) more run time
// than room — what is left of the reply's budget after the declared times
// already in it — the queue is left untouched and ok is false. A task that
// says it is long therefore rides alone: it neither waits behind a batch
// nor holds a batch's results back while it runs. A nil x consults no
// cache (PickAny).
func (c *Core[E, K, T]) PickWithin(x *Exec[E], room time.Duration) (it Item[T], hit, ok bool) {
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
	if room != Unbounded && c.opts.Declared != nil && c.opts.Declared(ring.Window(at + 1)[at].X) > room {
		return it, false, false
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

// PickAny pops the next task with no executor's dataset cache consulted.
// Under fair-share the pop still runs the SFQ arbitration, so the queue
// drains in the same weighted order an executor's pick would give it.
func (c *Core[E, K, T]) PickAny() (it Item[T], ok bool) {
	it, _, ok = c.PickWithin(nil, Unbounded)
	return it, ok
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
// attempt count and recording the outstanding entry. NotifiedAt is
// clamped so that the enqueue→notify stage ends at the last push sent to
// this executor, or absorbs the whole wait when no push followed the
// enqueue (piggy-backed and re-pulled assignments). key must not be
// outstanding: a caller queues one copy of a task at a time (the dispatcher's
// owed set, DESIGN.md §11).
func (c *Core[E, K, T]) Assign(now time.Duration, x *Exec[E], key K, it Item[T]) Outstanding[E, K, T] {
	it.Attempts++
	notifiedAt := x.LastNotifyAt
	if notifiedAt < it.QueuedAt || notifiedAt > now {
		notifiedAt = now
	}
	o := Outstanding[E, K, T]{Key: key, Item: it, Executor: x.ID, DispatchedAt: now, NotifiedAt: notifiedAt}
	c.out[key] = o
	c.peak = max(c.peak, len(c.out))
	x.Assigned++
	c.Counters.Dispatched++
	return o
}

// Complete acknowledges key's result from executor id, removing the
// outstanding entry and freeing the slot. ok=false marks a duplicate
// (late result after replay, or bogus delivery), which is counted.
func (c *Core[E, K, T]) Complete(id E, key K) (Outstanding[E, K, T], bool) {
	o, ok := c.out[key]
	if !ok || o.Executor != id {
		c.Counters.Duplicates++
		return Outstanding[E, K, T]{}, false
	}
	delete(c.out, key)
	c.release(o.Executor)
	c.shrinkOut()
	return o, true
}

// outFloor is the high-water mark below which the outstanding table is never
// rebuilt: no table a closed loop of a few bundles in flight keeps pays for it.
const outFloor = 4096

// shrinkOut rebuilds the outstanding table at its live size once it has
// drained below an eighth of its high-water mark. A Go map never gives back
// the slots it grew, and each slot holds a whole record, so without this a
// burst of 100,000 tasks in flight would leave 17.5 MB behind it; the copy is
// of at most an eighth of the entries the table once held.
func (c *Core[E, K, T]) shrinkOut() {
	if c.peak <= outFloor || len(c.out) >= c.peak/8 {
		return
	}
	out := make(map[K]Outstanding[E, K, T], len(c.out))
	for k, o := range c.out {
		out[k] = o
	}
	c.out, c.peak = out, len(out)
}

// release gives back the slot an outstanding entry held on executor id:
// Assigned counts the entries in out that name the executor, whichever way
// an entry leaves.
func (c *Core[E, K, T]) release(id E) *Exec[E] {
	x, ok := c.execs[id]
	if !ok || x.Assigned == 0 {
		return nil
	}
	x.Assigned--
	return x
}

// Expire removes every outstanding task dispatched before cutoff (the
// timeout half of the replay policy), freeing the executors' slots and
// re-offering them. The caller replays or finalizes the returned entries.
func (c *Core[E, K, T]) Expire(cutoff time.Duration) []Outstanding[E, K, T] {
	var expired []Outstanding[E, K, T]
	for k, o := range c.out {
		if o.DispatchedAt < cutoff {
			delete(c.out, k)
			expired = append(expired, o)
		}
	}
	for _, o := range expired {
		if x := c.release(o.Executor); x != nil {
			x.Suspect = true
			c.Offer(x)
		}
	}
	c.shrinkOut()
	return expired
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
