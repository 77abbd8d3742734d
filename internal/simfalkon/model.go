package simfalkon

import (
	"fmt"
	"time"

	"falkon/internal/sched"
	"falkon/internal/sim"
)

// Spec describes one task to the model.
type Spec struct {
	Dur   time.Duration
	Stage int
	// Tag is an opaque caller token carried through to the Rec (the
	// workflow engine uses it to map completions back to graph nodes).
	Tag any
	// Dataset names the data object the task reads, which places the task
	// by locality (data-aware scheduling, paper §6 future work); StageIn is
	// the staging cost paid when the executor does not already cache it.
	Dataset string
	StageIn time.Duration
	// StageBytes, with Model.Stager set, prices staging dynamically from
	// the volume and the number of concurrent stagings (shared-bandwidth
	// contention, Figure 4).
	StageBytes int64
	// Tenant names the submitting tenant ("" = the default tenant). Only
	// meaningful with Model.FairShare set.
	Tenant string
}

// Rec is the per-task outcome record (timestamps on the virtual clock).
type Rec struct {
	ID         int
	Stage      int
	Queued     time.Duration
	Notified   time.Duration
	Dispatched time.Duration
	Started    time.Duration
	Finished   time.Duration
	Exec       int
	Tag        any
	// Attempts counts executions including the final one; Failed marks
	// tasks that exhausted their retries.
	Attempts int
	Failed   bool
	// Tenant is the submitting tenant ("" = the default tenant).
	Tenant string
}

// QueueTime returns dispatch wait (Table 3's queue time).
func (r Rec) QueueTime() time.Duration { return r.Dispatched - r.Queued }

// ExecTime returns dispatch-to-delivery time (Table 3's execution time).
func (r Rec) ExecTime() time.Duration { return r.Finished - r.Dispatched }

// Stamps returns the record's lifecycle timeline. Records are clamped at
// completion, so the ordering Queued ≤ Notified ≤ Dispatched ≤ Started ≤
// Finished already holds.
func (r Rec) Stamps() sched.Stamps {
	return sched.Stamps{Queued: r.Queued, Notified: r.Notified, Dispatched: r.Dispatched, Started: r.Started, Finished: r.Finished}
}

// Stages returns the Figure-10 four-stage latencies, which partition the
// end-to-end latency exactly (same decomposition as the live dispatcher).
func (r Rec) Stages() [sched.NStages]time.Duration { return r.Stamps().Stages() }

// mtask is one queued task inside the model (the core's payload; enqueue
// time and attempt counts live on the sched.Item wrapper).
type mtask struct {
	id         int
	dur        time.Duration
	stage      int
	tag        any
	dataset    string
	stageIn    time.Duration
	stageBytes int64
	tenant     string
}

// Exec is one modeled executor. It moves idle -> notified (earmarked for a
// task while the dispatcher pushes the notification and serves the pull)
// -> busy -> idle.
type Exec struct {
	ID           int
	registeredAt time.Duration
	busyFor      time.Duration // accumulated payload time (resources used)
	idle         bool
	busy         bool
	released     bool
	draining     bool // Release found it working: released when next idle
	releasedAt   time.Duration
	idleTimeout  time.Duration
	idleTimer    *sim.Timer
	pollTimer    *sim.Timer
	onRelease    func(*Exec)

	// sx is the executor's scheduling record in the shared core (idle
	// membership, dataset cache, slot accounting).
	sx *sched.Exec[int]
}

// BusyFor returns the executor's accumulated payload time.
func (x *Exec) BusyFor() time.Duration { return x.busyFor }

// Lifetime returns registration-to-release (or -to-now for live executors).
func (x *Exec) Lifetime(now time.Duration) time.Duration {
	end := x.releasedAt
	if !x.released {
		end = now
	}
	return end - x.registeredAt
}

// dispJob is one unit of dispatcher CPU work.
type dispJob struct {
	cost time.Duration
	fn   func()
}

// Model is the virtual-time Falkon system. The scheduling state machine —
// queue, executor/idle tracking, outstanding table, pick rule, replay
// policy — is the same internal/sched core the live dispatcher runs on;
// the model drives it from the discrete-event clock and prices every
// transition with the Profile's costs.
type Model struct {
	E *sim.Engine
	P Profile

	core *sched.Core[int, int, mtask]

	dq sched.Ring[dispJob]
	sq sched.Ring[dispJob] // submission pipeline (container thread pool)

	dispBusy bool
	subBusy  bool
	gcBusy   time.Duration

	execs    []*Exec
	busyN    int
	liveN    int
	nextExec int
	nextTask int

	// KeepRecords retains a Rec per task (leave off for multi-million task
	// runs).
	KeepRecords bool
	Records     []Rec

	// OnTaskDone, when set, observes every completion.
	OnTaskDone func(Rec)
	// OnStateChange, when set, fires after any executor-count transition
	// (register, idle<->busy, release) — the provisioning figures sample
	// here.
	OnStateChange func()

	// OverheadHist collects executor-side per-task overhead in
	// milliseconds (Figure 10).
	OverheadHist sim.Histogram

	// DispatchServedTime accumulates dispatcher CPU time for utilization
	// accounting.
	DispatchServedTime time.Duration

	// polls counts pure-pull work requests (including empty ones).
	polls int

	// FairShare, when set, runs the cores' weighted fair-share tenant
	// layer — the same SFQ arbiter the live dispatcher uses — so
	// multi-tenant isolation is testable deterministically. Set after New,
	// before any task arrives. Nil (the default) leaves the single-FIFO
	// model bit-for-bit unchanged.
	FairShare *sched.FairShare

	// Stager prices dynamic data staging: given a task's StageBytes and the
	// number of concurrent stagings (including this one), it returns the
	// staging duration. Models shared-bandwidth contention (Figure 4).
	Stager   func(bytes int64, concurrent int) time.Duration
	stagingN int

	// pollingStopped halts pure-pull polling (set by StopPolling when a
	// benchmark's workload completes, so the simulation can terminate).
	pollingStopped bool
}

// New creates a model on engine e.
func New(e *sim.Engine, p Profile) *Model {
	return &Model{
		E: e, P: p,
		core: sched.NewCore[int, int](sched.Options[mtask]{
			MaxRetries: p.MaxRetries,
			Dataset:    func(t mtask) string { return t.dataset },
			Tenant:     func(t mtask) string { return t.tenant },
		}),
	}
}

// syncCore folds the model's public knobs (set after New, before work
// arrives) into the core. Called from every public entry point that adds
// executors or tasks.
func (m *Model) syncCore() {
	c := m.core
	if m.FairShare != nil && !c.FairShareEnabled() {
		c.SetFairShare(m.FairShare)
	}
	c.SetMaxRetries(m.P.MaxRetries)
}

// QueueLen returns queued (not yet dispatched) tasks.
func (m *Model) QueueLen() int { return m.core.QueueLen() }

// BusyExecutors returns executors currently running a task.
func (m *Model) BusyExecutors() int { return m.busyN }

// IdleExecutors returns registered executors without work.
func (m *Model) IdleExecutors() int { return m.liveN - m.busyN }

// LiveExecutors returns registered, unreleased executors.
func (m *Model) LiveExecutors() int { return m.liveN }

// Executors returns all executors ever registered (including released).
func (m *Model) Executors() []*Exec { return m.execs }

// Submitted and Completed return task counters (Completed includes tasks
// that exhausted retries and were reported failed).
func (m *Model) Submitted() int { return int(m.core.Counters.Submitted) }
func (m *Model) Completed() int {
	return int(m.core.Counters.Completed + m.core.Counters.Failed)
}

// Failed and Retried report replay-policy activity under failure
// injection.
func (m *Model) Failed() int  { return int(m.core.Counters.Failed) }
func (m *Model) Retried() int { return int(m.core.Counters.Retried) }

// CacheStats returns the dataset cache hits and misses of executors' picks.
func (m *Model) CacheStats() (hits, misses int) {
	return int(m.core.Counters.CacheHits), int(m.core.Counters.CacheMisses)
}

// stateChanged invokes the observer hook.
func (m *Model) stateChanged() {
	if m.OnStateChange != nil {
		m.OnStateChange()
	}
}

// AddExecutor registers an executor. idleTimeout > 0 enables distributed
// idle release; onRelease observes the release (the provisioner returns the
// node).
func (m *Model) AddExecutor(idleTimeout time.Duration, onRelease func(*Exec)) *Exec {
	m.syncCore()
	m.nextExec++
	x := &Exec{
		ID:           m.nextExec,
		registeredAt: m.E.Now(),
		idle:         true,
		idleTimeout:  idleTimeout,
		onRelease:    onRelease,
	}
	x.sx = m.core.AddExec(x.ID, 1)
	x.sx.Ref = x
	m.execs = append(m.execs, x)
	m.liveN++
	m.core.Offer(x.sx)
	m.armIdleTimer(x)
	m.armPollTimer(x)
	m.stateChanged()
	m.kick()
	return x
}

// Polls returns the number of pure-pull work requests served (for the
// push-vs-pull ablation).
func (m *Model) Polls() int { return m.polls }

// StopPolling halts pure-pull polling so a finished simulation can drain.
func (m *Model) StopPolling() {
	m.pollingStopped = true
	for _, x := range m.execs {
		if x.pollTimer != nil {
			x.pollTimer.Stop()
			x.pollTimer = nil
		}
	}
}

// armPollTimer schedules the next pure-pull poll for an idle executor.
func (m *Model) armPollTimer(x *Exec) {
	interval := m.P.PurePullInterval
	if interval <= 0 || m.pollingStopped {
		return
	}
	x.pollTimer = m.E.After(interval, func() {
		if x.released || !x.idle || m.pollingStopped {
			return
		}
		// Every poll is a WS call on the dispatcher, fruitful or not.
		m.polls++
		m.dispSubmit(m.P.GetWorkCost, func() {
			if x.released || !x.idle || m.pollingStopped {
				return
			}
			if it, ok := m.pickFor(x); ok {
				m.core.RemoveIdle(x.sx)
				m.wakeExec(x)
				m.runOn(x, it)
				return
			}
			m.armPollTimer(x)
		})
	})
}

// armIdleTimer starts x's distributed-release countdown.
func (m *Model) armIdleTimer(x *Exec) {
	if x.idleTimeout <= 0 {
		return
	}
	x.idleTimer = m.E.After(x.idleTimeout, func() {
		if x.idle && !x.released {
			m.releaseExec(x)
		}
	})
}

// Release retires x on someone else's decision (the provisioner deallocating
// its node): at once if it is idle, otherwise as soon as it has delivered
// what it holds and goes idle.
func (m *Model) Release(x *Exec) {
	switch {
	case x.released:
	case x.idle:
		m.releaseExec(x)
	default:
		x.draining = true
	}
}

// releaseExec takes the idle executor x out of the pool (its own idle
// timeout, or Release).
func (m *Model) releaseExec(x *Exec) {
	x.released = true
	x.releasedAt = m.E.Now()
	if x.pollTimer != nil {
		x.pollTimer.Stop()
		x.pollTimer = nil
	}
	m.core.RemoveIdle(x.sx)
	m.liveN--
	m.stateChanged()
	if x.onRelease != nil {
		x.onRelease(x)
	}
}

// dispSubmit charges the dispatcher CPU with one message-handling job.
func (m *Model) dispSubmit(cost time.Duration, fn func()) {
	m.dq.Push(dispJob{cost: cost, fn: fn})
	if !m.dispBusy {
		m.dispRun()
	}
}

// dispRun serves dispatcher jobs FIFO, injecting GC stalls.
func (m *Model) dispRun() {
	job, ok := m.dq.Pop()
	if !ok {
		m.dispBusy = false
		return
	}
	m.dispBusy = true
	eff := job.cost
	m.DispatchServedTime += job.cost
	if gc := m.P.GC; gc != nil {
		m.gcBusy += job.cost
		if m.gcBusy >= gc.BusyRun {
			eff += gc.Pause
			m.gcBusy = 0
		}
	}
	m.E.After(eff, func() {
		job.fn()
		m.dispRun()
	})
}

// subSubmit charges the submission pipeline (the GT4 container's thread
// pool, which runs on the dispatcher machine's other CPU).
func (m *Model) subSubmit(cost time.Duration, fn func()) {
	m.sq.Push(dispJob{cost: cost, fn: fn})
	if !m.subBusy {
		m.subRun()
	}
}

// subRun serves submission jobs FIFO.
func (m *Model) subRun() {
	job, ok := m.sq.Pop()
	if !ok {
		m.subBusy = false
		return
	}
	m.subBusy = true
	m.E.After(job.cost, func() {
		job.fn()
		m.subRun()
	})
}

// Submit enqueues specs in bundles of bundle tasks, modeling a client that
// keeps one submission in flight. Each bundle is a WS call costing the Axis
// envelope on the submission pipeline, plus a SubmitShare fraction that
// contends with the dispatch path.
func (m *Model) Submit(specs []Spec, bundle int) {
	m.syncCore()
	if bundle <= 0 {
		bundle = 1
	}
	var send func(rest []Spec)
	send = func(rest []Spec) {
		if len(rest) == 0 {
			return
		}
		n := bundle
		if n > len(rest) {
			n = len(rest)
		}
		batch := rest[:n]
		cost := m.P.Axis.MessageCost(n)
		m.subSubmit(cost, func() {
			now := m.E.Now()
			for _, s := range batch {
				m.nextTask++
				t := mtask{id: m.nextTask, dur: s.Dur, stage: s.Stage, tag: s.Tag, dataset: s.Dataset, stageIn: s.StageIn, stageBytes: s.StageBytes, tenant: s.Tenant}
				m.core.Enqueue(now, t)
			}
			if share := m.P.SubmitShare; share > 0 {
				m.dispSubmit(time.Duration(share*float64(cost)), m.kick)
			} else {
				m.kick()
			}
			send(rest[n:])
		})
	}
	send(specs)
}

// PreloadQueue stuffs n tasks of duration dur directly into the dispatch
// queue at the current instant, bypassing submission costs. Peak-throughput
// benchmarks use it to measure the pure dispatch rate with a deep queue,
// the way the paper's throughput tests kept the wait queue full.
func (m *Model) PreloadQueue(n int, dur time.Duration) {
	m.syncCore()
	now := m.E.Now()
	for i := 0; i < n; i++ {
		m.nextTask++
		t := mtask{id: m.nextTask, dur: dur}
		m.core.Enqueue(now, t)
	}
	m.kick()
}

// SubmitSleepStream submits total sleep tasks of duration dur, bundled.
func (m *Model) SubmitSleepStream(total int, dur time.Duration, bundle int) {
	specs := make([]Spec, total)
	for i := range specs {
		specs[i] = Spec{Dur: dur}
	}
	m.Submit(specs, bundle)
}

// pickFor selects the next task for x (on a dataset cache hit the staging
// cost is dropped — the dataset is already resident on the executor's node).
func (m *Model) pickFor(x *Exec) (sched.Item[mtask], bool) {
	it, hit, ok := m.core.Pick(x.sx)
	if hit {
		it.X.stageIn = 0
	}
	return it, ok
}

// kick assigns queued tasks to idle executors over the cold dispatch path
// (notification push + work pull). Under a pure-pull profile there are no
// notifications: executors discover work on their own polls.
func (m *Model) kick() {
	if m.P.PurePullInterval > 0 {
		return
	}
	for _, n := range m.core.Notifications(m.E.Now()) {
		sx := n.Exec
		x := sx.Ref.(*Exec)
		it, ok := m.pickFor(x)
		if !ok {
			// The queue drained while earmarking; return the executor.
			sx.Notified = false
			m.core.Offer(sx)
			break
		}
		m.wakeExec(x)
		m.dispSubmit(m.P.NotifyCost+m.P.GetWorkCost, func() {
			m.runOn(x, it)
		})
	}
}

// wakeExec transitions x from idle to notified (earmarked).
func (m *Model) wakeExec(x *Exec) {
	if !x.idle {
		panic(fmt.Sprintf("simfalkon: executor %d woken while busy", x.ID))
	}
	x.idle = false
	if x.idleTimer != nil {
		x.idleTimer.Stop()
		x.idleTimer = nil
	}
	m.stateChanged()
}

// runOn executes it on x starting now (the executor has just received the
// assignment), then delivers the result.
func (m *Model) runOn(x *Exec, it sched.Item[mtask]) {
	sx := x.sx
	sx.Notified = false // the pull consumed any pending notification
	if !x.busy {
		x.busy = true
		m.busyN++
		m.stateChanged()
	}
	dispatchedAt := m.E.Now()
	t := it.X
	o := m.core.Assign(dispatchedAt, sx, t.id, it)
	over := m.P.ExecOverhead
	if j := m.P.ExecOverheadJitter; j > 0 {
		over += m.E.ExpDuration(j)
	}
	if lim := m.P.ExecOverheadCap; lim > 0 && over > lim {
		over = lim
	}
	m.OverheadHist.Observe(float64(over) / float64(time.Millisecond))
	over += t.stageIn // data staging (zero on dataset cache hits)
	if m.Stager != nil && t.stageBytes > 0 {
		// Dynamic staging: bandwidth is shared with every staging in
		// flight right now; the reservation releases when staging ends.
		m.stagingN++
		stage := m.Stager(t.stageBytes, m.stagingN)
		over += stage
		m.E.After(stage, func() { m.stagingN-- })
	}
	startedAt := dispatchedAt + over
	m.E.After(over+t.dur, func() {
		m.dispSubmit(m.P.DeliverCost, func() { m.finish(x, o, startedAt) })
	})
}

// finish records o's completion on x and piggy-backs the next task if one
// is queued; otherwise x goes idle.
func (m *Model) finish(x *Exec, o sched.Outstanding[int, int, mtask], startedAt time.Duration) {
	now := m.E.Now()
	m.core.Complete(x.sx.ID, o.Key)
	t := o.Item.X
	x.busyFor += t.dur
	m.core.NoteCompletion(x.sx, t.dataset)
	// Failure injection: the replay policy re-queues the task unless its
	// retries are exhausted.
	taskFailed := false
	if p := m.P.FailureProb; p > 0 && m.E.Rand().Float64() < p {
		if m.core.Requeue(o.Item) {
			m.kick()
			m.afterDelivery(x)
			return
		}
		taskFailed = true
		m.core.Counters.Failed++
	}
	if !taskFailed {
		m.core.Counters.Completed++
	}
	// One clamp for both runtimes: the Figure-10 stages of the resulting
	// record partition its end-to-end latency exactly.
	s := sched.Stamps{
		Queued:     o.Item.QueuedAt,
		Notified:   o.NotifiedAt,
		Dispatched: o.DispatchedAt,
		Started:    startedAt,
		Finished:   now,
	}.Clamp()
	rec := Rec{
		ID:         t.id,
		Stage:      t.stage,
		Queued:     s.Queued,
		Notified:   s.Notified,
		Dispatched: s.Dispatched,
		Started:    s.Started,
		Finished:   s.Finished,
		Exec:       x.ID,
		Tag:        t.tag,
		Attempts:   o.Item.Attempts,
		Failed:     taskFailed,
		Tenant:     t.tenant,
	}
	if m.KeepRecords {
		m.Records = append(m.Records, rec)
	}
	if m.OnTaskDone != nil {
		m.OnTaskDone(rec)
	}
	m.afterDelivery(x)
}

// afterDelivery advances the executor after a result delivery: piggy-back
// the next task, or transition to idle.
func (m *Model) afterDelivery(x *Exec) {
	if !m.P.NoPiggyback {
		if it, ok := m.pickFor(x); ok {
			// Piggy-back: the delivery acknowledgment already carried the
			// next task; no additional dispatcher cost.
			m.runOn(x, it)
			return
		}
	}
	x.busy = false
	x.idle = true
	m.busyN--
	if x.draining {
		m.releaseExec(x)
	} else {
		m.core.Offer(x.sx)
		m.armIdleTimer(x)
		m.armPollTimer(x)
		m.stateChanged()
	}
	if m.P.NoPiggyback {
		m.kick()
	}
}
