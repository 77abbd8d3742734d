// Package dispatch implements the Falkon dispatcher: the streamlined task
// dispatch service at the core of the paper. It accepts bundled task
// submissions from clients, maintains a FIFO queue per the next-available
// dispatch policy, pushes work-available notifications to idle executors,
// serves work pulls, accepts result deliveries with piggy-backed work
// requests, applies the replay policy (re-dispatch on failure or timeout),
// and exposes the state the provisioner polls.
//
// The scheduling state machine itself — queue, executor table, outstanding
// table, replay policy, the pick rule — lives in internal/sched, shared
// with the virtual-time simulator. This package drives one sched.Core from
// wall-clock time under one mutex. Handlers gather the core's effects (trace
// events, notification pushes, stage observations) under that lock and apply
// them after releasing it, so no I/O ever runs inside the scheduler's
// critical section. One dispatcher is one queue, as in the paper; the way to
// more than one lock's worth of throughput is more dispatchers under a root
// that is itself a dispatcher, one whose Options name its leaves: the
// executor's verbs are Go methods as well as wire handlers (Register,
// Deregister, Stock, Deliver) and its pushes go to a Pusher, so a root
// registers its links to the leaves (link.go) as executors of its core
// (DESIGN.md §12–13).
//
// In keeping with the paper's design (§1, §7), the dispatcher deliberately
// omits LRM features: there are no priorities, no multiple queues, no
// accounting, and no per-task resource limits.
package dispatch

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/replica"
	"falkon/internal/sched"
	"falkon/internal/task"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// ReplicationOptions configures the dispatcher's WAL replication source.
type ReplicationOptions struct {
	// Term is this leader incarnation's election term (1 for a leader that
	// was never promoted).
	Term uint64
	// Mode selects async streaming or quorum-gated acknowledgment (a quorum
	// is every attached standby; see replica.Source.WaitCommitted).
	Mode replica.Mode
}

// Options configures a Dispatcher.
type Options struct {
	// PSK, when set, is the pre-shared key every executor and client must
	// hold: the dispatcher then speaks only the secure profile, and dials its
	// leaves with it. Empty serves in the clear.
	PSK []byte

	// ReplayTimeout re-dispatches tasks whose executor has not responded
	// within this duration (0 disables timeout-based replay; disconnect-
	// based replay is always on).
	ReplayTimeout time.Duration

	// MaxRetries bounds per-task re-dispatches (default 3). A task that
	// exhausts retries is reported failed. A dispatcher with Leaves ignores
	// it (see Leaves).
	MaxRetries int

	// Leaves lists leaf dispatcher addresses: with any, this dispatcher is a
	// dispatch tree's root, whose executors are links to them (DESIGN.md §13),
	// dialed by Listen and redialed with backoff. A leaf's final word stays
	// final and its death costs a task no retry, so a root retries no failure
	// and bounds no replay; and it keeps no journal (JournalDir, Replication).
	Leaves []string

	// Bundle is the root→leaf bundle size: the most tasks a link asks the
	// root's queue for at a time, one downstream submit carries, and a leaf is
	// stocked with per worker slot (default 64; read only with Leaves).
	Bundle int

	// Metrics receives the dispatcher's counters, gauges, and stage
	// latency histograms (plus the wsrpc transport's per-method metrics,
	// its links' included). Nil creates a private registry, retrievable via
	// Metrics().
	Metrics *obs.Registry

	// TraceCapacity bounds the task-lifecycle event ring (default 8192
	// events; the ring never allocates once full).
	TraceCapacity int

	// JournalDir, when set, enables the write-ahead journal: every accept,
	// dispatch, and complete transition is logged there, and Listen
	// recovers surviving state from it before serving. Empty disables
	// durability entirely (no journal code on the hot path).
	JournalDir string

	// JournalSync is the journal fsync policy (default group commit).
	JournalSync wal.SyncPolicy

	// SnapshotEvery compacts the journal with a state snapshot after this
	// many journaled task transitions — one per task dispatched, one per task
	// completed, so every SnapshotEvery/2 tasks — whatever number of records
	// carried them (default 65536; negative disables periodic snapshots).
	SnapshotEvery int

	// JournalFS substitutes the journal's filesystem (chaos testing only;
	// nil uses the real OS).
	JournalFS wal.FS

	// Replication, when set (requires JournalDir), streams the journal to
	// standby dispatchers: Listen creates a replica.Source fed by the
	// journal's Mirror hook and serves the attach/fetch replication RPCs.
	// Under ModeQuorum the durable-acknowledgment barriers (create, submit,
	// destroy) additionally wait for standby acks.
	Replication *ReplicationOptions

	// Faults, when set, interposes transport fault injection on every
	// accepted connection (chaos testing only).
	Faults wsrpc.ConnFaults

	// Tenants declares per-tenant fair-share weights, quotas, and rate
	// limits (see TenantSpec). Setting any spec turns on multi-tenant
	// accounting, submit-path admission control and weighted fair-share
	// scheduling (start-time fair queuing) across tenants; tenants not listed
	// are tracked but unlimited, at weight 1. With none the queue is the
	// paper's single FIFO, whatever tenant a client names.
	Tenants []TenantSpec

	// Logf receives dispatcher logs; nil silences them.
	Logf func(format string, args ...any)
}

// taskRef is the core's task payload: the owning instance plus the task as
// the dispatcher holds it (task.Relayed), where the bundle it was submitted in
// holds it — the queue's items and the outstanding records are smaller for
// not holding a copy each, and nothing writes to a bundle once its tasks are
// queued. inst is resolved once at enqueue so the finalize path never takes
// the instance-table lock.
type taskRef struct {
	epr  string
	t    *task.Relayed
	inst *instance
}

// DefaultTenant is the tenant of instances created without one (including
// every pre-tenancy client).
const DefaultTenant = "default"

// taskTenant resolves the tenant a queued task belongs to (the fair-share
// core's tenant extractor).
func taskTenant(tr taskRef) string {
	if tr.inst != nil && tr.inst.tenant != "" {
		return tr.inst.tenant
	}
	return DefaultTenant
}

// Pusher is where an executor's work pushes ({3}) go: for a wire executor the
// connection, which encodes the body; an executor inside this process (a tree
// root's link to a leaf) is handed the value itself —
// fproto.WorkAvailable, or *fproto.RelayReply for a grant, which is the
// pusher's only until Notify returns.
type Pusher interface {
	Notify(method string, body any) error
}

// execRef is the transport state hung off a sched.Exec (via Ref): where the
// executor's pushes go.
type execRef struct {
	peer Pusher
	// rtt is the executor's last pull round trip as the dispatcher saw it:
	// reply sent to results delivered, less the run time the results report.
	// It is the declared run time one grant may hold (assignLocked); zero,
	// so nothing declared is bundled, until the first delivery. Guarded by
	// Dispatcher.mu.
	rtt time.Duration
	// grants is the executor's Register-time announcement that it runs work
	// pushed to it; parked counts its slots that are waiting by their own
	// account — the slot's last GetWork or Deliver came back empty and nothing
	// has been granted to it since — and ask is the size of the executor's
	// last ask. A work push to a parked slot carries the grant itself
	// (notifyLocked) — unless the dispatcher has freed a slot of the
	// executor on its own (replay timeout, a replaced duplicate: sched.Exec's
	// Suspect): the whole executor may be hung, its parked slots with it, and
	// only a message from it proves otherwise. parked and ask are guarded by
	// Dispatcher.mu.
	grants bool
	parked int
	ask    int
}

// outKey identifies an outstanding (dispatched, unacknowledged) task.
type outKey struct {
	epr string
	id  task.ID
}

// dcore aliases the scheduling core instantiated for the live dispatcher:
// executors are identified by their string ID, outstanding tasks by
// (instance, task ID).
type dcore = sched.Core[string, outKey, taskRef]

// resultRun is one deferred result notification ({8}) to a push-mode
// client: the results finalized back to back for one (peer, instance),
// fx.results[previous run's end:end]. A Deliver batch is normally one run,
// so it rides one ResultsNotify frame; contiguity (rather than a map) keeps
// per-instance result order intact.
type resultRun struct {
	peer *wsrpc.Peer
	inst *instance
	end  int
}

// notifyPush is one deferred work notification ({3}): work-available, or
// with grant set the work itself. It holds a snapshot of the executor fields
// taken under Dispatcher.mu — never the live *sched.Exec, which other
// handlers mutate concurrently once the lock is released.
type notifyPush struct {
	peer   Pusher
	exec   string
	at     time.Duration
	queued int
	grant  fproto.RelayReply
}

// stampRec is one deferred stage-latency observation: the stamps plus the
// tenant they are attributed to ("" when multi-tenancy is off, so the
// single-tenant flush path never looks up labeled histograms).
type stampRec struct {
	st     sched.Stamps
	tenant string
}

// fx accumulates a handler's side effects — trace records, stage-latency
// observations, work-available notifications and result pushes — gathered
// while holding Dispatcher.mu and applied by flush after releasing it.
// Keeping this I/O outside the scheduler lock is what lets deliveries from
// many executors pipeline instead of serializing on tracer and histogram
// writes.
//
// It is also the handler's scratch (DESIGN.md §9, "Scratch"): a Deliver is
// read into req, every grant — pushed, or replied with — is cut from grant,
// the complete records of the results a journaling dispatcher finalizes are
// written in enc, and what the handler sends — its reply (ack, reply) and its
// result pushes (note) — is a field handed to wsrpc by pointer. A wire
// handler's fx goes back to the dispatcher's free list (fxFree) when wsrpc has
// written its reply (grantReply, submitReply): the list holds one per handler
// in flight at the busiest moment, not one per connection.
type fx struct {
	events   []obs.Event // deferred tracer records
	stamps   []stampRec
	notifies []notifyPush
	results  []task.RelayedResult // pushed results, run after run
	runs     []resultRun
	enc      []byte
	req      fproto.Delivery
	grant    []fproto.Relay
	reply    []fproto.Relay        // of grant, what answers the pull being served
	ack      fproto.SubmitReply    // what answers the submit being served
	note     fproto.RelayedResults // the result push being sent
	free     *fxFree               // the free list f goes back to
}

func (f *fx) trace(at time.Duration, kind obs.EventKind, trace uint64, id task.ID, epr, exec string) {
	f.events = append(f.events, obs.Event{At: at, Kind: kind, Trace: trace, Task: id, EPR: epr, Executor: exec})
}

// push defers results for inst's client at peer, extending the current run
// when it is for the same pair.
func (f *fx) push(peer *wsrpc.Peer, inst *instance, rs ...task.RelayedResult) {
	f.results = append(f.results, rs...)
	run := resultRun{peer: peer, inst: inst, end: len(f.results)}
	if n := len(f.runs); n > 0 && f.runs[n-1].peer == peer && f.runs[n-1].inst == inst {
		f.runs[n-1].end = run.end
		return
	}
	f.runs = append(f.runs, run)
}

// fxFree is a dispatcher's free list of fx (DESIGN.md §9, "Scratch"): every
// Deliver gathers a handful of effects, and without reuse the append growth
// paths dominate the dispatcher's allocation profile. It keeps every fx given
// back, so it holds as many as were ever in handlers at once, and no more. A
// connection's handlers run on its read loop one at a time, so on a leaf that
// is at most one a connection and the sweeper's; a tree root's links and the
// submits it runs on goroutines add theirs. Unlike a sync.Pool a collection
// does not empty it: each emptying had every array an fx holds grown again.
type fxFree struct {
	mu   sync.Mutex
	list []*fx
}

// fxCap is the most elements an array of a kept fx keeps: one burst does not
// park megabytes. Its enc is kept as a connection's read buffer is (wsrpc):
// made anew only when it is over fxEnc and a handler used under an eighth of
// it, so a load whose deliveries write megabytes of records keeps writing
// them in one buffer.
const fxCap, fxEnc = 1024, 1 << 20

func (l *fxFree) get() *fx {
	l.mu.Lock()
	if n := len(l.list); n > 0 {
		f := l.list[n-1]
		l.list[n-1], l.list = nil, l.list[:n-1]
		l.mu.Unlock()
		return f
	}
	l.mu.Unlock()
	return &fx{free: l}
}

// release gives f back to its free list, with element references (peers,
// results, strings) cleared so its arrays don't pin them, arrays that grew
// past fxCap dropped, and enc kept by its own rule (fxEnc).
func (f *fx) release() {
	enc := f.enc[:0]
	if cap(enc) > fxEnc && len(f.enc) < cap(enc)/8 {
		enc = nil
	}
	if cap(f.events) > fxCap || cap(f.stamps) > fxCap || cap(f.notifies) > fxCap || cap(f.results) > fxCap || cap(f.runs) > fxCap ||
		cap(f.req.Results) > fxCap || cap(f.grant) > fxCap {
		*f = fx{free: f.free}
	} else {
		f.events = emptied(f.events)
		f.stamps = emptied(f.stamps)
		f.notifies = emptied(f.notifies)
		f.results = emptied(f.results)
		f.runs = emptied(f.runs)
		f.req = fproto.Delivery{Results: emptied(f.req.Results)}
		f.grant, f.reply = emptied(f.grant), nil
		f.ack, f.note = fproto.SubmitReply{}, fproto.RelayedResults{}
	}
	f.enc = enc
	l := f.free
	l.mu.Lock()
	l.list = append(l.list, f)
	l.mu.Unlock()
}

// emptied returns s with length 0 and no reference left in its array.
func emptied[T any](s []T) []T {
	clear(s)
	return fproto.Recycle(s)
}

// grantReply is a handler's fx as the reply to a work pull — a GetWorkReply or
// a DeliverReply, which are one encoding — released when wsrpc has written it.
type grantReply fx

func (g *grantReply) AppendJSON(dst []byte) []byte {
	return fproto.RelayReply{Assignments: g.reply}.AppendJSON(dst)
}

func (g *grantReply) Release() { (*fx)(g).release() }

// submitReply is a handler's fx as the reply to a submit, released likewise.
type submitReply fx

func (r *submitReply) AppendJSON(dst []byte) []byte { return r.ack.AppendJSON(dst) }

func (r *submitReply) Release() { (*fx)(r).release() }

// Dispatcher is the Falkon dispatch service. Create with New, then Listen.
type Dispatcher struct {
	opts  Options
	srv   *wsrpc.Server
	epoch time.Time

	reg    *obs.Registry
	tracer *obs.Tracer
	fxs    fxFree // handlers' scratch
	// hStage indexes the Figure-10 stage latency histograms in obs.Stages
	// order; hE2E is the end-to-end (enqueue→deliver) histogram the stages
	// partition exactly.
	hStage [sched.NStages]*obs.Histogram
	hE2E   *obs.Histogram
	// Scheduler-overhead histograms for the Submit/Deliver hot path: mutex
	// wait, core work under the mutex, deferred-effect flush, and the
	// group-commit durability wait. frame_write lives in wsrpc and
	// wal_commit in the journal's committer; together they account for
	// where the dispatcher's own time goes per RPC.
	hLockWait  *obs.Histogram
	hSchedCore *obs.Histogram
	hFxFlush   *obs.Histogram
	hWALWait   *obs.Histogram
	// hGrant is the tasks per grant, pulled or pushed
	// (falkon_dispatch_grant_tasks): the batch depth dispatch-ahead settled on.
	// grantsPushed counts the grants that rode a work push instead of a reply.
	hGrant       *obs.Histogram
	grantsPushed *obs.Counter
	// Pushes attempted ({3}, {8} and capacity hints) and pushes that failed.
	notifications *obs.Counter
	notifyErrs    *obs.Counter

	// tenants is the multi-tenant admission table (nil when multi-tenancy
	// is off — no admission checks, no per-tenant labels on the hot path),
	// guarded by mu.
	tenants *tenantTable
	// thMu guards tHists, the per-tenant labeled latency histograms. The
	// flush path takes the read lock only when a stamp carries a tenant.
	thMu   sync.RWMutex
	tHists map[string]*tenantHists

	// mu guards core, the one scheduling state machine: queue, executor
	// table, outstanding table; and the tenant table. Lock order across the dispatcher:
	//
	//	imu (instance table) → mu → instance.mu → journal internals
	mu   sync.Mutex
	core *dcore

	// imu guards the instance table — deliberately a separate, small lock so
	// instance lifecycle never contends with scheduling. Submit takes it only
	// for the map lookup.
	imu       sync.RWMutex
	instances map[string]*instance

	// parents tracks attached tree parents (roots whose link to this node is
	// sized by the capacity hints they receive).
	parents parents

	// links are a root's executors, one per leaf (root.go), set by Listen
	// before it serves; leafWG counts their goroutines.
	links  []*link
	leafWG sync.WaitGroup

	closed  atomic.Bool
	stopped chan struct{} // closed once shutdown has finished (Done)
	// draining is stored by Drain before it first takes mu and read by
	// Submit under mu: a submit either sees it and is refused, or has its
	// tasks queued by the time Drain looks.
	draining atomic.Bool

	sweeperStop chan struct{}
	sweeperDone chan struct{}

	// wal is the write-ahead journal (nil without JournalDir). Task records
	// are appended while mu is held — one accept per Submit, one dispatch
	// record per grant, one complete record per Deliver or replay pass — so
	// the journal's order is the order of the transitions: accept, dispatch,
	// complete. A snapshot cut takes imu and mu, so the captured state is an
	// exact prefix of the journal.
	wal            *wal.Journal
	recoveredTasks int64 // pending tasks rebuilt at the last Listen
	// granted and done are the bodies of the dispatch and complete records
	// being gathered, reused from one record to the next (done's results lie
	// in the gathering handler's fx.enc); snapMark is the count of journaled
	// task transitions (transitionsLocked) at the last snapshot cut. All
	// three are guarded by mu.
	granted  []wal.TaskRef
	done     []wal.Finalized
	snapMark int64
	// replSrc is the WAL replication source (nil without
	// Options.Replication). It is fed by the journal's Mirror hook and
	// consulted by the quorum barriers on the acknowledgment paths.
	replSrc   *replica.Source
	snapEvery int64
	// snapKick (one slot) wakes the snapshotter; shutdown's send on snapStop
	// is taken only between snapshots, and ends it. Both are nil without a
	// journal.
	snapKick chan struct{}
	snapStop chan struct{}
}

// New constructs a dispatcher (not yet listening).
func New(opts Options) *Dispatcher {
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	var fairShare *sched.FairShare
	if len(opts.Tenants) > 0 {
		fairShare = &sched.FairShare{Weights: tenantWeights(opts.Tenants)}
	}
	if opts.Bundle <= 0 {
		opts.Bundle = 64
	}
	// A root reads neither bound (Options.Leaves); replays there are for a
	// leaf lost, and every task's failures are its leaf's to bound.
	taskRetries := func(tr taskRef) int { return tr.t.MaxRetries() }
	if len(opts.Leaves) > 0 {
		opts.MaxRetries, taskRetries = math.MaxInt32, nil
	}
	d := &Dispatcher{
		opts:  opts,
		epoch: time.Now(),
		core: sched.NewCore[string, outKey](sched.Options[taskRef]{
			MaxRetries:  opts.MaxRetries,
			Dataset:     func(tr taskRef) string { return tr.t.Dataset() },
			TaskRetries: taskRetries,
			Tenant:      func(tr taskRef) string { return taskTenant(tr) },
			Declared:    func(tr taskRef) (time.Duration, bool) { return tr.t.Declared, tr.t.Whole() },
			FairShare:   fairShare,
		}),
		instances: make(map[string]*instance),
		stopped:   make(chan struct{}),
		reg:       opts.Metrics,
		tracer:    obs.NewTracer(opts.TraceCapacity),
	}
	if fairShare != nil {
		d.tenants = newTenantTable(opts.Tenants, d.now)
		d.tHists = make(map[string]*tenantHists)
	}
	for i, stage := range obs.Stages {
		d.hStage[i] = d.reg.Histogram(obs.StageKey(stage))
	}
	d.hE2E = d.reg.Histogram(obs.MetricE2ESeconds)
	d.hLockWait = d.reg.Histogram(obs.OverheadKey(obs.OverheadLockWait))
	d.hSchedCore = d.reg.Histogram(obs.OverheadKey(obs.OverheadSchedCore))
	d.hFxFlush = d.reg.Histogram(obs.OverheadKey(obs.OverheadFxFlush))
	d.hWALWait = d.reg.Histogram(obs.OverheadKey(obs.OverheadWALWait))
	d.hGrant = d.reg.Histogram("falkon_dispatch_grant_tasks")
	d.grantsPushed = d.reg.Counter("falkon_dispatch_grants_pushed_total")
	d.notifications = d.reg.Counter("falkon_notifications_total")
	d.notifyErrs = d.reg.Counter("falkon_notify_errors_total")
	d.srv = wsrpc.NewServer(wsrpc.ServerOptions{PSK: opts.PSK, Logf: d.logf, Metrics: d.reg, Faults: opts.Faults})
	d.register()
	d.srv.OnDisconnect(d.onDisconnect)
	return d
}

// now returns the dispatcher-epoch timestamp.
func (d *Dispatcher) now() time.Duration { return time.Since(d.epoch) }

func (d *Dispatcher) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// tenantHists is one tenant's labeled dimension of the stage and e2e
// latency histograms, cached per tenant so flush never rebuilds label keys
// on the hot path.
type tenantHists struct {
	stage [sched.NStages]*obs.Histogram
	e2e   *obs.Histogram
}

// tenantHistsFor returns tenant's labeled histogram set, creating it on
// first observation.
func (d *Dispatcher) tenantHistsFor(tenant string) *tenantHists {
	d.thMu.RLock()
	th, ok := d.tHists[tenant]
	d.thMu.RUnlock()
	if ok {
		return th
	}
	d.thMu.Lock()
	defer d.thMu.Unlock()
	if th, ok = d.tHists[tenant]; ok {
		return th
	}
	th = &tenantHists{e2e: d.reg.Histogram(obs.TenantKey(obs.MetricE2ESeconds, tenant))}
	for i, stage := range obs.Stages {
		th.stage[i] = d.reg.Histogram(obs.StageTenantKey(stage, tenant))
	}
	d.tHists[tenant] = th
	return th
}

// flush applies the effects gathered under mu. Must be called after
// releasing it: the tracer and histograms have their own synchronization,
// and a push encodes straight into its connection's cork buffer (and may
// wait there on a slow peer, up to wsrpc's write-stall bound).
func (d *Dispatcher) flush(f *fx) {
	d.tracer.RecordAll(f.events)
	// Each histogram takes a grant's worth of observations under one lock,
	// laid out in a buffer on the stack.
	var secs [64]float64
	for lo := 0; lo < len(f.stamps); lo += len(secs) {
		recs := f.stamps[lo:min(lo+len(secs), len(f.stamps))]
		for i, h := range d.hStage {
			for j := range recs {
				secs[j] = recs[j].st.Stages()[i].Seconds()
			}
			h.ObserveAll(secs[:len(recs)])
		}
		for j := range recs {
			secs[j] = recs[j].st.E2E().Seconds()
		}
		d.hE2E.ObserveAll(secs[:len(recs)])
	}
	for _, rec := range f.stamps {
		if rec.tenant != "" {
			th := d.tenantHistsFor(rec.tenant)
			for i, st := range rec.st.Stages() {
				th.stage[i].Observe(st.Seconds())
			}
			th.e2e.Observe(rec.st.E2E().Seconds())
		}
	}
	for i := range f.notifies {
		// A failed push needs no recovery here: the executor's disconnect
		// handling replays whatever it held, a pushed grant included.
		n := &f.notifies[i]
		if len(n.grant.Assignments) > 0 {
			d.notify(n.peer, fproto.NotifyWorkGrant, &n.grant) // encoded before Notify returns: the grant is f's
			continue
		}
		d.tracer.Record(n.at, obs.EvNotified, 0, 0, "", n.exec)
		d.notify(n.peer, fproto.NotifyWorkAvailable, fproto.WorkAvailable{Queued: n.queued})
	}
	start := 0
	for _, run := range f.runs {
		d.pushResults(f, run.peer, run.inst, f.results[start:run.end])
		start = run.end
	}
}

// notify pushes one notification to p, counting it and its failure.
func (d *Dispatcher) notify(p Pusher, method string, body any) error {
	d.notifications.Inc()
	err := p.Notify(method, body)
	if err != nil {
		d.notifyErrs.Inc()
	}
	return err
}

// pushResults sends one run of results ({8}) to inst's client at peer. The
// results are still owed if the push fails (finalize discharged them on the
// strength of the attached peer): the instance is detached from that peer,
// and the run goes to the connection that reattached meanwhile or, with
// none, back into the buffer and the live set, where the next reattach
// finds it and a resubmission dedupes against it. rs aliases f's pooled
// array, and their bytes the frame they came in: Notify splices them, from
// f.note, before returning, and what is buffered is a copy (Keep). A tree
// parent's instance is pushed its results without the fields the parent sets
// itself (fproto.RelayedResults.Parent); what is buffered stays whole.
func (d *Dispatcher) pushResults(f *fx, peer *wsrpc.Peer, inst *instance, rs []task.RelayedResult) {
	f.note = fproto.RelayedResults{EPR: inst.epr, Results: rs, Parent: inst.fromParent}
	for peer != nil {
		err := d.notify(peer, fproto.NotifyResults, &f.note)
		if err == nil {
			return
		}
		failed := peer
		inst.mu.Lock()
		detached := inst.peer == failed
		if detached {
			inst.peer = nil
		}
		if peer = inst.peer; peer == nil {
			for _, r := range rs {
				// A task resubmitted since its result was pushed is owed
				// again, by the copy that re-runs: its result is dropped.
				if inst.live.Add(r.ID) {
					r.Keep()
					inst.buf = append(inst.buf, r)
				}
			}
		}
		inst.mu.Unlock()
		if detached {
			d.logf("dispatch: result push to instance %s (peer %d, %s) failed, buffering until it reattaches: %v",
				inst.epr, failed.ID(), failed.RemoteAddr(), err)
		}
	}
}

// notifyLocked runs the notify pass, snapshotting each notification into f
// while still holding mu (the live *sched.Exec must not escape the critical
// section — concurrent handlers mutate it).
//
// Work rides the push: an executor that accepts grants and has a parked slot
// is granted on the spot, by the function that answers its pulls, and the
// notification carries the assignments. Everyone else — an executor that did
// not announce it, a fresh registration, an executor the dispatcher has freed
// a slot of by itself and not heard from since — is told that work is
// available and pulls. A granted executor stays on offer for its other slots,
// so the pass repeats until the queue is covered.
func (d *Dispatcher) notifyLocked(f *fx, now time.Duration) {
	for ns := d.core.Notifications(now); len(ns) > 0; ns = d.core.Notifications(now) {
		for _, n := range ns {
			ex, ref := n.Exec, n.Exec.Ref.(*execRef)
			push := notifyPush{peer: ref.peer, exec: ex.ID, at: ex.LastNotifyAt, queued: n.Queued}
			if ref.grants && ref.parked > 0 && !ex.Suspect {
				push.grant.Assignments = d.assignLocked(f, ex, ref.ask, obs.EvPushed, now)
			}
			granted := len(push.grant.Assignments)
			if granted == 0 && d.core.QueueLen() > 0 {
				f.notifies = append(f.notifies, push) // told; it pulls
				continue
			}
			// Nothing is left for the executor to acknowledge: it was handed
			// the work, or an earlier grant of this pass took it.
			ex.Notified = false
			d.core.Offer(ex)
			if granted > 0 {
				ref.parked--
				d.grantsPushed.Inc()
				d.hGrant.Observe(float64(granted))
				f.notifies = append(f.notifies, push)
			}
		}
	}
}

// Listen binds the dispatcher to addr (":0" for an ephemeral port) and
// starts serving. With JournalDir set, it first recovers surviving state
// from the journal — instances, queued and in-flight tasks, and
// undelivered results all outlive a crash. With Leaves, it first dials and
// attaches every leaf.
func (d *Dispatcher) Listen(addr string) error {
	if len(d.opts.Leaves) > 0 {
		if d.opts.JournalDir != "" || d.opts.Replication != nil {
			return fmt.Errorf("dispatch: -leaves cannot be combined with -journal-dir or -replicate (Options.JournalDir, Options.Replication): " +
				"a root keeps its tasks in memory until its crash test exists (ROADMAP 6(a)); journal the leaves")
		}
		if err := d.attachLeaves(); err != nil {
			return err
		}
	}
	if d.opts.Replication != nil && d.opts.JournalDir == "" {
		return fmt.Errorf("dispatch: replication requires a journal (JournalDir)")
	}
	if d.opts.JournalDir != "" {
		var mirror func([]byte)
		if r := d.opts.Replication; r != nil {
			d.replSrc = replica.NewSource(replica.SourceOptions{
				Term:     r.Term,
				Mode:     r.Mode,
				Baseline: d.replicaBaseline,
				Metrics:  d.reg,
				Logf:     d.opts.Logf,
			})
			mirror = d.replSrc.Mirror
			d.replSrc.Register(d.srv)
		}
		st, j, info, err := wal.Recover(d.opts.JournalDir, wal.Options{
			Sync:    d.opts.JournalSync,
			Metrics: d.reg,
			Logf:    d.opts.Logf,
			FS:      d.opts.JournalFS,
			OnError: d.journalFailed,
			Mirror:  mirror,
		})
		if err != nil {
			return err
		}
		d.wal = j
		d.snapEvery = int64(d.opts.SnapshotEvery)
		if d.snapEvery == 0 {
			d.snapEvery = 1 << 16
		}
		d.snapKick, d.snapStop = make(chan struct{}, 1), make(chan struct{})
		go d.snapshotter() // like the journal's committer, it lives until shutdown
		d.restore(st)
		d.recoveredTasks = int64(info.Pending)
		if info.Records > 0 || info.SnapshotIndex > 0 {
			d.logf("dispatch: recovered %d pending tasks, %d buffered results, %d instances (snapshot %d + %d records)",
				info.Pending, info.Results, len(st.Instances), info.SnapshotIndex, info.Records)
		}
	}
	if err := d.srv.Listen(addr); err != nil {
		d.closeLeaves()
		return err
	}
	if d.opts.ReplayTimeout > 0 {
		d.sweeperStop = make(chan struct{})
		d.sweeperDone = make(chan struct{})
		go d.sweeper()
	}
	return nil
}

// restore loads recovered journal state into the empty core: pending tasks
// re-enter the queue in journal order, as read (outstanding-at-crash work
// becomes queued again — the executors that held it are gone), instances
// come back peer-less with their undelivered results buffered for
// redelivery. Runs before serving starts, so no locks are needed.
func (d *Dispatcher) restore(st *wal.State) {
	d.core.Counters = st.Counters
	d.snapMark = d.transitionsLocked() // what the journal just replayed is not new
	for _, win := range st.Instances {
		tenant := win.Tenant
		if tenant == "" {
			tenant = DefaultTenant // pre-tenancy journal
		}
		inst := &instance{
			epr:       win.EPR,
			name:      win.Name,
			tenant:    tenant,
			submitted: win.Submitted,
		}
		for i := range win.Results { // each ID's result once
			if inst.live.Add(win.Results[i].ID) {
				inst.buf = append(inst.buf, task.RelayResult(&win.Results[i]))
			}
		}
		d.instances[win.EPR] = inst
	}
	now := d.now()
	for i := range st.Pending {
		p := &st.Pending[i]
		inst, ok := d.instances[p.EPR]
		if !ok || !inst.live.Add(p.Task.ID) {
			continue // replay proved the instance gone, or its result is buffered
		}
		d.core.Restore(now, taskRef{epr: p.EPR, t: &p.Task, inst: inst}, p.Attempts)
		// Re-charge per-tenant in-flight accounting (unchecked: the work was
		// admitted before the crash).
		d.tenants.admit(inst.tenant, 1, false)
	}
}

// captureLocked snapshots the dispatcher state for the journal. Callers hold
// imu and mu, so the capture is a consistent cut: a copy of each task.Relayed,
// and of each instance's buffered results as the dispatcher holds them, in
// buffered, one array an instance, in st.Instances order. Their bytes are
// their own (task.RelayedResult.Keep) and never change, so the caller decodes
// them (decodeBuffered) once it has let go of the locks.
func (d *Dispatcher) captureLocked() (st *wal.State, buffered [][]task.RelayedResult) {
	st = &wal.State{Counters: d.core.Counters, Pending: make([]wal.Pending, 0, d.core.QueueLen()+d.core.OutstandingLen())}
	for epr, inst := range d.instances {
		inst.mu.Lock()
		st.Instances = append(st.Instances, wal.Instance{
			EPR:       epr,
			Name:      inst.name,
			Tenant:    inst.tenant,
			Submitted: inst.submitted,
		})
		buffered = append(buffered, slices.Clone(inst.buf))
		inst.mu.Unlock()
	}
	d.core.EachQueued(func(it sched.Item[taskRef]) {
		st.Pending = append(st.Pending, wal.Pending{EPR: it.X.epr, Task: *it.X.t, Attempts: it.Attempts, Tenant: taskTenant(it.X)})
	})
	d.core.EachOutstanding(func(o sched.Outstanding[string, outKey, taskRef]) {
		st.Pending = append(st.Pending, wal.Pending{EPR: o.Item.X.epr, Task: *o.Item.X.t, Attempts: o.Item.Attempts, Tenant: taskTenant(o.Item.X)})
	})
	return st, buffered
}

// decodeBuffered decodes what captureLocked copied of the instances' buffers
// into st, as the journal's snapshot holds results: whole.
func decodeBuffered(st *wal.State, buffered [][]task.RelayedResult) {
	for i, rs := range buffered {
		var whole []task.Result
		for j := range rs {
			whole = append(whole, rs[j].Result())
		}
		st.Instances[i].Results = whole
	}
}

// cut is a consistent cut of the journal and the state it holds: under imu
// and mu it rotates the journal and captures the state every record below the
// returned boundary leaves. Rotation flushes every buffered append through
// the Mirror hook, so when replicating the stream end it also returns is
// exactly that boundary: a standby that Resets to (state, streamEnd) and
// applies the stream from there replays the history the leader's own journal
// holds. markSnap restarts the snapshot cadence at the cut.
func (d *Dispatcher) cut(markSnap bool) (boundary uint64, st *wal.State, streamEnd int64, err error) {
	var buffered [][]task.RelayedResult
	defer func() { decodeBuffered(st, buffered) }() // deferred first, so run once the locks are let go
	d.imu.Lock()
	defer d.imu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if boundary, err = d.wal.Rotate(); err != nil {
		return 0, nil, 0, err
	}
	if markSnap {
		d.snapMark = d.transitionsLocked()
	}
	if d.replSrc != nil {
		streamEnd = d.replSrc.End()
	}
	st, buffered = d.captureLocked()
	return boundary, st, streamEnd, nil
}

// replicaBaseline is an attaching standby's baseline: the state at a cut and
// the replication-stream position it corresponds to.
func (d *Dispatcher) replicaBaseline() (*wal.State, int64, error) {
	_, st, pos, err := d.cut(false)
	return st, pos, err
}

// replicaBarrier extends a durability barrier with the quorum policy: after
// the journal handle's Wait released (the records are on local disk and,
// via the Mirror hook, already in the replication stream), wait for the
// standby acks the mode requires. No-op in async mode or standalone.
func (d *Dispatcher) replicaBarrier() {
	if d.replSrc != nil {
		d.replSrc.WaitCommitted(d.replSrc.End())
	}
}

// transitionsLocked counts the task transitions the journal's dispatch and
// complete records have carried: the core counts every grant and every
// finalized result, and each is journaled where it is counted.
func (d *Dispatcher) transitionsLocked() int64 {
	c := &d.core.Counters
	return c.Dispatched + c.Completed + c.Failed
}

// snapshotDueLocked reports whether enough task transitions have been
// journaled since the last snapshot cut to compact again. The unit is tasks,
// not records: a record carries a whole grant or delivery, and replay cost
// follows what the records hold. Callers hold mu and, when it is due, call
// startSnapshot after releasing it.
func (d *Dispatcher) snapshotDueLocked() bool {
	return d.wal != nil && d.snapEvery >= 0 && d.transitionsLocked()-d.snapMark >= d.snapEvery
}

// startSnapshot kicks the snapshotter. A kick while one is waiting is the
// same kick.
func (d *Dispatcher) startSnapshot() {
	select {
	case d.snapKick <- struct{}{}:
	default:
	}
}

// snapshotter is a journaled dispatcher's one snapshot writer: it takes a
// snapshot each time it is kicked, until shutdown stops it.
func (d *Dispatcher) snapshotter() {
	for {
		select {
		case <-d.snapKick:
			d.snapshot()
		case <-d.snapStop:
			return
		}
	}
}

// snapshot writes a snapshot at a cut, so the captured state is exactly the
// journal prefix below it; the (slower) snapshot write happens unlocked. A
// kick that came while the last snapshot ran may be stale — that cut
// restarted the cadence — so the cadence is asked again first; only this
// goroutine cuts with markSnap, so what it answers holds until the cut.
func (d *Dispatcher) snapshot() {
	d.mu.Lock()
	due := d.snapshotDueLocked()
	d.mu.Unlock()
	if !due {
		return
	}
	cut, st, _, err := d.cut(true)
	if err != nil {
		d.logf("dispatch: journal rotate failed: %v", err)
		return
	}

	start := time.Now()
	err = d.wal.WriteSnapshot(cut, st)
	dur := time.Since(start)
	if err != nil {
		d.logf("dispatch: snapshot failed: %v", err)
		return
	}
	d.reg.Counter("falkon_wal_snapshots_total").Inc()
	d.reg.Gauge("falkon_wal_snapshot_unixtime").Set(time.Now().Unix())
	d.reg.Histogram("falkon_wal_snapshot_seconds").Observe(dur.Seconds())
	d.logf("dispatch: journal snapshot %d (%d pending, %d instances) in %v", cut, len(st.Pending), len(st.Instances), dur)
}

// Addr returns the bound address.
func (d *Dispatcher) Addr() string { return d.srv.Addr() }

// Close shuts the dispatcher down. With a journal, every buffered record
// is flushed and fsynced before Close returns — a clean shutdown seals the
// journal.
func (d *Dispatcher) Close() error { return d.shutdown((*wal.Journal).Close) }

// Abort stops the dispatcher as a crash would: the transport drops and the
// journal is abandoned without flushing its in-memory batch — only records
// the committer already wrote survive, the same post-condition as a kill -9.
// A dispatcher whose journal fails aborts itself (journalFailed).
func (d *Dispatcher) Abort() {
	d.shutdown(func(j *wal.Journal) error { j.Abort(); return nil })
}

// Done is closed once the dispatcher has stopped: after Close or Abort, or
// after it stopped itself because its journal failed.
func (d *Dispatcher) Done() <-chan struct{} { return d.stopped }

// journalFailed is the journal's OnError: a dispatcher that cannot write its
// journal fails stop (DESIGN.md §11, "Disk"), and a restart recovers the
// durable prefix. The abort runs on a goroutine of its own, since it waits for
// the committer, which calls this, and for the handlers.
func (d *Dispatcher) journalFailed(err error) {
	d.logf("dispatch: journal failed, stopping: %v", err)
	go d.Abort()
}

// shutdown is Close and Abort, which differ only in how the journal ends.
func (d *Dispatcher) shutdown(endJournal func(*wal.Journal) error) error {
	if d.closed.Swap(true) {
		return nil
	}
	defer close(d.stopped)
	d.closeLeaves()
	if d.replSrc != nil {
		d.replSrc.Close() // release blocked fetches and quorum barriers first
	}
	if d.sweeperStop != nil {
		close(d.sweeperStop)
		<-d.sweeperDone
	}
	err := d.srv.Close()
	if d.wal != nil {
		d.snapStop <- struct{}{} // taken between snapshots: none is written after this
		if werr := endJournal(d.wal); err == nil {
			err = werr
		}
	}
	return err
}

// empty reports the drain condition: no task queued or outstanding.
func (d *Dispatcher) empty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.core.Empty()
}

// drainPoll is how often Drain looks at the core.
const drainPoll = 5 * time.Millisecond

// Drain puts the dispatcher into drain mode: new submissions are rejected
// while queued and in-flight tasks complete. It returns once the system is
// empty, or once the timeout expires (0 = wait forever) or the dispatcher is
// closed, reporting whether the drain finished. It asks the core whether the
// system is empty every drainPoll, so no handler has to tell it.
func (d *Dispatcher) Drain(timeout time.Duration) bool {
	d.draining.Store(true)
	start := time.Now()
	for !d.empty() {
		if d.closed.Load() || (timeout > 0 && time.Since(start) >= timeout) {
			return false
		}
		time.Sleep(drainPoll)
	}
	return true
}

// Stats snapshots dispatcher state (also served as an RPC for remote
// provisioners). A root answers as any dispatcher answers for itself —
// counters, queue, outstanding (what the links hold), instances and tenant
// rows, each client task counted once — and adds its subtree (addSubtree).
func (d *Dispatcher) Stats() fproto.StatsReply {
	st := d.ownStats()
	if len(d.links) > 0 {
		d.addSubtree(&st)
	}
	return st
}

// ownStats is Stats of this dispatcher alone: a root's links count as its
// executors.
func (d *Dispatcher) ownStats() fproto.StatsReply {
	var st fproto.StatsReply
	var tenantQueued map[string]int
	if d.tenants != nil {
		tenantQueued = make(map[string]int)
	}
	d.mu.Lock()
	ct := d.core.Counters
	st.Queued, st.Outstanding = d.core.QueueLen(), d.core.OutstandingLen()
	st.TotalExecutors, st.BusyExecutors = d.core.ExecStats()
	if tenantQueued != nil {
		d.core.TenantQueueLens(tenantQueued)
	}
	st.Tenants = d.tenants.snapshot(tenantQueued)
	d.mu.Unlock()
	st.Submitted = ct.Submitted
	st.Completed = ct.Completed
	st.Failed = ct.Failed
	st.Retried = ct.Retried
	st.Dispatched = ct.Dispatched
	st.Duplicates = ct.Duplicates
	st.CacheHits = ct.CacheHits
	st.CacheMisses = ct.CacheMisses
	st.IdleExecutors = st.TotalExecutors - st.BusyExecutors
	st.NotifyErrors = d.notifyErrs.Value()
	d.imu.RLock()
	st.Instances = len(d.instances)
	d.imu.RUnlock()
	if d.wal != nil {
		st.Journal = true
		st.JournalAppends = d.wal.Appends()
		st.JournalFsyncs = d.wal.Fsyncs()
		st.RecoveredTasks = d.recoveredTasks
	}
	if d.replSrc != nil {
		st.Replication = d.replSrc.Stats()
	}
	return st
}

// held returns how many tasks executor id holds: dispatched to it and not yet
// answered.
func (d *Dispatcher) held(id string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ex, ok := d.core.Exec(id); ok {
		return ex.Assigned
	}
	return 0
}

// Metrics returns the dispatcher's metric registry (for mounting a debug
// HTTP endpoint or registering additional instruments).
func (d *Dispatcher) Metrics() *obs.Registry { return d.reg }

// Tracer returns the task-lifecycle event ring.
func (d *Dispatcher) Tracer() *obs.Tracer { return d.tracer }

// SpanHeader describes the dispatcher's span dump for offline merging. The
// dispatcher is the reference clock of the corrected timeline, so its
// offset is zero by definition.
func (d *Dispatcher) SpanHeader() obs.DumpHeader {
	return obs.DumpHeader{Proc: "dispatcher", EpochUnixNano: d.epoch.UnixNano()}
}

// MetricsSnapshot captures the full registry plus live queue/executor
// gauges and lifecycle counters — the falkon.metrics RPC body. A root's is
// its subtree's (subtreeMetrics).
func (d *Dispatcher) MetricsSnapshot() obs.MetricsSnapshot {
	if len(d.links) > 0 {
		return d.subtreeMetrics()
	}
	st := d.Stats()
	d.reg.Gauge("falkon_queue_depth").Set(int64(st.Queued))
	d.reg.Gauge("falkon_outstanding_tasks").Set(int64(st.Outstanding))
	d.reg.Gauge("falkon_instances").Set(int64(st.Instances))
	d.reg.Gauge(obs.Labeled("falkon_executors", "state", "idle")).Set(int64(st.IdleExecutors))
	d.reg.Gauge(obs.Labeled("falkon_executors", "state", "busy")).Set(int64(st.BusyExecutors))
	s := d.reg.Snapshot()
	setLifecycleCounters(s, st)
	return fproto.NoteCodec(s)
}

// setLifecycleCounters writes a dispatcher's task-lifecycle counters, which
// live in its scheduling core rather than in its registry, into s: the
// dispatcher's own, and at a tree root in place of its leaves' sums.
func setLifecycleCounters(s obs.MetricsSnapshot, st fproto.StatsReply) {
	s.Counters["falkon_tasks_submitted_total"] = st.Submitted
	s.Counters["falkon_tasks_completed_total"] = st.Completed
	s.Counters["falkon_tasks_failed_total"] = st.Failed
	s.Counters["falkon_tasks_retried_total"] = st.Retried
	s.Counters["falkon_tasks_dispatched_total"] = st.Dispatched
	s.Counters["falkon_duplicate_deliveries_total"] = st.Duplicates
}

// onDisconnect requeues work from dropped executors and detaches dropped
// client instances so their results buffer instead of being pushed into a
// dead connection (they flush when the client re-attaches).
func (d *Dispatcher) onDisconnect(p *wsrpc.Peer) {
	meta, _ := p.Meta().(string)
	if meta == "" {
		// Client connections carry no meta; detach any instances bound to
		// this peer, and forget it as a tree parent if it attached as one.
		// Standby replication connections also land here.
		if d.replSrc != nil {
			d.replSrc.DropPeer(p)
		}
		d.parents.Drop(p)
		d.imu.RLock()
		for _, inst := range d.instances {
			inst.mu.Lock()
			if inst.peer == p {
				inst.peer = nil
			}
			inst.mu.Unlock()
		}
		d.imu.RUnlock()
		return
	}
	f := d.fxs.get()
	defer f.release()
	d.mu.Lock()
	ex, ok := d.core.Exec(meta)
	if !ok || ex.Ref.(*execRef).peer != p {
		d.mu.Unlock()
		return // a newer connection re-registered the id
	}
	_, dropped := d.core.DropExecutor(meta)
	d.replayAll(f, dropped, fmt.Sprintf("executor %s disconnected", meta))
	if len(dropped) > 0 {
		d.notifyLocked(f, d.now())
	}
	d.mu.Unlock()
	if len(dropped) > 0 {
		d.logf("dispatch: executor %s dropped with %d tasks in flight", meta, len(dropped))
	}
	d.flush(f)
	d.noteCapacityChange()
}

// replayAll applies the replay policy to the attempts one event orphaned and
// journals what that finalized as one record. Callers hold mu and run the
// notify pass afterwards.
func (d *Dispatcher) replayAll(f *fx, orphans []sched.Outstanding[string, outKey, taskRef], reason string) {
	for i := range orphans {
		d.replay(f, &orphans[i], reason)
	}
	d.journalCompletesLocked()
}

// replay applies the replay policy to an orphaned attempt: while retries
// remain the item goes back on the queue, otherwise the task is finalized
// failed. Callers hold mu and journal the completes (journalCompletesLocked)
// before releasing it.
func (d *Dispatcher) replay(f *fx, o *sched.Outstanding[string, outKey, taskRef], reason string) {
	if d.core.Requeue(o.Item) {
		f.trace(d.now(), obs.EvRetried, o.Item.X.t.Trace, o.Item.X.t.ID, o.Item.X.epr, o.Executor)
		return
	}
	r := task.RelayResult(&task.Result{
		ID:           o.Item.X.t.ID,
		Trace:        o.Item.X.t.Trace,
		Err:          "retries exhausted: " + reason,
		ExitCode:     -1,
		QueuedAt:     o.Item.QueuedAt,
		DispatchedAt: o.DispatchedAt,
		StartedAt:    d.now(),
		FinishedAt:   d.now(),
		Attempts:     o.Item.Attempts,
	})
	d.finalize(f, o.Item.X, &r)
}

// assignLocked answers a pull by executor ex for asked tasks from the
// queue, recording what it grants as outstanding, and returns
// the protocol assignments. The grant is the dispatcher's half of
// dispatch-ahead (sched.Core.Grant): tasks in pick order up to the ask, of
// which those that state no whole run time are at most an even share of the
// queue for the slots free to take it, and of all the work held for every
// slot, and it stops short of the first task whose declared run time would
// take the batch past the executor's last round trip — so an idle slot is
// never starved by a neighbour's batch of work whose length is a guess, and a
// task that says it is long rides alone. kind is how the assignments travel:
// the reply to a work pull, a deliver acknowledgment, or the work push
// itself, whose now is the notification's own stamp. The assignments are cut
// from f.grant, and are the caller's until f is released. Callers hold mu.
func (d *Dispatcher) assignLocked(f *fx, ex *sched.Exec[string], asked int, kind obs.EventKind, now time.Duration) []fproto.Relay {
	as, first := f.grant, len(f.grant)
	g := d.core.Grant(asked, ex.Ref.(*execRef).rtt)
	for {
		it, hit, ok := d.core.PickWithin(ex, &g)
		if !ok {
			break
		}
		if it.X.inst == nil || it.X.inst.destroyed.Load() {
			// Instance destroyed while queued: the task is shed here and
			// never finalizes, so retire its tenant in-flight charge now.
			d.core.Refund(&g, it)
			d.tenants.release(taskTenant(it.X), 1, false)
			continue
		}
		d.core.Assign(now, ex, outKey{it.X.epr, it.X.t.ID}, it)
		f.trace(now, kind, it.X.t.Trace, it.X.t.ID, it.X.epr, ex.ID)
		as = append(as, fproto.Relay{EPR: it.X.epr, Task: it.X.t, CacheHit: hit})
	}
	if d.wal != nil && len(as) > first {
		// One record for the grant, as it is one frame on the wire. Advisory:
		// recovery restores attempt counts from it, so a task that keeps
		// killing its dispatcher still runs out of retries. The append fails
		// only on a journal that has failed closed, and the dispatcher is then
		// stopping (journalFailed); the grant stands until it has.
		d.granted = d.granted[:0]
		for i := first; i < len(as); i++ {
			d.granted = append(d.granted, wal.TaskRef{EPR: as[i].EPR, ID: as[i].Task.ID})
		}
		_ = d.wal.AppendDispatches(&wal.DispatchBatchRec{Exec: ex.ID, Tasks: d.granted})
	}
	f.grant = as
	return as[first:len(as):len(as)]
}

// journalCompletesLocked appends the results finalized since the last call
// as one complete record. Every path that finalizes calls it before it
// releases mu, which keeps a task's complete record ahead of anything a
// client can do on seeing the result. (On a failed append, as for a grant's:
// the results are delivered regardless.)
func (d *Dispatcher) journalCompletesLocked() {
	if len(d.done) == 0 {
		return
	}
	_ = d.wal.AppendCompletes(d.done)
	d.done = emptied(d.done) // the results lie in a handler's buffer
}

// finalize delivers a finished result to its instance (push or buffer).
// Callers hold mu; the push itself is deferred into f, and the journal record
// to the caller's journalCompletesLocked. r's bytes may be a view of the frame
// it came in: what is buffered is a copy.
func (d *Dispatcher) finalize(f *fx, tr taskRef, r *task.RelayedResult) {
	if d.wal != nil {
		// Logged with the payload so undelivered results survive a crash
		// and are redelivered on recovery (clients dedupe by task ID),
		// written in f.enc once: its push copies those bytes.
		from := len(f.enc)
		f.enc = r.AppendOnce(f.enc)
		d.done = append(d.done, wal.Finalized{EPR: tr.epr, Result: f.enc[from:len(f.enc):len(f.enc)]})
	}
	if r.Failed() {
		d.core.Counters.Failed++
		_, _, exec := r.Failure()
		f.trace(d.now(), obs.EvFailed, r.Trace, r.ID, tr.epr, exec)
	} else {
		d.core.Counters.Completed++
	}
	// Tenant accounting retires the task whether or not the instance is
	// still around to receive the result.
	d.tenants.release(taskTenant(tr), 1, r.Failed())
	inst := tr.inst
	if inst == nil || inst.destroyed.Load() {
		return
	}
	inst.mu.Lock()
	if inst.peer != nil {
		inst.live.Remove(r.ID) // pushed: discharged, unless pushResults finds the push failed
		peer := inst.peer
		inst.mu.Unlock()
		f.push(peer, inst, *r)
		return
	}
	kept := *r
	kept.Keep()
	inst.buf = append(inst.buf, kept)
	inst.mu.Unlock()
}

// sweeper periodically applies the timeout half of the replay policy.
func (d *Dispatcher) sweeper() {
	defer close(d.sweeperDone)
	interval := d.opts.ReplayTimeout / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-d.sweeperStop:
			return
		case <-tick.C:
		}
		cutoff := d.now() - d.opts.ReplayTimeout
		f := d.fxs.get()
		d.mu.Lock()
		expired := d.core.Expire(cutoff)
		d.replayAll(f, expired, "replay timeout")
		if len(expired) > 0 {
			d.notifyLocked(f, d.now())
		}
		d.mu.Unlock()
		if len(expired) > 0 {
			d.logf("dispatch: replayed %d timed-out tasks", len(expired))
		}
		d.flush(f)
		f.release()
	}
}
