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

	// ClusterID names the HA cluster this dispatcher serves. Clients echo
	// it on cross-address re-attach; a dispatcher serving a different
	// cluster rejects the attach so an EPR never resolves against an
	// unrelated journal. Empty means standalone.
	ClusterID string

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
	// encoded says the run's results were encoded as they were journaled:
	// the run's share of fx.encoded holds their bytes, which the push splices.
	encoded bool
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
// decoded into req, every grant — pushed, or replied with — is cut from
// grant, and what the handler sends — its reply (ack, reply) and its result
// pushes (note) — is a field handed to wsrpc by pointer. A wire handler's fx
// goes back to the pool when wsrpc has written its reply (grantReply,
// submitReply): one per handler in flight, not one per connection.
type fx struct {
	events   []obs.Event // deferred tracer records
	stamps   []stampRec
	notifies []notifyPush
	results  []task.Result // pushed results, run after run
	runs     []resultRun
	// enc is where the results finalized under a journal are encoded, once,
	// for their complete record and their push: a Deliver's is its
	// connection's (handleDeliver), as a submit's task.Scratch is. encoded
	// holds, in order, the bytes of the pushed results of encoded runs.
	enc     []byte
	encoded [][]byte
	req     fproto.DeliverRequest
	grant   []fproto.Relay
	reply   []fproto.Relay        // of grant, what answers the pull being served
	ack     fproto.SubmitReply    // what answers the submit being served
	note    fproto.ResultsNotify  // the result push being sent
	spliced fproto.EncodedResults // or that push, of encoded results
}

func (f *fx) trace(at time.Duration, kind obs.EventKind, trace uint64, id task.ID, epr, exec string) {
	f.events = append(f.events, obs.Event{At: at, Kind: kind, Trace: trace, Task: id, EPR: epr, Executor: exec})
}

// push defers results for inst's client at peer, extending the current run
// when it is for the same pair. encoded, when not nil, is the one result's
// bytes (see fx.enc).
func (f *fx) push(peer *wsrpc.Peer, inst *instance, encoded []byte, rs ...task.Result) {
	f.results = append(f.results, rs...)
	if encoded != nil {
		f.encoded = append(f.encoded, encoded)
	}
	run := resultRun{peer: peer, inst: inst, end: len(f.results), encoded: encoded != nil}
	if n := len(f.runs); n > 0 && f.runs[n-1].peer == peer && f.runs[n-1].inst == inst && f.runs[n-1].encoded == run.encoded {
		f.runs[n-1].end = run.end
		return
	}
	f.runs = append(f.runs, run)
}

// fxPool recycles fx backing arrays between handler calls: every Deliver
// gathers a handful of effects, and without reuse the append growth paths
// dominate the dispatcher's allocation profile.
var fxPool = sync.Pool{New: func() any { return new(fx) }}

func getFx() *fx { return fxPool.Get().(*fx) }

// putFx clears element references (peers, results, strings) so the pooled
// arrays don't pin them, and drops arrays that grew unusually large so one
// burst doesn't park megabytes in the pool.
func putFx(f *fx) {
	const keep = 1024
	if cap(f.events) > keep || cap(f.stamps) > keep || cap(f.notifies) > keep || cap(f.results) > keep || cap(f.runs) > keep ||
		cap(f.req.Results) > keep || cap(f.grant) > keep || cap(f.encoded) > keep {
		*f = fx{}
	} else {
		f.events = emptied(f.events)
		f.stamps = emptied(f.stamps)
		f.notifies = emptied(f.notifies)
		f.results = emptied(f.results)
		f.runs = emptied(f.runs)
		f.enc, f.encoded = nil, emptied(f.encoded)
		f.req = fproto.DeliverRequest{Results: emptied(f.req.Results)}
		f.grant, f.reply = emptied(f.grant), nil
		f.ack, f.note, f.spliced = fproto.SubmitReply{}, fproto.ResultsNotify{}, fproto.EncodedResults{}
	}
	fxPool.Put(f)
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

func (g *grantReply) Release() { putFx((*fx)(g)) }

// submitReply is a handler's fx as the reply to a submit, released likewise.
type submitReply fx

func (r *submitReply) AppendJSON(dst []byte) []byte { return r.ack.AppendJSON(dst) }

func (r *submitReply) Release() { putFx((*fx)(r)) }

// Dispatcher is the Falkon dispatch service. Create with New, then Listen.
type Dispatcher struct {
	opts  Options
	srv   *wsrpc.Server
	epoch time.Time

	reg    *obs.Registry
	tracer *obs.Tracer
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

	// imu guards the instance table and EPR allocation — deliberately a
	// separate, small lock so instance lifecycle never contends with
	// scheduling. Submit/Collect take it only for the map lookup.
	imu       sync.RWMutex
	instances map[string]*instance
	nextEPR   int64

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
	// dmu/drained implement the drain condition: Drain re-checks empty()
	// itself; handlers just broadcast after removing work, with mu released.
	dmu     sync.Mutex
	drained *sync.Cond

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
	// smu serializes snapshot kickoff against Close so snapWG.Add never
	// races snapWG.Wait; snapBusy collapses concurrent kickoffs.
	smu      sync.Mutex
	snapBusy bool
	snapWG   sync.WaitGroup
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
			Declared:    func(tr taskRef) time.Duration { return tr.t.Declared },
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
	d.drained = sync.NewCond(&d.dmu)
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
	start, encoded := 0, f.encoded
	for _, run := range f.runs {
		var bodies [][]byte
		if run.encoded {
			bodies, encoded = encoded[:run.end-start], encoded[run.end-start:]
		}
		d.pushResults(f, run.peer, run.inst, f.results[start:run.end], bodies)
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
// array; Notify encodes it, from f.note, before returning and the buffer copies.
// A tree parent's instance is pushed its results without the fields the
// parent sets itself (fproto.ParentResults); what is buffered stays whole.
// encoded, when not nil, is rs as they were encoded for the journal, and the
// push splices them (f.spliced).
func (d *Dispatcher) pushResults(f *fx, peer *wsrpc.Peer, inst *instance, rs []task.Result, encoded [][]byte) {
	f.note = fproto.ResultsNotify{EPR: inst.epr, Results: rs}
	var body any = &f.note
	switch {
	case encoded != nil:
		f.spliced = fproto.EncodedResults{EPR: inst.epr, Results: encoded}
		body = &f.spliced
	case inst.fromParent:
		body = (*fproto.ParentResults)(&f.note)
	}
	for peer != nil {
		err := d.notify(peer, fproto.NotifyResults, body)
		if err == nil {
			return
		}
		failed := peer
		inst.mu.Lock()
		detached := inst.peer == failed
		if detached {
			inst.peer = nil
		}
		if peer = inst.peer; peer == nil || !inst.notify {
			peer = nil
			for _, r := range rs {
				// A task resubmitted since its result was pushed is owed
				// again, by the copy that re-runs: its result is dropped.
				if inst.live.Add(r.ID) {
					inst.buf.Add(r)
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
	d.nextEPR = st.NextEPR
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
			notify:    win.Notify,
			tenant:    tenant,
			submitted: win.Submitted,
			buf:       task.ResultBuffer{Results: win.Results[:0]},
		}
		for _, r := range win.Results { // each ID's result once
			if inst.live.Add(r.ID) {
				inst.buf.Results = append(inst.buf.Results, r)
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
		inst.inFlight++
		// Re-charge per-tenant in-flight accounting (unchecked: the work was
		// admitted before the crash).
		d.tenants.admit(inst.tenant, 1, false)
	}
}

// captureLocked snapshots the dispatcher state for the journal. Callers hold
// imu and mu, so the capture is a consistent cut: a copy of each task.Relayed.
func (d *Dispatcher) captureLocked() *wal.State {
	st := &wal.State{NextEPR: d.nextEPR, Counters: d.core.Counters, Pending: make([]wal.Pending, 0, d.core.QueueLen()+d.core.OutstandingLen())}
	for epr, inst := range d.instances {
		inst.mu.Lock()
		st.Instances = append(st.Instances, wal.Instance{
			EPR:       epr,
			Name:      inst.name,
			Notify:    inst.notify,
			Tenant:    inst.tenant,
			Submitted: inst.submitted,
			Results:   append([]task.Result(nil), inst.buf.Results...),
		})
		inst.mu.Unlock()
	}
	d.core.EachQueued(func(it sched.Item[taskRef]) {
		st.Pending = append(st.Pending, wal.Pending{EPR: it.X.epr, Task: *it.X.t, Attempts: it.Attempts, Tenant: taskTenant(it.X)})
	})
	d.core.EachOutstanding(func(o sched.Outstanding[string, outKey, taskRef]) {
		st.Pending = append(st.Pending, wal.Pending{EPR: o.Item.X.epr, Task: *o.Item.X.t, Attempts: o.Item.Attempts, Tenant: taskTenant(o.Item.X)})
	})
	return st
}

// cut is a consistent cut of the journal and the state it holds: under imu
// and mu it rotates the journal and captures the state every record below the
// returned boundary leaves. Rotation flushes every buffered append through
// the Mirror hook, so when replicating the stream end it also returns is
// exactly that boundary: a standby that Resets to (state, streamEnd) and
// applies the stream from there replays the history the leader's own journal
// holds. markSnap restarts the snapshot cadence at the cut.
func (d *Dispatcher) cut(markSnap bool) (boundary uint64, st *wal.State, streamEnd int64, err error) {
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
	return boundary, d.captureLocked(), streamEnd, nil
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

// startSnapshot kicks an asynchronous snapshot unless one is running. The
// kickoff serializes with Close via smu so snapWG.Add never races
// snapWG.Wait.
func (d *Dispatcher) startSnapshot() {
	d.smu.Lock()
	if d.snapBusy || d.closed.Load() {
		d.smu.Unlock()
		return
	}
	d.snapBusy = true
	d.snapWG.Add(1)
	d.smu.Unlock()
	go d.snapshot()
}

// snapshot writes a snapshot at a cut, so the captured state is exactly the
// journal prefix below it; the (slower) snapshot write happens unlocked.
func (d *Dispatcher) snapshot() {
	defer d.snapWG.Done()
	cut, st, _, err := d.cut(true)
	if err != nil {
		d.endSnapshot()
		d.logf("dispatch: journal rotate failed: %v", err)
		return
	}

	start := time.Now()
	err = d.wal.WriteSnapshot(cut, st)
	dur := time.Since(start)
	d.endSnapshot()
	if err != nil {
		d.logf("dispatch: snapshot failed: %v", err)
		return
	}
	d.reg.Counter("falkon_wal_snapshots_total").Inc()
	d.reg.Gauge("falkon_wal_snapshot_unixtime").Set(time.Now().Unix())
	d.reg.Histogram("falkon_wal_snapshot_seconds").Observe(dur.Seconds())
	d.logf("dispatch: journal snapshot %d (%d pending, %d instances) in %v", cut, len(st.Pending), len(st.Instances), dur)
}

func (d *Dispatcher) endSnapshot() {
	d.smu.Lock()
	d.snapBusy = false
	d.smu.Unlock()
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
	d.wakeDrainAlways() // release any Drain blocked on a dead system
	if d.replSrc != nil {
		d.replSrc.Close() // release blocked fetches and quorum barriers first
	}
	if d.sweeperStop != nil {
		close(d.sweeperStop)
		<-d.sweeperDone
	}
	err := d.srv.Close()
	if d.wal != nil {
		// smu barrier: any maybeSnapshot that passed the closed check has
		// finished its Add by the time we acquire smu, so Wait is safe.
		d.smu.Lock()
		d.smu.Unlock() //nolint:staticcheck // empty section is the barrier
		d.snapWG.Wait()
		if werr := endJournal(d.wal); err == nil {
			err = werr
		}
	}
	return err
}

// wakeDrain nudges blocked Drain calls after a handler (having released mu)
// removed work from the system. One atomic load when not draining; Drain
// re-checks the real condition itself.
func (d *Dispatcher) wakeDrain() {
	if !d.draining.Load() {
		return
	}
	d.wakeDrainAlways()
}

// wakeDrainAlways broadcasts under dmu: taking the lock first means a
// Drain that just observed a non-empty system is either still holding dmu
// (we wait, it will re-check after Wait) or already parked in Wait (the
// broadcast lands) — never between the two, so no wakeup is lost.
func (d *Dispatcher) wakeDrainAlways() {
	d.dmu.Lock()
	d.drained.Broadcast()
	d.dmu.Unlock()
}

// empty reports the drain condition: no task queued or outstanding.
func (d *Dispatcher) empty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.core.Empty()
}

// Drain puts the dispatcher into drain mode: new submissions are rejected
// while queued and in-flight tasks complete. It returns once the system is
// empty or the timeout expires (0 = wait forever), reporting whether the
// drain finished. The wait is event-driven: handlers broadcast after
// removing work, and Drain re-evaluates the emptiness condition, so it wakes as the last result arrives rather than on a poll
// tick.
func (d *Dispatcher) Drain(timeout time.Duration) bool {
	d.draining.Store(true)
	d.dmu.Lock()
	defer d.dmu.Unlock()
	timedOut := false
	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			d.dmu.Lock()
			timedOut = true
			d.dmu.Unlock()
			d.drained.Broadcast()
		})
		defer t.Stop()
	}
	for !d.empty() {
		if timedOut {
			return false
		}
		if d.closed.Load() {
			return d.empty()
		}
		d.drained.Wait()
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
	f := getFx()
	defer putFx(f)
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
	d.wakeDrain()
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
	d.finalize(f, o.Item.X, task.Result{
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
}

// assignLocked answers a pull by executor ex for asked tasks from the
// queue, recording what it grants as outstanding, and returns
// the protocol assignments. The grant is the dispatcher's half of
// dispatch-ahead: at most an even share of the queue (sched.Core.Share), and
// it stops short of the first task whose declared run time would take the
// batch past the executor's last round trip (sched.Core.PickWithin) — so an
// idle slot is never starved by a neighbour's batch and a task that says it
// is long rides alone. kind is how the assignments travel: the reply to a
// work pull, a deliver acknowledgment, or the work push itself, whose now is
// the notification's own stamp. The assignments are cut from f.grant, and are
// the caller's until f is released. Callers hold mu.
func (d *Dispatcher) assignLocked(f *fx, ex *sched.Exec[string], asked int, kind obs.EventKind, now time.Duration) []fproto.Relay {
	as, first := f.grant, len(f.grant)
	n := first + min(d.core.Share(asked), d.core.QueueLen())
	room := sched.Unbounded // the first task is granted whatever it declares
	for len(as) < n {
		it, hit, ok := d.core.PickWithin(ex, room)
		if !ok {
			break
		}
		if it.X.inst == nil || it.X.inst.destroyed.Load() {
			// Instance destroyed while queued: the task is shed here and
			// never finalizes, so retire its tenant in-flight charge now.
			d.tenants.release(taskTenant(it.X), 1, false)
			continue
		}
		if len(as) == first {
			room = ex.Ref.(*execRef).rtt
		}
		room -= it.X.t.Declared
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
// to the caller's journalCompletesLocked.
func (d *Dispatcher) finalize(f *fx, tr taskRef, r task.Result) {
	var encoded []byte
	if d.wal != nil {
		// Logged with the payload so undelivered results survive a crash
		// and are redelivered on recovery (clients dedupe by task ID). It is
		// encoded once, for the record and for its push.
		from := len(f.enc)
		f.enc = r.AppendJSON(f.enc)
		encoded = f.enc[from:len(f.enc):len(f.enc)]
		d.done = append(d.done, wal.Finalized{EPR: tr.epr, Result: encoded})
	}
	if r.Failed() {
		d.core.Counters.Failed++
		f.trace(d.now(), obs.EvFailed, r.Trace, r.ID, tr.epr, r.ExecutorID)
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
	inst.inFlight--
	if inst.notify && inst.peer != nil {
		inst.live.Remove(r.ID) // pushed: discharged, unless pushResults finds the push failed
		peer := inst.peer
		inst.mu.Unlock()
		if inst.fromParent {
			encoded = nil // pushed without the fields a parent sets
		}
		f.push(peer, inst, encoded, r)
		return
	}
	inst.buf.Add(r)
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
		f := getFx()
		d.mu.Lock()
		expired := d.core.Expire(cutoff)
		d.replayAll(f, expired, "replay timeout")
		if len(expired) > 0 {
			d.notifyLocked(f, d.now())
		}
		d.mu.Unlock()
		d.wakeDrain()
		if len(expired) > 0 {
			d.logf("dispatch: replayed %d timed-out tasks", len(expired))
		}
		d.flush(f)
		putFx(f)
	}
}
