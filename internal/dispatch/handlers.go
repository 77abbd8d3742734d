package dispatch

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/sched"
	"falkon/internal/task"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// register installs the protocol handlers on the wsrpc server. At a plain
// dispatcher every verb dispatches inline on the connection's read goroutine
// (RegisterFast): the handlers only take the scheduler mutex briefly and
// defer I/O through fx/flush, so skipping the per-call goroutine removes the
// dominant scheduling overhead on the Submit/Deliver hot path. At a root the
// five verbs that answer for the subtree keep a goroutine each: each may wait
// on a leaf, and a client's next call must not wait behind that (root.go).
func (d *Dispatcher) register() {
	subtree := d.srv.RegisterFast
	if len(d.opts.Leaves) > 0 {
		subtree = d.srv.Register
	}
	d.srv.RegisterFast(fproto.MethodCreateInstance, d.handleCreateInstance)
	subtree(fproto.MethodDestroyInstance, d.handleDestroyInstance)
	subtree(fproto.MethodSubmit, d.handleSubmit)
	d.srv.RegisterFast(fproto.MethodRegister, d.handleRegister)
	d.srv.RegisterFast(fproto.MethodDeregister, d.handleDeregister)
	d.srv.RegisterFast(fproto.MethodGetWork, d.handleGetWork)
	d.srv.RegisterFast(fproto.MethodDeliver, d.handleDeliver)
	d.srv.RegisterFast(fproto.MethodAttachParent, d.handleAttachParent)
	subtree(fproto.MethodStats, d.handleStats)
	subtree(fproto.MethodMetrics, d.handleMetrics)
	subtree(fproto.MethodEvents, d.handleEvents)
}

// decode is for the cold requests; the per-task ones (Submit, GetWork,
// Deliver) decode themselves (fproto's body codec).
func decode[T any](body json.RawMessage) (*T, error) {
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, badBody(err)
	}
	return &v, nil
}

func badBody(err error) error { return fmt.Errorf("dispatch: bad request body: %w", err) }

// internEPR is the fproto.Intern over the instance table: a request naming
// a live instance shares that instance's EPR string.
func (d *Dispatcher) internEPR(b []byte) string {
	d.imu.RLock()
	inst := d.instances[string(b)]
	d.imu.RUnlock()
	if inst == nil {
		return ""
	}
	return inst.epr
}

func (d *Dispatcher) handleCreateInstance(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	req, err := decode[fproto.CreateInstanceRequest](body)
	if err != nil {
		return nil, err
	}
	if req.EPR != "" {
		return d.reattachInstance(p, req)
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant // pre-tenancy clients land here
	}
	d.imu.Lock()
	epr := d.mintEPRLocked()
	inst := &instance{
		epr:        epr,
		name:       req.ClientName,
		peer:       p,
		tenant:     tenant,
		fromParent: d.parents.Has(p),
	}
	var h wal.Handle
	if d.wal != nil {
		// The EPR is not handed out until this returns, so the instance
		// record lands before any accept that references it.
		h, err = d.wal.AppendWait(wal.KindInstance, wal.InstanceRec{EPR: epr, Name: req.ClientName, Tenant: tenant})
	}
	if err == nil {
		d.instances[epr] = inst
	}
	d.imu.Unlock()
	if err != nil {
		return nil, unanswered(p, err)
	}
	// The EPR is handed out only once its creation record is durable:
	// anything the client does with it afterwards is journaled against an
	// instance recovery will know.
	if err := h.Wait(); err != nil {
		return nil, unanswered(p, err)
	}
	d.replicaBarrier()
	return fproto.CreateInstanceReply{EPR: epr}, nil
}

// mintEPRLocked names a new instance: 64 random bits as 16 hex digits, unique
// when minted. So an EPR resolves only where its instance's history is — this
// process, its journal, an HA standby's replay of it — and no dispatcher
// restarted without a journal, or met further along a client's chain, hands
// the name to another client. The live table is checked, so no two instances
// of one process share one. Callers hold imu for writing.
func (d *Dispatcher) mintEPRLocked() string {
	for {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano())) // uniqueness degrades; the table still holds
		}
		epr := hex.EncodeToString(b[:])
		if _, taken := d.instances[epr]; !taken {
			return epr
		}
	}
}

// reattachInstance re-binds a surviving instance (recovered from the
// journal, or orphaned by a dropped client connection) to a new peer and
// flushes any results buffered while detached.
func (d *Dispatcher) reattachInstance(p *wsrpc.Peer, req *fproto.CreateInstanceRequest) (any, error) {
	f := d.fxs.get()
	defer f.release()
	d.imu.RLock()
	inst, ok := d.instances[req.EPR]
	d.imu.RUnlock()
	if !ok || inst.destroyed.Load() {
		return nil, fmt.Errorf("dispatch: no such instance %q", req.EPR)
	}
	inst.mu.Lock()
	inst.peer = p
	if rs := inst.takeResults(); len(rs) > 0 {
		f.push(p, inst, rs...)
	}
	inst.mu.Unlock()
	d.flush(f)
	return fproto.CreateInstanceReply{EPR: req.EPR}, nil
}

func (d *Dispatcher) handleDestroyInstance(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	req, err := decode[fproto.DestroyInstanceRequest](body)
	if err != nil {
		return nil, err
	}
	d.imu.Lock()
	inst, ok := d.instances[req.EPR]
	if !ok {
		d.imu.Unlock()
		return nil, fmt.Errorf("dispatch: no such instance %q", req.EPR)
	}
	inst.destroyed.Store(true)
	delete(d.instances, req.EPR)
	d.imu.Unlock()
	f := d.fxs.get()
	defer f.release()
	d.mu.Lock()
	d.sweepLocked(f, inst)
	d.mu.Unlock()
	d.flush(f)
	var h wal.Handle
	if d.wal != nil {
		// A journal that has failed closed takes no record: the destroy is
		// not acknowledged, or a restart would bring the instance back
		// acknowledged gone.
		if h, err = d.wal.AppendWait(wal.KindDestroy, wal.DestroyRec{EPR: req.EPR}); err != nil {
			return nil, unanswered(p, err)
		}
	}
	if err := h.Wait(); err != nil {
		return nil, unanswered(p, err)
	}
	d.replicaBarrier()
	d.destroyOnLeaves(req.EPR)
	return struct{}{}, nil
}

// ofInstance is the destroy sweep's test of a task in the core.
var ofInstance = func(inst *instance) func(taskRef) bool {
	return func(tr taskRef) bool { return tr.epr == inst.epr }
}

// sweepLocked takes a destroyed instance's tasks out of the core, queued and
// outstanding; one that holds none — it owes no result but those it buffers,
// and it owes more only under mu — costs no sweep. A submit racing the destroy may still land tasks afterwards; they
// are dropped at pick time by the destroyed check, and replay tombstones them
// the same way. An executor that still answers for a swept task delivers a
// duplicate; one that never will (a child dispatcher the instance is being
// destroyed on too) is not left holding it for ever. Callers hold mu.
func (d *Dispatcher) sweepLocked(f *fx, inst *instance) {
	inst.mu.Lock()
	idle := inst.live.Len() == len(inst.buf)
	inst.mu.Unlock()
	if idle {
		return
	}
	dropped := d.core.DropQueued(ofInstance(inst))
	if shed := d.core.DropOutstanding(ofInstance(inst)); shed > 0 {
		dropped += shed
		d.notifyLocked(f, d.now()) // the slots it freed may be wanted
	}
	// Swept tasks never reach finalize; retire their tenant charge here.
	d.tenants.release(inst.tenant, dropped, false)
}

// scratchOf is what a dispatcher keeps on a connection from call to call
// (DESIGN.md §9, "Scratch"): the scratch its submits are read through.
func scratchOf(p *wsrpc.Peer) *task.Scratch {
	if s, _ := p.Scratch().(*task.Scratch); s != nil {
		return s
	}
	return new(task.Scratch)
}

func (d *Dispatcher) handleSubmit(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	s := scratchOf(p)
	var req fproto.Bundle
	err := req.DecodeInterned(body, d.internEPR, s)
	p.KeepScratch(s)
	if err != nil {
		return nil, badBody(err)
	}
	f := d.fxs.get()
	if err := d.submit(p, f, &req); err != nil {
		f.release()
		return nil, err
	}
	d.stockLeaves()
	return (*submitReply)(f), nil
}

// unanswered drops p's connection without a reply to the call being served:
// err is the journal's, which has failed, and the dispatcher is stopping
// (journalFailed). An error reply would read as a refusal of what may already
// be in place — a submit's tasks queued — so the client learns what a crash
// would tell it, and resubmits to the restarted dispatcher.
func unanswered(p *wsrpc.Peer, err error) error {
	p.Close()
	return err
}

// submit queues a bundle ({1}) from p and leaves its acknowledgment ({2}) in
// f.ack; f is the caller's to release.
func (d *Dispatcher) submit(p *wsrpc.Peer, f *fx, req *fproto.Bundle) error {
	d.imu.RLock()
	inst, ok := d.instances[req.EPR]
	d.imu.RUnlock()
	if !ok || inst.destroyed.Load() {
		return fmt.Errorf("dispatch: no such instance %q", req.EPR)
	}
	t0 := d.now()
	d.mu.Lock()
	t1 := d.now()
	// Checked under mu, which Drain takes only after raising the flag: this
	// submit is refused, or its tasks are queued by the time Drain looks.
	if d.draining.Load() {
		d.mu.Unlock()
		return fmt.Errorf("dispatch: draining, not accepting submissions")
	}
	// Admission control: the tenant's quota and rate limit are checked on
	// the whole bundle before any durable state changes. A throttled bundle
	// is NOT an error — the typed reply tells the client when to retry. A
	// tree parent's bundle was checked where its client attached, and is only
	// charged here. Duplicates discovered by the dedupe pass below are refunded.
	if retryAfter, ok := d.tenants.admit(inst.tenant, len(req.Tasks), !inst.fromParent); !ok {
		d.mu.Unlock()
		d.reg.Counter(obs.TenantKey(obs.MetricTenantThrottled, inst.tenant)).Inc()
		f.ack = fproto.SubmitReply{RetryAfterMillis: retryAfter}
		return nil
	}
	tasks, array, deduped := req.Tasks, req.Array, 0
	inst.mu.Lock()
	// Idempotent resubmission: drop each task whose result is still owed, one
	// the bundle names twice too; the rest run, the client deduping results.
	// A first submission, dropping none, is journaled and queued as decoded.
	tasks = slices.DeleteFunc(tasks, func(t task.Relayed) bool { return !inst.live.Add(t.ID) })
	if deduped = len(req.Tasks) - len(tasks); deduped > 0 {
		array = nil
	}
	inst.submitted += int64(len(tasks))
	inst.mu.Unlock()
	// Refund the deduped portion of the bundle: those tasks were charged at
	// admission but are already in flight from an earlier submission.
	d.tenants.unadmit(inst.tenant, deduped)

	now := t1 // as the lock was taken: one reading
	var h wal.Handle
	var werr error
	if len(tasks) > 0 {
		for i := range tasks {
			t := &tasks[i]
			d.core.Enqueue(now, taskRef{epr: req.EPR, t: t, inst: inst})
			f.trace(now, obs.EvEnqueued, t.Trace, t.ID, req.EPR, "")
		}
		if d.wal != nil {
			// Appended under mu, before any pick can see these tasks: the
			// accept precedes every dispatch/complete for them in the journal.
			h, werr = d.wal.AppendAccept(req.EPR, inst.tenant, tasks, array)
		}
		d.notifyLocked(f, now)
	}
	d.mu.Unlock()
	t2 := d.now()
	d.flush(f)
	t3 := d.now()
	d.hLockWait.Observe((t1 - t0).Seconds())
	d.hSchedCore.Observe((t2 - t1).Seconds())
	d.hFxFlush.Observe((t3 - t2).Seconds())
	if werr == nil {
		// Durability barrier: the acknowledgment is withheld until the accept
		// record reaches disk, so an acked task survives any crash. The group
		// committer amortizes one fsync across concurrent submits.
		werr = h.Wait()
	}
	if werr != nil {
		return unanswered(p, werr)
	}
	// Quorum barrier: under -replicate quorum the acknowledgment further
	// waits until the attached standbys have durably mirrored the record
	// (the Mirror hook streamed it before h.Wait released).
	if d.wal != nil {
		if len(tasks) > 0 {
			d.replicaBarrier()
		}
		d.hWALWait.Observe((d.now() - t3).Seconds())
	}
	f.ack = fproto.SubmitReply{Accepted: len(req.Tasks), Deduped: deduped}
	return nil
}

func (d *Dispatcher) handleRegister(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	req, err := decode[fproto.RegisterRequest](body)
	if err != nil {
		return nil, err
	}
	if req.ExecutorID == "" {
		return nil, fmt.Errorf("dispatch: empty executor id")
	}
	p.SetMeta(req.ExecutorID)
	return d.Register(*req, p), nil
}

// Register, Deregister, Stock (a wire executor's GetWork) and Deliver are the
// executor's four verbs: the wire handlers decode a request and do as they do,
// an executor inside this process calls them with the values and gets its
// pushes through its Pusher.
//
// Register adds an executor whose pushes go to to. An ID registered already is
// replaced (an executor reconnected or restarted): what the old registration
// held is replayed, as the old connection's drop would have — that drop, when
// it comes, finds the ID re-registered and does nothing, and an executor
// delivers a batch only on the connection it arrived on. From the pusher that
// holds the ID, a registration changes the slot count and nothing else.
func (d *Dispatcher) Register(req fproto.RegisterRequest, to Pusher) fproto.RegisterReply {
	f := d.fxs.get()
	defer f.release()
	d.mu.Lock()
	ex, ok := d.core.Exec(req.ExecutorID)
	var dropped []sched.Outstanding[string, outKey, taskRef]
	if ok && ex.Ref.(*execRef).peer == to {
		d.core.Resize(ex, req.Slots)
		ref := ex.Ref.(*execRef)
		ref.parked = min(ref.parked, max(ex.Free(), 0))
	} else {
		if ok {
			_, dropped = d.core.DropExecutor(req.ExecutorID)
			d.replayAll(f, dropped, fmt.Sprintf("executor %s re-registered", req.ExecutorID))
		}
		ex = d.core.AddExec(req.ExecutorID, req.Slots)
		// Its slots are not parked until they say so: what is queued now is
		// announced, never pushed ahead of the register reply.
		ex.Ref = &execRef{peer: to, grants: req.AcceptsGrants}
	}
	d.core.Offer(ex)
	d.notifyLocked(f, d.now())
	d.mu.Unlock()
	if len(dropped) > 0 {
		d.logf("dispatch: executor %s re-registered with %d tasks in flight on its old connection", req.ExecutorID, len(dropped))
	}
	d.flush(f)
	d.noteCapacityChange()
	return fproto.RegisterReply{DispatcherEpoch: d.epoch.UnixNano()}
}

func (d *Dispatcher) handleDeregister(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	req, err := decode[fproto.DeregisterRequest](body)
	if err != nil {
		return nil, err
	}
	d.Deregister(req.ExecutorID)
	return struct{}{}, nil
}

// Deregister removes an executor and applies the replay policy to what it
// held, reporting how many tasks that was.
func (d *Dispatcher) Deregister(id string) int {
	f := d.fxs.get()
	defer f.release()
	d.mu.Lock()
	_, dropped := d.core.DropExecutor(id)
	d.replayAll(f, dropped, "executor deregistered")
	d.notifyLocked(f, d.now())
	d.mu.Unlock()
	d.flush(f)
	d.noteCapacityChange()
	return len(dropped)
}

// internFrom is the fproto.Intern for an executor's requests: the ID the
// connection registered under (what every request on it names), else an
// instance's EPR.
func (d *Dispatcher) internFrom(p *wsrpc.Peer, b []byte) string {
	if exec, _ := p.Meta().(string); exec == string(b) {
		return exec
	}
	return d.internEPR(b)
}

// handleGetWork answers one work pull ({4}, {5}).
func (d *Dispatcher) handleGetWork(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.GetWorkRequest
	if err := req.DecodeInterned(body, func(b []byte) string { return d.internFrom(p, b) }); err != nil {
		return nil, badBody(err)
	}
	f := d.fxs.get()
	if err := d.stock(f, req.ExecutorID, req.Max, 1); err != nil {
		f.release()
		return nil, err
	}
	return (*grantReply)(f), nil
}

// Stock answers pull after pull of ask tasks by executor id, each as a GetWork
// is answered, under one hold of the lock, until they have granted want tasks
// or one comes back empty, and appends the grants to dst: an executor in this
// process that keeps a queue of its own stocked — a tree's link to a leaf —
// brings the slice it reuses. (A wire executor sends its asks one by one.)
func (d *Dispatcher) Stock(id string, ask, want int, dst []fproto.Relay) ([]fproto.Relay, error) {
	f := d.fxs.get()
	defer f.release()
	err := d.stock(f, id, ask, want)
	return append(dst, f.reply...), err
}

// stock is Stock into f.reply; f is the caller's to release.
func (d *Dispatcher) stock(f *fx, id string, ask, want int) error {
	d.mu.Lock()
	ex, ok := d.core.Exec(id)
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("dispatch: unregistered executor %q", id)
	}
	ex.Notified, ex.Suspect = false, false
	if ref := ex.Ref.(*execRef); ref.parked > 0 {
		ref.parked-- // a slot that pulls was waiting until now
	}
	first := len(f.grant)
	for granted := 0; granted < want; {
		n := len(d.pullLocked(f, ex, ask, obs.EvPulled))
		if granted += n; n == 0 {
			break // the queue has nothing more for it
		}
	}
	f.reply = f.grant[first:]
	d.core.Offer(ex)
	// Other executors may still be needed for the rest of the queue.
	d.notifyLocked(f, d.now())
	d.mu.Unlock()
	d.flush(f)
	return nil
}

// pullLocked answers one pull by ex — a GetWork, or the ask a Deliver
// piggy-backs (kind says which) — for asked tasks (assignLocked). A pull
// answered with nothing parks the slot that sent it: the next work push may
// carry its grant (notifyLocked). Callers hold mu.
func (d *Dispatcher) pullLocked(f *fx, ex *sched.Exec[string], asked int, kind obs.EventKind) []fproto.Relay {
	ref := ex.Ref.(*execRef)
	ref.ask = max(asked, 1)
	as := d.assignLocked(f, ex, ref.ask, kind, d.now())
	if n := len(as); n > 0 {
		d.hGrant.Observe(float64(n))
	} else if ref.parked < ex.Free() {
		ref.parked++
	}
	return as
}

func (d *Dispatcher) handleDeliver(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	f := d.fxs.get()
	err := f.req.DecodeInterned(body, func(b []byte) string { return d.internFrom(p, b) })
	if err != nil {
		err = badBody(err)
	} else {
		err = d.deliver(f, &f.req)
	}
	if err == nil {
		return (*grantReply)(f), nil
	}
	f.release()
	return nil, err
}

// Deliver takes an executor's results ({6}) and answers the work request they
// piggy-back ({7}). It keeps nothing of req. It is the in-process seam tests
// deliver through: a wire Deliver is read as a Delivery (handleDeliver), and
// req's results are encoded to be read as one.
func (d *Dispatcher) Deliver(req *fproto.DeliverRequest) ([]fproto.Relay, error) {
	f := d.fxs.get()
	defer f.release()
	f.req.From(req)
	err := d.deliver(f, &f.req)
	return append([]fproto.Relay(nil), f.reply...), err
}

// deliver is Deliver with the grant left in f.reply; f is the caller's to
// release. The results are req's, stamped where they lie.
func (d *Dispatcher) deliver(f *fx, req *fproto.Delivery) error {
	t0 := d.now()
	d.mu.Lock()
	t1 := d.now()
	ex, ok := d.core.Exec(req.ExecutorID)
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("dispatch: unregistered executor %q", req.ExecutorID)
	}
	now := t1 // as the lock was taken: one reading
	// The batch as the dispatcher timed it: sent when its first task was
	// dispatched, ran for what its results report.
	sent, ran := now, time.Duration(0)
	for i := range req.Results {
		r := &req.Results[i]
		o, ok := d.core.CompleteFrom(ex, outKey{r.EPR, r.ID})
		if !ok {
			continue // duplicate delivery, counted by the core
		}
		sent = min(sent, o.DispatchedAt)
		ran += r.RunDur
		// Rebase executor-local timing onto the dispatcher epoch: the run
		// duration is trusted, absolute stamps are not (clock skew). The
		// core clamped NotifiedAt at assignment; Stamps.Clamp enforces the
		// rest of the Figure-10 ordering, so the four stages partition
		// end-to-end latency exactly.
		st := sched.Stamps{
			Queued:     o.Item.QueuedAt,
			Notified:   o.NotifiedAt,
			Dispatched: o.DispatchedAt,
			Started:    now - r.RunDur,
			Finished:   now,
		}.Clamp()
		r.QueuedAt = st.Queued
		r.DispatchedAt = st.Dispatched
		r.StartedAt = st.Started
		r.FinishedAt = st.Finished
		r.Attempts = o.Item.Attempts
		r.RanOn(req.ExecutorID)
		r.Trace = o.Item.X.t.Trace
		d.core.NoteCompletion(ex, o.Item.X.t.Dataset())
		if r.Failed() && len(d.opts.Leaves) == 0 { // a leaf's failure is final (Options.Leaves)
			d.replay(f, &o, "task failed: "+failReason(r))
			continue
		}
		f.trace(st.Started, obs.EvStarted, r.Trace, r.ID, r.EPR, req.ExecutorID)
		f.trace(st.Finished, obs.EvFinished, r.Trace, r.ID, r.EPR, req.ExecutorID)
		f.trace(now, obs.EvDelivered, r.Trace, r.ID, r.EPR, req.ExecutorID)
		var tenant string
		if d.tenants != nil {
			tenant = taskTenant(o.Item.X) // labels per-tenant histograms in flush
		}
		f.stamps = append(f.stamps, stampRec{st: st, tenant: tenant})
		d.finalize(f, o.Item.X, r)
	}
	d.journalCompletesLocked() // one record for the delivery, ahead of the grant it asks for
	ex.Notified, ex.Suspect = false, false
	ex.Ref.(*execRef).rtt = max(now-sent-ran, 0)
	if req.WantWork {
		f.reply = d.pullLocked(f, ex, req.MaxNew, obs.EvAcked)
	}
	d.core.Offer(ex)
	d.notifyLocked(f, now)
	snap := d.snapshotDueLocked()
	d.mu.Unlock()
	t2 := d.now()
	if snap {
		d.startSnapshot()
	}
	d.flush(f)
	t3 := d.now()
	d.hLockWait.Observe((t1 - t0).Seconds())
	d.hSchedCore.Observe((t2 - t1).Seconds())
	d.hFxFlush.Observe((t3 - t2).Seconds())
	return nil
}

// failReason summarizes a failed result for logs, read from its bytes.
func failReason(r *task.RelayedResult) string {
	code, err, _ := r.Failure()
	if err != "" {
		return err
	}
	return fmt.Sprintf("exit code %d", code)
}

func (d *Dispatcher) handleStats(_ *wsrpc.Peer, _ json.RawMessage) (any, error) {
	return d.Stats(), nil
}

func (d *Dispatcher) handleMetrics(_ *wsrpc.Peer, _ json.RawMessage) (any, error) {
	return d.MetricsSnapshot(), nil
}

// handleEvents answers with the trace ring, or at a root with its leaves'
// (leafEvents), where a task's executor-side story is.
func (d *Dispatcher) handleEvents(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	req, err := decode[fproto.EventsRequest](body)
	if err != nil {
		return nil, err
	} else if len(d.links) > 0 {
		return d.leafEvents(*req), nil
	}
	events, next := d.tracer.Since(req.SinceSeq, req.Max)
	return fproto.EventsReply{Events: events, NextSeq: next}, nil
}
