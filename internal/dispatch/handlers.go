package dispatch

import (
	"encoding/json"
	"fmt"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/sched"
	"falkon/internal/task"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// register installs the protocol handlers on the wsrpc server. Everything
// except Collect dispatches inline on the connection's read goroutine
// (RegisterFast): the handlers only take the scheduler mutex briefly and
// defer I/O through fx/flush, so skipping the per-call goroutine removes the
// dominant scheduling overhead on the Submit/Deliver hot path. Collect
// long-polls and must keep its own goroutine.
func (d *Dispatcher) register() {
	d.srv.RegisterFast(fproto.MethodCreateInstance, d.handleCreateInstance)
	d.srv.RegisterFast(fproto.MethodDestroyInstance, d.handleDestroyInstance)
	d.srv.RegisterFast(fproto.MethodSubmit, d.handleSubmit)
	d.srv.Register(fproto.MethodCollect, d.handleCollect)
	d.srv.RegisterFast(fproto.MethodRegister, d.handleRegister)
	d.srv.RegisterFast(fproto.MethodDeregister, d.handleDeregister)
	d.srv.RegisterFast(fproto.MethodGetWork, d.handleGetWork)
	d.srv.RegisterFast(fproto.MethodDeliver, d.handleDeliver)
	d.srv.RegisterFast(fproto.MethodAttachParent, d.handleAttachParent)
	d.srv.RegisterFast(fproto.MethodStats, d.handleStats)
	d.srv.RegisterFast(fproto.MethodMetrics, d.handleMetrics)
	d.srv.RegisterFast(fproto.MethodEvents, d.handleEvents)
}

// Override replaces one protocol handler before Listen and returns the one it
// replaced: a tree root (internal/forward) is this dispatcher with some verbs
// answered for the whole subtree.
func (d *Dispatcher) Override(method string, h wsrpc.Handler) wsrpc.Handler {
	return d.srv.Override(method, h)
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
	d.nextEPR++
	epr := fmt.Sprintf("falkon-instance-%d", d.nextEPR)
	inst := &instance{
		epr:        epr,
		name:       req.ClientName,
		peer:       p,
		notify:     req.WantNotifications,
		tenant:     tenant,
		fromParent: d.parents.Has(p),
	}
	var h wal.Handle
	if d.wal != nil {
		inst.live = make(map[task.ID]struct{})
		// The EPR is not handed out until this returns, so the instance
		// record lands before any accept that references it.
		h, err = d.wal.AppendWait(wal.KindInstance, wal.InstanceRec{EPR: epr, Name: req.ClientName, Notify: req.WantNotifications, Tenant: tenant})
	}
	if err == nil {
		d.instances[epr] = inst
	}
	d.imu.Unlock()
	if err != nil {
		return nil, err
	}
	// The EPR is handed out only once its creation record is durable:
	// anything the client does with it afterwards is journaled against an
	// instance recovery will know.
	if err := h.Wait(); err != nil {
		return nil, err
	}
	d.replicaBarrier()
	return fproto.CreateInstanceReply{EPR: epr, Cluster: d.opts.ClusterID}, nil
}

// reattachInstance re-binds a surviving instance (recovered from the
// journal, or orphaned by a dropped client connection) to a new peer and
// flushes any results buffered while detached.
func (d *Dispatcher) reattachInstance(p *wsrpc.Peer, req *fproto.CreateInstanceRequest) (any, error) {
	if req.Cluster != "" && req.Cluster != d.opts.ClusterID {
		// A cluster-scoped reattach against the wrong cluster must fail even
		// if an EPR happens to collide: this dispatcher's journal never held
		// the instance's history. The client falls back to a fresh create.
		return nil, fmt.Errorf("dispatch: instance %q belongs to cluster %q, this dispatcher serves %q",
			req.EPR, req.Cluster, d.opts.ClusterID)
	}
	f := getFx()
	defer putFx(f)
	d.imu.RLock()
	inst, ok := d.instances[req.EPR]
	d.imu.RUnlock()
	if !ok || inst.destroyed.Load() {
		return nil, fmt.Errorf("dispatch: no such instance %q", req.EPR)
	}
	inst.mu.Lock()
	inst.peer = p
	inst.notify = req.WantNotifications
	if inst.notify {
		if rs := inst.takeResults(0); len(rs) > 0 {
			f.push(p, inst, rs...)
		}
	}
	inst.mu.Unlock()
	d.flush(f)
	return fproto.CreateInstanceReply{EPR: req.EPR, Recovered: true, Cluster: d.opts.ClusterID}, nil
}

func (d *Dispatcher) handleDestroyInstance(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
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
	// Sweep the instance's tasks out of the core, queued and outstanding. A
	// submit racing the destroy may still land tasks afterwards; they are
	// dropped at pick time by the destroyed check, and replay tombstones them
	// the same way. An executor that still answers for a swept task delivers a
	// duplicate; one that never will (a child dispatcher the instance is being
	// destroyed on too) is not left holding it for ever.
	ofInst := func(tr taskRef) bool { return tr.epr == req.EPR }
	f := getFx()
	defer putFx(f)
	d.mu.Lock()
	dropped := d.core.DropQueued(ofInst)
	if shed := d.core.DropOutstanding(ofInst); shed > 0 {
		dropped += shed
		d.notifyLocked(f, d.now()) // the slots it freed may be wanted
	}
	// Swept tasks never reach finalize; retire their tenant charge here.
	d.tenants.release(inst.tenant, dropped, false)
	d.mu.Unlock()
	d.flush(f)
	d.wakeDrain()
	var h wal.Handle
	if d.wal != nil {
		// A journal that has failed closed takes no record: the destroy is
		// refused, or a restart would bring the instance back acknowledged gone.
		if h, err = d.wal.AppendWait(wal.KindDestroy, wal.DestroyRec{EPR: req.EPR}); err != nil {
			return nil, err
		}
	}
	if err := h.Wait(); err != nil {
		return nil, err
	}
	d.replicaBarrier()
	return struct{}{}, nil
}

func (d *Dispatcher) handleSubmit(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.Bundle
	if err := req.DecodeInterned(body, d.internEPR); err != nil {
		return nil, badBody(err)
	}
	f := getFx()
	if err := d.submit(f, &req); err != nil {
		putFx(f)
		return nil, err
	}
	return (*submitReply)(f), nil
}

// submit queues a bundle ({1}) and leaves its acknowledgment ({2}) in f.ack; f
// is the caller's to release.
func (d *Dispatcher) submit(f *fx, req *fproto.Bundle) error {
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
	tasks, deduped := req.Tasks, 0
	inst.mu.Lock()
	if inst.live != nil {
		// Idempotent resubmission: drop tasks whose delivery is still owed
		// (queued, running, or buffered) — their results are coming. Tasks
		// no longer live re-run; the client dedupes duplicate deliveries.
		// The bundle is copied only when it holds one: a first submission,
		// the usual case, is journaled and queued from the decoded request.
		for i := range tasks {
			if _, dup := inst.live[tasks[i].ID]; dup {
				deduped++
			}
		}
		if deduped > 0 {
			fresh := make([]task.Relayed, 0, len(tasks)-deduped)
			for i := range tasks {
				if _, dup := inst.live[tasks[i].ID]; !dup {
					fresh = append(fresh, tasks[i])
				}
			}
			tasks = fresh
		}
		for i := range tasks {
			inst.live[tasks[i].ID] = struct{}{}
		}
	}
	inst.submitted += int64(len(tasks))
	inst.inFlight += len(tasks)
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
			h, werr = d.wal.AppendAccept(req.EPR, inst.tenant, tasks)
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
	if werr != nil {
		return werr
	}
	// Durability barrier: the acknowledgment is withheld until the accept
	// record reaches disk, so an acked task survives any crash. The group
	// committer amortizes one fsync across concurrent submits.
	if err := h.Wait(); err != nil {
		return err
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

func (d *Dispatcher) handleCollect(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	req, err := decode[fproto.CollectRequest](body)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(req.WaitMillis) * time.Millisecond)
	for {
		d.imu.RLock()
		inst, ok := d.instances[req.EPR]
		d.imu.RUnlock()
		if !ok || inst.destroyed.Load() {
			return nil, fmt.Errorf("dispatch: no such instance %q", req.EPR)
		}
		inst.mu.Lock()
		results := inst.takeResults(req.Max)
		pendingN := inst.inFlight
		if len(results) > 0 || req.WaitMillis <= 0 || !time.Now().Before(deadline) {
			inst.mu.Unlock()
			return fproto.CollectReply{Results: results, Pending: pendingN}, nil
		}
		// Block until results arrive or the deadline passes.
		w := inst.buf.Wait()
		inst.mu.Unlock()
		select {
		case <-w:
		case <-time.After(time.Until(deadline)):
		}
	}
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
// replaced (an executor restarted; the core keeps its outstanding entries so
// late results still resolve) — unless the pusher that holds the ID sends the
// registration: then it changes the slot count and nothing else.
func (d *Dispatcher) Register(req fproto.RegisterRequest, to Pusher) fproto.RegisterReply {
	f := getFx()
	defer putFx(f)
	d.mu.Lock()
	ex, ok := d.core.Exec(req.ExecutorID)
	if ok && ex.Ref.(*execRef).peer == to {
		d.core.Resize(ex, req.Slots)
		ref := ex.Ref.(*execRef)
		ref.parked = min(ref.parked, max(ex.Free(), 0))
	} else {
		ex = d.core.AddExec(req.ExecutorID, req.Slots)
		// Its slots are not parked until they say so: what is queued now is
		// announced, never pushed ahead of the register reply.
		ex.Ref = &execRef{peer: to, allocation: req.Allocation, grants: req.AcceptsGrants}
	}
	d.core.Offer(ex)
	d.notifyLocked(f, d.now())
	d.mu.Unlock()
	d.flush(f)
	d.noteCapacityChange()
	return fproto.RegisterReply{OK: true, DispatcherEpoch: d.epoch.UnixNano()}
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
	f := getFx()
	defer putFx(f)
	d.mu.Lock()
	_, dropped := d.core.DropExecutor(id)
	d.replayAll(f, dropped, "executor deregistered")
	d.notifyLocked(f, d.now())
	d.mu.Unlock()
	d.wakeDrain()
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
	f := getFx()
	if err := d.stock(f, req.ExecutorID, req.Max, 1); err != nil {
		putFx(f)
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
	f := getFx()
	defer putFx(f)
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
	f := getFx()
	err := f.req.DecodeInterned(body, func(b []byte) string { return d.internFrom(p, b) })
	if err != nil {
		err = badBody(err)
	} else if err = d.deliver(f, &f.req); err == nil {
		return (*grantReply)(f), nil
	}
	putFx(f)
	return nil, err
}

// Deliver takes an executor's results ({6}) and answers the work request they
// piggy-back ({7}). It keeps nothing of req.
func (d *Dispatcher) Deliver(req *fproto.DeliverRequest) ([]fproto.Relay, error) {
	f := getFx()
	defer putFx(f)
	err := d.deliver(f, req)
	return append([]fproto.Relay(nil), f.reply...), err
}

// deliver is Deliver with the grant left in f.reply; f is the caller's to release.
func (d *Dispatcher) deliver(f *fx, req *fproto.DeliverRequest) error {
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
		tr := &req.Results[i]
		o, ok := d.core.Complete(req.ExecutorID, outKey{tr.EPR, tr.Result.ID})
		if !ok {
			continue // duplicate delivery, counted by the core
		}
		sent = min(sent, o.DispatchedAt)
		ran += tr.RunDur
		r := tr.Result
		// Rebase executor-local timing onto the dispatcher epoch: the run
		// duration is trusted, absolute stamps are not (clock skew). The
		// core clamped NotifiedAt at assignment; Stamps.Clamp enforces the
		// rest of the Figure-10 ordering, so the four stages partition
		// end-to-end latency exactly.
		st := sched.Stamps{
			Queued:     o.Item.QueuedAt,
			Notified:   o.NotifiedAt,
			Dispatched: o.DispatchedAt,
			Started:    now - tr.RunDur,
			Finished:   now,
		}.Clamp()
		r.QueuedAt = st.Queued
		r.DispatchedAt = st.Dispatched
		r.StartedAt = st.Started
		r.FinishedAt = st.Finished
		r.Attempts = o.Item.Attempts
		if r.ExecutorID == "" {
			// Otherwise the result says who ran it: below a tree's interior
			// node that is an executor of a leaf, not the link that delivers.
			r.ExecutorID = req.ExecutorID
		}
		r.Trace = o.Item.X.t.Trace
		d.core.NoteCompletion(ex, o.Item.X.t.Dataset)
		if r.Failed() && !d.opts.NoRetryOnFailure {
			d.replay(f, &o, "task failed: "+failReason(r))
			continue
		}
		f.trace(st.Started, obs.EvStarted, r.Trace, r.ID, tr.EPR, req.ExecutorID)
		f.trace(st.Finished, obs.EvFinished, r.Trace, r.ID, tr.EPR, req.ExecutorID)
		f.trace(now, obs.EvDelivered, r.Trace, r.ID, tr.EPR, req.ExecutorID)
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
	d.wakeDrain()
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

// failReason summarizes a failed result for logs.
func failReason(r task.Result) string {
	if r.Err != "" {
		return r.Err
	}
	return fmt.Sprintf("exit code %d", r.ExitCode)
}

func (d *Dispatcher) handleStats(_ *wsrpc.Peer, _ json.RawMessage) (any, error) {
	return d.Stats(), nil
}

func (d *Dispatcher) handleMetrics(_ *wsrpc.Peer, _ json.RawMessage) (any, error) {
	return d.MetricsSnapshot(), nil
}

func (d *Dispatcher) handleEvents(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	req, err := decode[fproto.EventsRequest](body)
	if err != nil {
		return nil, err
	}
	events, next := d.tracer.Since(req.SinceSeq, req.Max)
	return fproto.EventsReply{Events: events, NextSeq: next}, nil
}
