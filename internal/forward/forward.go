// Package forward implements the root of Falkon's hierarchical dispatch
// tree (paper §6, Figure 16; scaled out in "Towards Loosely-Coupled
// Programming on Petascale Systems"). Clients talk to the root exactly as
// they would to a flat dispatcher; the root owns the instance space and
// ships work downstream to leaf dispatchers in task bundles, amortizing the
// per-task envelope cost the same way client-side bundling does. Each leaf
// runs the full scheduling core against its own executor pool and reports
// capacity upward — queue depth, outstanding tasks, idle slots — so the
// root routes every bundle to the leaf with the most headroom rather than
// round-robin. Results aggregate back through the root, which buffers them
// per instance and replays any work a dead leaf still owed.
//
// Leaves are ordinary dispatchers, and a leaf can itself be another
// forwarder, giving trees deeper than two levels.
package forward

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// rootName identifies this root to its leaves (attach-parent, downstream
// instance names).
const rootName = "falkon-forwarder"

// routeTimeout bounds how long a submit blocks waiting for any leaf to be
// routable before failing upstream; routeRetry paces attempts after a leaf
// refused or dropped a bundle (long enough for the leaf's session to have
// marked a dead leaf unroutable).
const (
	routeTimeout = 30 * time.Second
	routeRetry   = 50 * time.Millisecond
)

// Options configures a Forwarder.
type Options struct {
	// Dispatchers lists downstream leaf addresses (at least one). Every
	// leaf must be reachable at New; afterwards each is redialed
	// independently with backoff.
	Dispatchers []string
	// Security and PSK apply to both the upstream listener and the
	// downstream connections (the paper's deployments use one site-wide
	// security configuration).
	Security wsrpc.SecurityProfile
	PSK      []byte
	// Bundle is the root→leaf bundle size: submissions are re-chunked into
	// bundles of this many tasks before routing (default 64).
	Bundle int
	// Backoff shapes leaf redial pacing (zero value = backoff.Default).
	Backoff backoff.Policy
	// Logf receives forwarder logs; nil silences them.
	Logf func(format string, args ...any)
	// Metrics receives the forwarder's own wsrpc instruments (upstream
	// server + downstream client views). When nil a private registry is
	// created (see Forwarder.Metrics).
	Metrics *obs.Registry
}

// realKey disambiguates downstream EPRs: every leaf numbers its instances
// independently, so the same EPR string can exist on several.
type realKey struct {
	down int
	epr  string
}

// Forwarder is the dispatch-tree root. Create with New, then Listen.
type Forwarder struct {
	opts Options
	srv  *wsrpc.Server
	reg  *obs.Registry
	stop chan struct{}
	wg   sync.WaitGroup

	// mu guards the leaf table and instance maps. Lock order: mu →
	// finst.mu; neither is held across a downstream call or a leaf
	// session's Close.
	mu       sync.Mutex
	leaves   []*leaf
	rr       int                // round-robin cursor for score ties
	byFwd    map[string]*finst  // root EPR → instance
	byReal   map[realKey]*finst // (leaf, downstream EPR) → instance
	nextEPR  int64
	closed   bool
	routable *sync.Cond // signaled when a leaf comes up

	// parents are upstream roots that attached to this forwarder as their
	// leaf (a tree deeper than two levels).
	parents wsrpc.PeerSet
	capSeq  uint64
	epoch   int64 // boot time: orders this incarnation's hints after a dead one's
}

// New connects to every leaf dispatcher, attaches as their tree parent, and
// returns an unstarted forwarder.
func New(opts Options) (*Forwarder, error) {
	if len(opts.Dispatchers) == 0 {
		return nil, fmt.Errorf("forward: no dispatchers configured")
	}
	f := &Forwarder{
		opts:   opts,
		reg:    opts.Metrics,
		stop:   make(chan struct{}),
		byFwd:  make(map[string]*finst),
		byReal: make(map[realKey]*finst),
		epoch:  time.Now().UnixNano(),
	}
	if f.reg == nil {
		f.reg = obs.NewRegistry()
	}
	if f.opts.Bundle <= 0 {
		f.opts.Bundle = 64
	}
	f.routable = sync.NewCond(&f.mu)
	// Every leaf and its session exist before any leaf is dialed:
	// attach-parent makes a leaf start pushing capacity notifies
	// immediately, and the notify handler indexes f.leaves.
	for i, addr := range opts.Dispatchers {
		l := &leaf{idx: i, addr: addr}
		l.sess = f.newLeafSession(l)
		f.leaves = append(f.leaves, l)
	}
	for _, l := range f.leaves {
		if err := l.sess.Open(); err != nil {
			f.closeLeaves()
			return nil, fmt.Errorf("forward: dial dispatcher %s: %w", l.addr, err)
		}
		f.mu.Lock()
		l.up = true
		f.mu.Unlock()
	}
	f.wg.Add(1)
	go f.rescueStarvedLeaves()
	f.srv = wsrpc.NewServer(wsrpc.ServerOptions{Security: opts.Security, PSK: opts.PSK, Logf: opts.Logf, Metrics: f.reg})
	f.register()
	f.srv.OnDisconnect(f.onUpstreamDisconnect)
	return f, nil
}

// Listen binds the upstream listener.
func (f *Forwarder) Listen(addr string) error { return f.srv.Listen(addr) }

// Addr returns the upstream address.
func (f *Forwarder) Addr() string { return f.srv.Addr() }

func (f *Forwarder) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// Close tears down both sides.
func (f *Forwarder) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.stop)
	f.routable.Broadcast()
	f.mu.Unlock()
	err := f.srv.Close()
	f.closeLeaves()
	f.wg.Wait()
	return err
}

// closeLeaves ends every leaf session. It runs without f.mu: a session's
// Close waits for its read loop and hooks, which take f.mu.
func (f *Forwarder) closeLeaves() {
	for _, l := range f.leaves {
		l.sess.Close()
	}
}

// register installs the client-facing protocol handlers.
func (f *Forwarder) register() {
	f.srv.Register(fproto.MethodCreateInstance, f.handleCreateInstance)
	f.srv.Register(fproto.MethodDestroyInstance, f.handleDestroyInstance)
	f.srv.Register(fproto.MethodSubmit, f.handleSubmit)
	f.srv.Register(fproto.MethodCollect, f.handleCollect)
	f.srv.Register(fproto.MethodStats, func(*wsrpc.Peer, json.RawMessage) (any, error) { return f.Stats(), nil })
	f.srv.Register(fproto.MethodMetrics, func(*wsrpc.Peer, json.RawMessage) (any, error) { return f.MergedMetricsSnapshot(), nil })
	f.srv.Register(fproto.MethodEvents, f.handleEvents)
	f.srv.Register(fproto.MethodAttachParent, f.handleAttachParent)
}

// Metrics returns the forwarder's own instrument registry (its wsrpc
// traffic on both sides; leaf metrics are fetched and merged per request).
func (f *Forwarder) Metrics() *obs.Registry { return f.reg }

// onUpstreamDisconnect detaches instances bound to a dropped client
// connection so their results buffer for redelivery on reattach.
func (f *Forwarder) onUpstreamDisconnect(p *wsrpc.Peer) {
	f.parents.Drop(p)
	for _, inst := range f.instances() {
		inst.mu.Lock()
		if inst.peer == upstreamPeer(p) {
			inst.peer = nil
		}
		inst.mu.Unlock()
	}
}

// instances snapshots the live root instances.
func (f *Forwarder) instances() []*finst {
	f.mu.Lock()
	defer f.mu.Unlock()
	insts := make([]*finst, 0, len(f.byFwd))
	for _, inst := range f.byFwd {
		insts = append(insts, inst)
	}
	return insts
}

// lookup resolves a root EPR.
func (f *Forwarder) lookup(fwdEPR string) (*finst, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	inst := f.byFwd[fwdEPR]
	if inst == nil {
		return nil, fmt.Errorf("forward: no such instance %q", fwdEPR)
	}
	return inst, nil
}

// internEPR is the fproto.Intern over the root instance table.
func (f *Forwarder) internEPR(b []byte) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if inst := f.byFwd[string(b)]; inst != nil {
		return inst.epr
	}
	return ""
}

func (f *Forwarder) handleCreateInstance(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.CreateInstanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.EPR != "" {
		return f.reattachInstance(p, &req)
	}
	inst := newFinst("", len(f.leaves))
	inst.tenant = req.Tenant
	if req.WantNotifications {
		inst.peer = p
		inst.notify = true
	}
	f.mu.Lock()
	f.nextEPR++
	inst.epr = fmt.Sprintf("fwd-%d", f.nextEPR)
	f.byFwd[inst.epr] = inst
	f.mu.Unlock()
	// Downstream instances are created lazily, on the first bundle routed
	// to each leaf — an instance that never submits costs the leaves
	// nothing, and creation is retried wherever routing lands.
	return fproto.CreateInstanceReply{EPR: inst.epr}, nil
}

// reattachInstance re-binds a root instance to a reconnecting client and
// flushes results buffered while it was detached.
func (f *Forwarder) reattachInstance(p *wsrpc.Peer, req *fproto.CreateInstanceRequest) (any, error) {
	inst, err := f.lookup(req.EPR)
	if err != nil {
		return nil, err
	}
	inst.mu.Lock()
	inst.peer = p
	inst.notify = req.WantNotifications
	var flush []task.Result
	if inst.notify {
		flush = inst.buf.Take(0)
	}
	inst.mu.Unlock()
	inst.deliver(flush)
	return fproto.CreateInstanceReply{EPR: req.EPR, Recovered: true}, nil
}

func (f *Forwarder) handleDestroyInstance(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.DestroyInstanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	inst, err := f.lookup(req.EPR)
	if err != nil {
		return nil, err
	}
	inst.destroyed.Store(true)
	inst.mu.Lock()
	eprs := append([]string(nil), inst.downEPR...)
	inst.mu.Unlock()
	f.mu.Lock()
	delete(f.byFwd, inst.epr)
	for i, epr := range eprs {
		delete(f.byReal, realKey{i, epr})
	}
	f.mu.Unlock()
	for i, epr := range eprs {
		if epr == "" {
			continue
		}
		// On a leaf that is down the call fails at once; its handshake
		// drops whatever this root left there when it returns.
		cli, _, err := f.leaves[i].sess.Conn()
		if err == nil {
			var out struct{}
			err = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: epr}, &out)
		}
		if err != nil {
			f.logf("forward: destroy downstream %s: %v", epr, err)
		}
	}
	return struct{}{}, nil
}

func (f *Forwarder) handleSubmit(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.SubmitRequest
	if err := req.DecodeInterned(body, f.internEPR); err != nil {
		return nil, err
	}
	inst, err := f.lookup(req.EPR)
	if err != nil {
		return nil, err
	}
	// Idempotent resubmission, mirroring the dispatcher's instance
	// semantics: tasks whose delivery is still owed are dropped (their
	// results are coming); tasks already delivered re-enter pending and
	// re-run. A first submission, the usual case, is routed as decoded.
	inst.mu.Lock()
	fresh := inst.whereOwed(req.Tasks, false)
	inst.mu.Unlock()
	deduped := len(req.Tasks) - len(fresh)
	// Re-chunk into root→leaf bundles: an upstream mega-bundle spreads
	// across leaves, while per-bundle envelope cost stays amortized.
	for start := 0; start < len(fresh); start += f.opts.Bundle {
		end := min(start+f.opts.Bundle, len(fresh))
		chunk := fresh[start:end]
		if err := f.routeBundle(inst, chunk, chunk[0].Trace, -1); err != nil {
			return nil, err
		}
	}
	return fproto.SubmitReply{Accepted: len(req.Tasks), Deduped: deduped}, nil
}

// ensureDown returns inst's EPR on leaf idx, creating the downstream
// instance on cli if this is the first bundle routed there. Creations for
// one instance serialize on createMu, so concurrent submits cannot create
// two downstream instances on the same leaf.
func (f *Forwarder) ensureDown(inst *finst, idx int, cli *wsrpc.Client) (string, error) {
	if epr := inst.downOn(idx); epr != "" {
		return epr, nil
	}
	inst.createMu.Lock()
	defer inst.createMu.Unlock()
	if epr := inst.downOn(idx); epr != "" {
		return epr, nil
	}
	var rep fproto.CreateInstanceReply
	// The root always subscribes to notifications: results stream upward
	// as they finish, whether the client polls or pushes.
	err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{
		ClientName:        rootName + "/" + inst.epr,
		WantNotifications: true,
		Tenant:            inst.tenant,
	}, &rep)
	if err != nil {
		return "", err
	}
	inst.mu.Lock()
	inst.downEPR[idx] = rep.EPR
	inst.mu.Unlock()
	f.mu.Lock()
	f.byReal[realKey{idx, rep.EPR}] = inst
	f.mu.Unlock()
	return rep.EPR, nil
}

// routeBundle ships one bundle to the healthiest leaf, retrying across
// leaves on failure. The bundle's tasks are recorded pending (with their
// target leaf) before the downstream call, so a leaf dying mid-submit can
// never lose them — redistribute replays whatever the dead leaf owed.
// avoid is the leaf the bundle was last routed to (-1 = none yet); the first
// pick is biased away from it. A bundle that has been routed before is a
// replay, and of a replay only what is still pending is pinned and sent: a
// task whose result arrived while the bundle waited for a leaf — a leaf going
// down and coming up each replay the same set — owes nothing, and pinning it
// again would deliver its second copy's result too.
func (f *Forwarder) routeBundle(inst *finst, tasks []task.Task, trace uint64, avoid int) error {
	deadline := time.Now().Add(routeTimeout)
	var lastErr error
	for {
		if inst.destroyed.Load() {
			return fmt.Errorf("forward: instance %q destroyed", inst.epr)
		}
		f.mu.Lock()
		l, err := f.pickLeaf(avoid, deadline)
		if err != nil {
			f.mu.Unlock()
			if lastErr != nil {
				return fmt.Errorf("%w (last leaf error: %v)", err, lastErr)
			}
			return err
		}
		idx := l.idx
		charged := len(tasks)
		l.inflight += charged
		f.mu.Unlock()

		inst.mu.Lock()
		if avoid >= 0 {
			tasks = inst.whereOwed(tasks, true)
		}
		for i := range tasks {
			inst.pending[tasks[i].ID] = pentry{t: &tasks[i], leaf: idx}
		}
		inst.mu.Unlock()
		if len(tasks) < charged {
			f.mu.Lock()
			l.inflight -= charged - len(tasks)
			f.mu.Unlock()
			if len(tasks) == 0 {
				return nil
			}
		}

		var epr string
		var cli *wsrpc.Client
		if cli, _, err = l.sess.Conn(); err == nil {
			epr, err = f.ensureDown(inst, idx, cli)
		}
		wait := routeRetry
		if err == nil {
			var rep fproto.SubmitReply
			// The bundle head's trace rides the downstream envelope, keeping
			// the forwarded hop attributable across the EPR rewrite.
			err = cli.CallTrace(fproto.MethodSubmit, fproto.SubmitRequest{EPR: epr, Tasks: tasks}, &rep, trace, 0)
			var remote *wsrpc.RemoteError
			switch {
			case err == nil && rep.RetryAfterMillis > 0:
				// The leaf's admission control deferred the bundle (the
				// instance's tenant is over quota or rate there). Honor the
				// hint the way a direct client would: back off, then route
				// again — possibly to a leaf with headroom. The wait is
				// backpressure, not failure, so it extends the routing
				// deadline instead of consuming it.
				wait = time.Duration(rep.RetryAfterMillis) * time.Millisecond
				deadline = deadline.Add(wait)
			case err == nil:
				f.mu.Lock()
				l.bundles++
				l.tasks += int64(len(tasks))
				if rep.Capacity != nil {
					l.absorbHint(*rep.Capacity)
				}
				f.mu.Unlock()
				f.pushCapacity()
				return nil
			case errors.As(err, &remote):
				// The downstream instance evaporated (leaf restarted without
				// its state): drop the stale mapping and recreate on retry.
				f.mu.Lock()
				delete(f.byReal, realKey{idx, epr})
				f.mu.Unlock()
				inst.mu.Lock()
				if inst.downEPR[idx] == epr {
					inst.downEPR[idx] = ""
				}
				inst.mu.Unlock()
			}
		}
		f.mu.Lock()
		l.inflight -= len(tasks)
		f.mu.Unlock()
		if err != nil {
			lastErr, avoid = err, idx
			if !time.Now().Before(deadline) {
				f.failBundle(inst, tasks, idx)
				return fmt.Errorf("forward: route bundle: %w", lastErr)
			}
		}
		select {
		case <-f.stop:
			f.failBundle(inst, tasks, idx)
			return fmt.Errorf("forward: closed")
		case <-time.After(wait):
		}
	}
}

// failBundle withdraws a bundle the root is about to report failed
// upstream: entries still pointing at the failed attempt leave the pending
// set so an abandoned submit doesn't execute behind the caller's back.
func (f *Forwarder) failBundle(inst *finst, tasks []task.Task, leafIdx int) {
	inst.mu.Lock()
	for _, t := range tasks {
		if pe, ok := inst.pending[t.ID]; ok && pe.leaf == leafIdx {
			delete(inst.pending, t.ID)
		}
	}
	inst.mu.Unlock()
}

// onLeafResults resolves results arriving from leaf idx: pending entries
// clear, duplicates (a replay racing the original) drop, and survivors
// either push straight upstream or buffer for Collect.
func (f *Forwarder) onLeafResults(idx int, realEPR string, results []task.Result) {
	f.mu.Lock()
	inst := f.byReal[realKey{idx, realEPR}]
	if inst != nil {
		f.leaves[idx].results += int64(len(results))
	}
	f.mu.Unlock()
	if inst == nil || inst.destroyed.Load() {
		return
	}
	// Filtered in place: the decoded results are this call's own.
	deliver := results[:0]
	inst.mu.Lock()
	for _, r := range results {
		// A result is deliverable iff its task is still owed: the second
		// result of a replayed task finds pending already cleared.
		if _, owed := inst.pending[r.ID]; !owed {
			inst.dupDrops++
			continue
		}
		delete(inst.pending, r.ID)
		deliver = append(deliver, r)
	}
	inst.mu.Unlock()
	inst.deliver(deliver)
}

func (f *Forwarder) handleCollect(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.CollectRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(req.WaitMillis) * time.Millisecond)
	for {
		inst, err := f.lookup(req.EPR)
		if err != nil || inst.destroyed.Load() {
			return nil, fmt.Errorf("forward: no such instance %q", req.EPR)
		}
		inst.mu.Lock()
		results := inst.buf.Take(req.Max)
		pendingN := len(inst.pending)
		if len(results) > 0 || req.WaitMillis <= 0 || !time.Now().Before(deadline) {
			inst.mu.Unlock()
			return fproto.CollectReply{Results: results, Pending: pendingN}, nil
		}
		w := inst.buf.Wait()
		inst.mu.Unlock()
		select {
		case <-w:
		case <-time.After(time.Until(deadline)):
		}
	}
}

// Stats snapshots the tree from the root: aggregate totals, the tree
// depth, and one row per leaf. A dead leaf contributes its routing counters
// but no downstream numbers.
func (f *Forwarder) Stats() fproto.StatsReply {
	f.mu.Lock()
	rows := make([]fproto.LeafStats, len(f.leaves))
	for i, l := range f.leaves {
		rows[i] = fproto.LeafStats{
			Leaf:       l.addr,
			Up:         l.up,
			Bundles:    l.bundles,
			Tasks:      l.tasks,
			Results:    l.results,
			Reroutes:   l.reroutes,
			Reconnects: l.reconnects,
		}
	}
	f.mu.Unlock()
	insts := f.instances()
	for _, inst := range insts {
		inst.mu.Lock()
		for _, pe := range inst.pending {
			if pe.leaf >= 0 && pe.leaf < len(rows) {
				rows[pe.leaf].Pending++
			}
		}
		inst.mu.Unlock()
	}
	var agg fproto.StatsReply
	for i := range rows {
		row := &rows[i]
		var st fproto.StatsReply
		if row.Up {
			cli, _, err := f.leaves[i].sess.Conn()
			if err == nil {
				err = cli.Call(fproto.MethodStats, nil, &st)
			}
			row.Up = err == nil
			row.Queued = st.Queued
			row.Outstanding = st.Outstanding
			row.Executors = st.TotalExecutors
			row.Busy = st.BusyExecutors
		}
		// The direct child's row first, then (in Merge) the rows a forwarder
		// child reports for its own leaves: falkon-top's per-leaf panel and
		// the chaos harness's healed check need the true leaves at any depth.
		agg.Leaves = append(agg.Leaves, *row)
		agg.Merge(st)
	}
	agg.Depth++
	agg.Instances = len(insts)
	return agg
}

// liveClients snapshots the connections of currently-up leaves.
func (f *Forwarder) liveClients() []*wsrpc.Client {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*wsrpc.Client
	for _, l := range f.leaves {
		if cli, _, err := l.sess.Conn(); l.up && err == nil {
			out = append(out, cli)
		}
	}
	return out
}

// MergedMetricsSnapshot folds every reachable leaf's snapshot into the
// forwarder's own: counters and gauges sum, fixed-layout histograms merge
// bucket-wise, so stage quantiles stay computable across the whole tree. An
// unreachable leaf is skipped rather than failing the whole aggregate; its
// contribution simply drops out of this sample.
func (f *Forwarder) MergedMetricsSnapshot() obs.MetricsSnapshot {
	agg := fproto.NoteCodec(f.reg.Snapshot())
	for _, cli := range f.liveClients() {
		var ms fproto.MetricsReply
		if err := cli.Call(fproto.MethodMetrics, nil, &ms); err != nil {
			continue
		}
		agg.Merge(ms)
	}
	return agg
}

// handleEvents interleaves every leaf's trace window, ordered by timestamp.
// Sequence numbers are per-leaf, so NextSeq is 0: pagination is unavailable
// through a forwarder.
func (f *Forwarder) handleEvents(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.EventsRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
	}
	var events []obs.Event
	for _, cli := range f.liveClients() {
		var er fproto.EventsReply
		if err := cli.Call(fproto.MethodEvents, req, &er); err != nil {
			// Same policy as the metrics merge: an unreachable leaf drops
			// out of this sample instead of failing the whole window.
			continue
		}
		events = append(events, er.Events...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	if req.Max > 0 && len(events) > req.Max {
		events = events[len(events)-req.Max:]
	}
	return fproto.EventsReply{Events: events, NextSeq: 0}, nil
}
