package forward

import (
	"encoding/json"
	"fmt"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/wsrpc"
)

// leaf is one downstream dispatcher from the root's point of view: the
// session that owns its connection, whether it is routable, the freshest
// capacity hint it reported, and the bundle-routing counters falkon-top
// surfaces per leaf. Everything but idx, addr and sess is guarded by
// Forwarder.mu.
type leaf struct {
	idx  int
	addr string
	sess *wsrpc.Session // set once in New, before any leaf is dialed

	up       bool // routable: flipped by the session's OnDown/OnUp
	cap      fproto.CapacityHint
	inflight int // tasks routed since cap was last refreshed

	bundles    int64
	tasks      int64
	results    int64
	reroutes   int64
	reconnects int64

	// starved counts consecutive rescue-loop ticks this leaf spent up but
	// executor-less while some sibling could run work (see
	// rescueStarvedLeaves).
	starved int
}

// score is the routing cost of sending the next bundle here: estimated
// backlog (queued + outstanding + routed-but-unreported) minus idle slots.
// Lower is better; the idle-slot credit makes an idle leaf win over a
// backlogged one even when the backlogged leaf has more executors. Callers
// hold Forwarder.mu.
func (l *leaf) score() int {
	s := l.inflight + l.cap.Queued + l.cap.Outstanding - l.cap.IdleSlots
	if l.cap.Executors == 0 {
		// An executor-less leaf drains nothing: its empty queue would
		// otherwise look maximally idle and absorb bundles no one will
		// run. The first executor registration forces a capacity push,
		// lifting the penalty promptly.
		s += 1 << 20
	}
	return s
}

// absorbHint installs a capacity report if it is fresher than the current
// one, resetting the unreported-routing estimate. Freshness is (Epoch, Seq)
// lexicographic: Seq restarts from 1 when the leaf process restarts, so a
// restarted leaf's hints must beat the dead incarnation's high-Seq
// leftovers on epoch alone — comparing raw Seq would freeze the routing
// table on pre-crash capacity (an idle leaf pushes nothing to correct it).
// Callers hold Forwarder.mu.
func (l *leaf) absorbHint(h fproto.CapacityHint) {
	if h.Epoch > l.cap.Epoch || (h.Epoch == l.cap.Epoch && h.Seq >= l.cap.Seq) {
		l.cap = h
		l.inflight = 0
	}
}

// newLeafSession builds (without opening) the session that owns leaf l's
// connection: redialed forever, attached as a tree parent before any bundle
// can be routed over it, and reported to the routing table as it comes and goes.
func (f *Forwarder) newLeafSession(l *leaf) *wsrpc.Session {
	return wsrpc.NewSession(wsrpc.SessionOptions{
		Addrs: []string{l.addr},
		Client: wsrpc.ClientOptions{
			Security: f.opts.Security,
			PSK:      f.opts.PSK,
			OnNotify: func(method string, body json.RawMessage) {
				f.onLeafNotify(l.idx, method, body)
			},
			Metrics: f.reg,
		},
		Reconnect: true,
		Backoff:   f.opts.Backoff,
		Handshake: func(cli *wsrpc.Client, _ int) error { return f.attachLeaf(l, cli) },
		OnDown:    func() { f.leafChanged(l, false) },
		OnUp:      func(*wsrpc.Client) { f.leafChanged(l, true) },
	})
}

// attachLeaf is the leaf session's handshake: attach the root as a tree
// parent, then drop whatever downstream instances an earlier connection
// left on the leaf — their tasks replay through redistribute, and the next
// bundle routed here creates fresh ones.
func (f *Forwarder) attachLeaf(l *leaf, cli *wsrpc.Client) error {
	var hint fproto.CapacityHint
	if err := cli.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{Parent: rootName}, &hint); err != nil {
		return err
	}
	f.dropDownstreamInstances(l.idx, cli)
	f.mu.Lock()
	l.inflight = 0
	// absorbHint, not assignment: the leaf pushes capacity from the moment
	// attach-parent lands, so a fresher push can beat this snapshot here —
	// overwriting it would pin the leaf at its attach-moment population
	// until the next push, which an idle leaf never sends.
	l.absorbHint(hint)
	f.mu.Unlock()
	return nil
}

// onLeafNotify handles pushes from leaf idx: capacity hints update the
// routing table, result notifications resolve pending tasks.
func (f *Forwarder) onLeafNotify(idx int, method string, body json.RawMessage) {
	switch method {
	case fproto.NotifyCapacity:
		var h fproto.CapacityHint
		if err := json.Unmarshal(body, &h); err != nil {
			return
		}
		f.mu.Lock()
		f.leaves[idx].absorbHint(h)
		f.mu.Unlock()
		f.pushCapacity()
	case fproto.NotifyResults:
		var n fproto.ResultsNotify
		if err := n.DecodeJSON(body); err != nil {
			return
		}
		f.onLeafResults(idx, n.EPR, n.Results)
	}
}

// handleAttachParent makes this forwarder a leaf of a deeper tree: the
// calling root is told this node's aggregate capacity exactly as a
// dispatcher would tell it its own — in the reply, then pushed whenever a
// leaf's report or liveness changes the sum.
func (f *Forwarder) handleAttachParent(p *wsrpc.Peer, _ json.RawMessage) (any, error) {
	f.parents.Add(p)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.capacity(), nil
}

// capacity sums the up leaves' hints, and what was routed to them since,
// into this node's own. Callers hold f.mu.
func (f *Forwarder) capacity() fproto.CapacityHint {
	f.capSeq++
	h := fproto.CapacityHint{Seq: f.capSeq, Epoch: f.epoch}
	for _, l := range f.leaves {
		if l.up {
			h.Queued += l.cap.Queued + l.inflight
			h.Outstanding += l.cap.Outstanding
			h.IdleSlots += l.cap.IdleSlots
			h.Executors += l.cap.Executors
		}
	}
	return h
}

// pushCapacity sends the current aggregate to every attached parent. Hints
// can overtake each other between here and the wire; Seq lets the parent
// drop the stale one.
func (f *Forwarder) pushCapacity() {
	if f.parents.Len() == 0 {
		return // every plain root: one atomic load
	}
	f.mu.Lock()
	h := f.capacity()
	f.mu.Unlock()
	// A dead parent is onUpstreamDisconnect's to drop.
	f.parents.Each(func(p *wsrpc.Peer) { _ = p.Notify(fproto.NotifyCapacity, h) })
}

// leafChanged is the leaf session's OnDown (up=false) and OnUp (up=true)
// hook: it flips the leaf in the routing table and replays every task still
// routed to it — away from a dead leaf, or back onto a returned one if no
// survivor took them meanwhile. The replay is asynchronous: with no leaf up
// it parks in pickLeaf, and the session must stay free to redial. Concurrent
// replays are safe: routing re-pins each pending entry, and a task that
// double-executes in the overlap dedupes at the root.
func (f *Forwarder) leafChanged(l *leaf, up bool) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	l.up = up
	if up {
		l.reconnects++
		f.routable.Broadcast()
	}
	f.wg.Add(1) // under mu and before closed: Close's Wait cannot have begun
	f.mu.Unlock()
	f.pushCapacity()
	if up {
		f.logf("forward: leaf %s reconnected", l.addr)
	} else {
		f.logf("forward: leaf %s down, rerouting its pending tasks", l.addr)
	}
	go func() {
		defer f.wg.Done()
		f.redistribute(l.idx)
	}()
}

// redistribute replays every task currently routed to leaf `from` through
// the normal routing path, which picks whatever leaf is healthiest now
// (possibly `from` itself, freshly reconnected). A task whose result lands
// in the meantime leaves pending, so its replay's result is dropped.
func (f *Forwarder) redistribute(from int) {
	total := 0
	for _, inst := range f.instances() {
		if inst.destroyed.Load() {
			continue
		}
		inst.mu.Lock()
		ts := inst.takePendingFor(from)
		inst.mu.Unlock()
		if len(ts) == 0 {
			continue
		}
		total += len(ts)
		trace := ts[0].Trace
		for start := 0; start < len(ts); start += f.opts.Bundle {
			end := min(start+f.opts.Bundle, len(ts))
			if err := f.routeBundle(inst, ts[start:end], trace, from); err != nil {
				f.logf("forward: reroute %d tasks from leaf %d: %v", end-start, from, err)
			}
		}
	}
	if total > 0 {
		f.mu.Lock()
		f.leaves[from].reroutes += int64(total)
		f.mu.Unlock()
		f.logf("forward: rerouted %d tasks away from leaf %d", total, from)
	}
}

// rescueStarvedLeaves runs until Close, watching for tasks stranded on an
// executor-less leaf. The routing score steers new bundles away from such
// leaves, but redistribute after a leaf death takes whatever is up — if the
// only survivor has no executors, the dead leaf's tasks land on a queue
// nothing drains, and no later event re-routes them (an idle executor-less
// leaf stops changing, so it stops reporting). A leaf that stays in that
// state for two consecutive ticks while a sibling *could* run work first
// gets its downstream instances destroyed (which drops the queued copies —
// each downstream instance holds only work this root routed there) and then
// its routed tasks replayed through the normal routing path. Any stragglers
// that raced the destroy dedupe at the root like any rerouted replay.
func (f *Forwarder) rescueStarvedLeaves() {
	defer f.wg.Done()
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		f.mu.Lock()
		// A rescue only helps when some other up leaf can actually run the
		// tasks.
		runnable := false
		for _, l := range f.leaves {
			if l.up && l.cap.Executors > 0 {
				runnable = true
				break
			}
		}
		var starved []int
		for _, l := range f.leaves {
			if !runnable || !l.up || l.cap.Executors > 0 {
				l.starved = 0
				continue
			}
			l.starved++
			if l.starved >= 2 {
				l.starved = 0
				starved = append(starved, l.idx)
			}
		}
		f.mu.Unlock()
		for _, idx := range starved {
			cli, _, err := f.leaves[idx].sess.Conn()
			if err == nil && f.owesTasks(idx) {
				f.logf("forward: leaf %d is executor-less but owes tasks, rescuing them", idx)
				f.dropDownstreamInstances(idx, cli)
				f.redistribute(idx)
			}
		}
	}
}

// dropDownstreamInstances forgets every downstream instance this root holds
// on leaf idx and destroys them over cli, dropping whatever that dispatcher
// still has queued or buffered for them (each holds only work this root
// routed there; a leaf that restarted without a journal just reports them
// unknown). The next bundle routed there creates a fresh downstream instance.
func (f *Forwarder) dropDownstreamInstances(idx int, cli *wsrpc.Client) {
	type oldRoute struct {
		epr  string
		inst *finst
	}
	var olds []oldRoute
	f.mu.Lock()
	for k, inst := range f.byReal {
		if k.down == idx {
			olds = append(olds, oldRoute{k.epr, inst})
			delete(f.byReal, k)
		}
	}
	f.mu.Unlock()
	for _, o := range olds {
		o.inst.mu.Lock()
		if o.inst.downEPR[idx] == o.epr {
			o.inst.downEPR[idx] = ""
		}
		o.inst.mu.Unlock()
		var out struct{}
		_ = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: o.epr}, &out)
	}
}

// owesTasks reports whether any instance has pending tasks routed to leaf
// idx.
func (f *Forwarder) owesTasks(idx int) bool {
	for _, inst := range f.instances() {
		inst.mu.Lock()
		for _, pe := range inst.pending {
			if pe.leaf == idx {
				inst.mu.Unlock()
				return true
			}
		}
		inst.mu.Unlock()
	}
	return false
}

// pickLeaf chooses the routing target for the next bundle: the up leaf with
// the lowest backlog score, round-robin on ties. avoid is the leaf a failed
// attempt just came from (-1 = none); it loses ties but is not excluded —
// with one leaf it is still the only choice. While no leaf is up it parks
// until one comes up, the deadline passes or the forwarder closes. Callers
// hold f.mu; the lock is released while parked.
func (f *Forwarder) pickLeaf(avoid int, deadline time.Time) (*leaf, error) {
	for {
		if f.closed {
			return nil, fmt.Errorf("forward: closed")
		}
		var best *leaf
		n := len(f.leaves)
		for i := 0; i < n; i++ {
			l := f.leaves[(f.rr+i)%n]
			if !l.up {
				continue
			}
			if best == nil || l.score() < best.score() ||
				(l.score() == best.score() && best.idx == avoid && l.idx != avoid) {
				best = l
			}
		}
		if best != nil {
			f.rr = (best.idx + 1) % n
			return best, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("forward: no dispatcher reachable")
		}
		t := time.AfterFunc(time.Until(deadline), f.routable.Broadcast)
		f.routable.Wait()
		t.Stop()
	}
}
