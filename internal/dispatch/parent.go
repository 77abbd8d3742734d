package dispatch

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/wsrpc"
)

// capPushInterval throttles capacity pushes to attached parents: executor
// completions arrive thousands of times per second, but a routing hint only
// needs to be fresh on the scale of a bundle round trip.
const capPushInterval = 20 * time.Millisecond

// parents tracks the connections registered as tree parents (forwarder
// roots) via falkon.attach-parent. Parents receive NotifyCapacity pushes
// whenever the dispatcher's headroom changes materially, and their submit
// acknowledgments piggy-back a fresh hint.
type parents struct {
	wsrpc.PeerSet
	seq      atomic.Uint64
	lastPush atomic.Int64 // unix nanos of the last throttled push
}

// handleAttachParent registers the peer as a tree parent and returns the
// current capacity hint as the attach snapshot.
func (d *Dispatcher) handleAttachParent(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.AttachParentRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
	}
	d.parents.Add(p)
	if req.Parent != "" {
		d.logf("dispatch: parent %q attached from %s", req.Parent, p.RemoteAddr())
	}
	return d.capacityHint(), nil
}

// capacityHint snapshots the dispatcher's headroom: backlog (queued +
// outstanding) and worker slots, registered and free. Slots, not executors, so
// that hints compose: a parent registers its link to this node with
// h.Executors slots, and an interior node, whose executors are such links,
// then reports the worker slots of everything below it.
func (d *Dispatcher) capacityHint() fproto.CapacityHint {
	h := fproto.CapacityHint{Seq: d.parents.seq.Add(1), Epoch: d.epoch.UnixNano()}
	d.mu.Lock()
	h.Queued, h.Outstanding = d.core.QueueLen(), d.core.OutstandingLen()
	h.Executors, h.IdleSlots = d.core.SlotStats()
	d.mu.Unlock()
	return h
}

// noteCapacityChange pushes a fresh capacity hint to every attached parent,
// throttled to capPushInterval. force bypasses the throttle (executor
// population changes shift routing more than one completion does). The
// no-parent fast path is a single atomic load, so the Deliver hot path pays
// nothing when no tree is attached.
func (d *Dispatcher) noteCapacityChange(force bool) {
	if d.parents.Len() == 0 {
		return
	}
	now := time.Now().UnixNano()
	if !force {
		last := d.parents.lastPush.Load()
		if now-last < int64(capPushInterval) || !d.parents.lastPush.CompareAndSwap(last, now) {
			return
		}
	} else {
		d.parents.lastPush.Store(now)
	}
	h := d.capacityHint()
	// A dead parent is onDisconnect's to drop.
	d.parents.Each(func(p *wsrpc.Peer) { d.notify(p, fproto.NotifyCapacity, h) })
}
