package dispatch

import (
	"encoding/json"

	"falkon/internal/fproto"
	"falkon/internal/wsrpc"
)

// parents tracks the connections registered as tree parents (forwarder
// roots) via falkon.attach-parent. Parents receive a NotifyCapacity push
// whenever the dispatcher's worker slots change.
type parents struct {
	wsrpc.PeerSet
	seq uint64 // numbers the hints; guarded by Dispatcher.mu
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

// capacityHint snapshots the dispatcher's worker slots. Slots, not executors,
// so that hints compose: a parent registers its link to this node with
// h.Executors slots, and an interior node, whose executors are such links,
// then reports the worker slots of everything below it.
func (d *Dispatcher) capacityHint() fproto.CapacityHint {
	d.mu.Lock()
	defer d.mu.Unlock() // Seq taken with the count it numbers
	d.parents.seq++
	return fproto.CapacityHint{Executors: d.core.Slots(), Seq: d.parents.seq, Epoch: d.epoch.UnixNano()}
}

// noteCapacityChange pushes a fresh capacity hint to every attached parent.
// Its callers are the events that change the slot count: an executor
// registering (or re-registering at another size), deregistering, or
// disconnecting.
func (d *Dispatcher) noteCapacityChange() {
	if d.parents.Len() == 0 {
		return
	}
	h := d.capacityHint()
	// A dead parent is onDisconnect's to drop.
	d.parents.Each(func(p *wsrpc.Peer) { d.notify(p, fproto.NotifyCapacity, h) })
}
