package forward

import (
	"sync"
	"sync/atomic"

	"falkon/internal/fproto"
	"falkon/internal/task"
)

// pentry is one task the root owes a result for: the task itself (kept for
// replay if its leaf dies), where the bundle it was routed in holds it — a
// copy would be 144 bytes the map has to box — and the leaf it is currently
// routed to. Nothing writes to a bundle once its tasks are pending.
type pentry struct {
	t    *task.Task
	leaf int
}

// finst is one root-owned instance. The root hands out its own EPR space
// ("fwd-N") and creates downstream instances lazily, one per leaf the
// instance's work actually lands on; results funnel back through the root's
// buffer so Collect and push notification work even while leaves churn.
//
// Lock order: Forwarder.mu → finst.mu. Neither is ever held across a
// downstream call.
type finst struct {
	epr string

	// tenant is the creating client's tenant, forwarded verbatim on every
	// downstream instance so leaf dispatchers attribute and admit the
	// tree's work under the right identity. Immutable after creation.
	tenant string

	destroyed atomic.Bool

	// createMu serializes downstream instance creation (held across the
	// create call, so it is its own lock and never nests inside mu).
	createMu sync.Mutex

	mu     sync.Mutex
	peer   upstreamPeer // client connection for pushed results (nil = detached)
	notify bool

	// pending maps every task awaiting a result to its current leaf. It is
	// recorded before the downstream call and cleared by the first result,
	// so membership alone decides delivery: a replay's second result finds
	// nothing owed and drops, and the instance retains O(in-flight) state.
	// A resubmit of a delivered task re-enters pending and re-runs,
	// mirroring dispatcher instance semantics.
	pending map[task.ID]pentry

	dupDrops int64

	// downEPR[i] is this instance's EPR on leaf i ("" until first use).
	downEPR []string

	// buf holds deliveries for poll-mode (or detached) clients.
	buf task.ResultBuffer
}

// upstreamPeer is the slice of wsrpc.Peer the instance needs; an interface
// so tests can fake a push target.
type upstreamPeer interface {
	Notify(method string, arg any) error
}

func newFinst(epr string, leaves int) *finst {
	return &finst{
		epr:     epr,
		pending: make(map[task.ID]pentry),
		downEPR: make([]string, leaves),
	}
}

// downOn returns this instance's EPR on leaf idx ("" = none yet).
func (in *finst) downOn(idx int) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.downEPR[idx]
}

// deliver hands results to the client: pushed when it subscribed and is
// attached, otherwise — or when the push fails because the upstream
// connection died — buffered for Collect or for redelivery on reattach.
func (in *finst) deliver(rs []task.Result) {
	if len(rs) == 0 {
		return
	}
	in.mu.Lock()
	peer := in.peer
	if !in.notify {
		peer = nil
	}
	in.mu.Unlock()
	if peer != nil && peer.Notify(fproto.NotifyResults, fproto.ResultsNotify{EPR: in.epr, Results: rs}) == nil {
		return
	}
	in.mu.Lock()
	for _, r := range rs {
		in.buf.Add(r)
	}
	in.mu.Unlock()
}

// takePendingFor collects the tasks currently routed to leaf idx, in
// arbitrary order. Callers hold mu.
func (in *finst) takePendingFor(idx int) []task.Task {
	var ts []task.Task
	for _, pe := range in.pending {
		if pe.leaf == idx {
			ts = append(ts, *pe.t)
		}
	}
	return ts
}

// whereOwed returns the tasks of a bundle that are owed a result (owed: what
// is left of a replayed bundle) or are not (what a submitted bundle holds
// besides resubmissions). It returns tasks itself when that is all of them
// and a copy otherwise, never tasks compacted in place: pending entries
// point into a routed bundle. Callers hold mu.
func (in *finst) whereOwed(tasks []task.Task, owed bool) []task.Task {
	n := 0
	for i := range tasks {
		if _, ok := in.pending[tasks[i].ID]; ok == owed {
			n++
		}
	}
	if n == len(tasks) {
		return tasks
	}
	kept := make([]task.Task, 0, n)
	for i := range tasks {
		if _, ok := in.pending[tasks[i].ID]; ok == owed {
			kept = append(kept, tasks[i])
		}
	}
	return kept
}
