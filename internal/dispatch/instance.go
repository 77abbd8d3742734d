package dispatch

import (
	"sync"
	"sync/atomic"

	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// instance is the per-client state behind one endpoint reference, following
// the paper's factory/instance pattern: each client gets its own queue
// accounting and result buffer, cleanly separated from other clients.
//
// The instance carries its own small mutex: Collect, reattach and a failed
// result push work on one client's state without the scheduler lock.
type instance struct {
	epr  string
	name string

	// tenant is the owning tenant (DefaultTenant unless the create request
	// named one); fromParent, that a tree parent created the instance, so its
	// work was admitted at the node its client attaches to. Both are immutable
	// after creation/recovery, so the fair-share and admission paths read them
	// without mu.
	tenant     string
	fromParent bool

	// destroyed is checked lock-free on the pick and finalize hot paths:
	// tasks of a destroyed instance are dropped wherever they surface.
	destroyed atomic.Bool

	// mu guards everything below. Lock order: Dispatcher.mu may be held
	// when taking mu (finalize); never the reverse.
	mu     sync.Mutex
	peer   *wsrpc.Peer // connection that created the instance
	notify bool        // push results over peer ({8}) vs. client polling

	// submitted counts tasks accepted; inFlight counts tasks queued,
	// outstanding, or buffered-but-uncollected; used for Collect's pending
	// figure.
	submitted int64
	inFlight  int

	// buf holds finished tasks awaiting Collect (only when notify is
	// false — pushed results never buffer). A notify instance whose peer is
	// detached (client dropped, a push at it failed, or recovered from the
	// journal and not yet re-attached) buffers here too, and the buffer
	// flushes on re-attach.
	buf task.ResultBuffer

	// live, when journaling, holds every task ID the dispatcher still owes
	// this client a delivery for: queued, outstanding, or buffered. It is
	// the dedupe set for idempotent resubmission — a resubmitted live task
	// is dropped (its result is still coming), a resubmitted dead task
	// re-runs (its result was lost with the connection). Nil when the
	// dispatcher runs without a journal.
	live map[task.ID]struct{}
}

// takeResults removes and returns up to max buffered results (0 = all);
// collected, their delivery obligation is discharged. Callers hold in.mu.
func (in *instance) takeResults(max int) []task.Result {
	out := in.buf.Take(max)
	if in.live != nil {
		for _, r := range out {
			delete(in.live, r.ID)
		}
	}
	return out
}
