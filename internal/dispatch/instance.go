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
// The instance carries its own small mutex: reattach and a failed result push
// work on one client's state without the scheduler lock.
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
	mu   sync.Mutex
	peer *wsrpc.Peer // the client's connection, which results are pushed on ({8})

	// submitted counts tasks accepted.
	submitted int64

	// buf is the one place a finished result waits: while the instance has no
	// peer (its client dropped, a push at it failed, or it was recovered from
	// the journal and not yet re-attached). The next reattach pushes it all.
	// Each result's bytes are its own (task.RelayedResult.Keep).
	buf []task.RelayedResult

	// live holds every task ID the instance still owes its client a result
	// for — queued, outstanding, or buffered — on every node: a resubmitted
	// task still owed is dropped (its result is coming), one no longer owed
	// re-runs (its result was lost with the connection). An ID stands for one
	// copy: of a task queued or held, or of its buffered result (DESIGN.md §11),
	// so live.Len() − len(buf) tasks are queued or outstanding.
	live task.Owed
}

// takeResults removes and returns every buffered result; pushed, their
// delivery obligation is discharged. Callers hold in.mu.
func (in *instance) takeResults() []task.RelayedResult {
	out := in.buf
	in.buf = nil // the array is the caller's now
	for _, r := range out {
		in.live.Remove(r.ID)
	}
	return out
}
