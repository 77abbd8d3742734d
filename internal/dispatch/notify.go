package dispatch

import (
	"sync"

	"falkon/internal/fproto"
	"falkon/internal/metrics"
	"falkon/internal/wsrpc"
)

// maxMergedResults bounds how many results a worker folds into one
// ResultsNotify frame, keeping merged frames comfortably under typical
// socket buffer sizes so one slow client can't monopolize a worker.
const maxMergedResults = 256

// notifyEngine is the shared notification engine of the paper (§3.2): pending
// push notifications drained by worker goroutines, so pushing never blocks
// the dispatcher's critical section on network writes.
//
// The engine is sharded into lanes, one worker per lane, with peers pinned to
// lanes by connection id. Pushes for different peers contend only within
// their lane instead of on one global mutex, and per-peer delivery order is
// strict: a peer's notifications live in exactly one lane, drained by exactly
// one worker.
//
// Workers merge contiguous queue runs addressed to the same peer before
// writing: ResultsNotify runs for one instance concatenate their result
// slices (bounded by maxMergedResults), and WorkAvailable runs collapse to
// the freshest queue hint. Under burst load this turns N queued pushes into
// one wire frame, compounding with the transport's write coalescing.
type notifyEngine struct {
	depth *metrics.Gauge   // live queue depth across lanes (falkon_notify_queue_depth)
	sent  *metrics.Counter // notifications delivered (falkon_notifications_total)
	errs  *metrics.Counter // failed pushes (falkon_notify_errors_total)

	lanes   []*notifyLane
	workers sync.WaitGroup
}

// notifyLane is one independently locked queue with a dedicated worker. A
// peer's lane is fixed (ID mod lane count), so the failed-peer log dedupe map
// needs no cross-lane coordination.
type notifyLane struct {
	eng *notifyEngine

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []notifyItem
	head   int // queue[head:] is pending; reset when drained to reuse the array
	failed map[uint64]bool
	closed bool
}

type notifyItem struct {
	peer   *wsrpc.Peer
	method string
	body   any
}

// notifyLanes is the dispatcher's lane count.
const notifyLanes = 4

// newNotifyEngine starts workers lanes, each drained by its own goroutine.
// The instruments must be non-nil (use unregistered ones when unmetered).
func newNotifyEngine(workers int, logf func(string, ...any), depth *metrics.Gauge, sent, errs *metrics.Counter) *notifyEngine {
	e := &notifyEngine{depth: depth, sent: sent, errs: errs}
	e.lanes = make([]*notifyLane, workers)
	for i := range e.lanes {
		l := &notifyLane{eng: e, failed: make(map[uint64]bool)}
		l.cond = sync.NewCond(&l.mu)
		e.lanes[i] = l
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			l.drain(logf)
		}()
	}
	return e
}

// lane returns the fixed lane for a peer.
func (e *notifyEngine) lane(peer *wsrpc.Peer) *notifyLane {
	return e.lanes[peer.ID()%uint64(len(e.lanes))]
}

// drain is the lane worker's loop: pop a mergeable run, deliver it, account.
func (l *notifyLane) drain(logf func(string, ...any)) {
	for {
		l.mu.Lock()
		for l.head == len(l.queue) && !l.closed {
			l.cond.Wait()
		}
		if l.closed && l.head == len(l.queue) {
			l.mu.Unlock()
			return
		}
		item, n := l.popRunLocked()
		l.mu.Unlock()
		l.eng.depth.Add(int64(-n))
		err := item.peer.Notify(item.method, item.body)
		l.eng.sent.Add(int64(n))
		if err != nil {
			l.noteError(item, err, logf)
		} else {
			l.noteOK(item.peer)
		}
	}
}

// popRunLocked removes the head item plus any contiguous mergeable
// successors, returning the merged item and how many entries it covers.
// Merging preserves per-instance result order because only adjacent entries
// for the same peer combine.
func (l *notifyLane) popRunLocked() (notifyItem, int) {
	item := l.queue[l.head]
	n := 1
	switch body := item.body.(type) {
	case fproto.ResultsNotify:
		for l.head+n < len(l.queue) && len(body.Results) < maxMergedResults {
			next := l.queue[l.head+n]
			nb, ok := next.body.(fproto.ResultsNotify)
			if !ok || next.peer != item.peer || nb.EPR != body.EPR {
				break
			}
			body.Results = append(body.Results, nb.Results...)
			n++
		}
		item.body = body
	case fproto.WorkAvailable:
		for l.head+n < len(l.queue) {
			next := l.queue[l.head+n]
			nb, ok := next.body.(fproto.WorkAvailable)
			if !ok || next.peer != item.peer {
				break
			}
			item.body = nb // the later hint is fresher
			n++
		}
	}
	for i := l.head; i < l.head+n; i++ {
		l.queue[i] = notifyItem{} // drop peer/body refs while the array idles
	}
	l.head += n
	if l.head == len(l.queue) {
		l.queue = l.queue[:0]
		l.head = 0
	}
	return item, n
}

// noteError counts a failed push and logs the first failure per peer, so a
// wedged connection surfaces once instead of flooding the log (or worse,
// vanishing entirely).
func (l *notifyLane) noteError(item notifyItem, err error, logf func(string, ...any)) {
	l.eng.errs.Inc()
	l.mu.Lock()
	first := !l.failed[item.peer.ID()]
	if first && len(l.failed) < 1024 {
		l.failed[item.peer.ID()] = true
	}
	l.mu.Unlock()
	if first && logf != nil {
		logf("dispatch: notify %s to peer %d (%s): %v", item.method, item.peer.ID(), item.peer.RemoteAddr(), err)
	}
}

// noteOK clears a peer's failure mark, so a connection that recovers and
// wedges again logs again.
func (l *notifyLane) noteOK(p *wsrpc.Peer) {
	l.mu.Lock()
	delete(l.failed, p.ID())
	l.mu.Unlock()
}

// push enqueues a notification for delivery on the peer's lane.
func (e *notifyEngine) push(peer *wsrpc.Peer, method string, body any) {
	l := e.lane(peer)
	l.mu.Lock()
	if !l.closed {
		l.queue = append(l.queue, notifyItem{peer: peer, method: method, body: body})
		e.depth.Add(1)
		l.cond.Signal()
	}
	l.mu.Unlock()
}

// close drains remaining notifications and stops the workers.
func (e *notifyEngine) close() {
	for _, l := range e.lanes {
		l.mu.Lock()
		l.closed = true
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	e.workers.Wait()
}

// notifyWork enqueues a WorkAvailable push ({3}) for an executor peer.
func (e *notifyEngine) notifyWork(peer *wsrpc.Peer, queued int) {
	e.push(peer, fproto.NotifyWorkAvailable, fproto.WorkAvailable{Queued: queued})
}
