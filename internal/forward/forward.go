// Package forward builds the root of Falkon's dispatch tree (paper §6, Figure
// 16; "Towards Loosely-Coupled Programming on Petascale Systems": the same
// dispatcher at every level). The root is a plain dispatch.Dispatcher whose
// executors are links (link.go), one per leaf dispatcher, registered with the
// leaf's worker slots and served by the code that serves a wire executor.
// This package is the link, and what a root answers for its subtree: stats
// with a row per leaf, metrics and events merged across the leaves, destroy
// passed down, and a submit that stocks the leaves before it is acknowledged
// (DESIGN.md §13). A leaf may itself be such a root.
package forward

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"falkon/internal/backoff"
	"falkon/internal/dispatch"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/wsrpc"
)

// rootName identifies this root to its leaves (attach-parent, downstream
// instance names).
const rootName = "falkon-forwarder"

// Options configures a Forwarder.
type Options struct {
	// Dispatchers lists downstream leaf addresses (at least one). Every leaf
	// must be reachable at New; afterwards each is redialed with backoff.
	Dispatchers []string
	// Bundle is the root→leaf bundle size: the most tasks a link asks the
	// root's queue for at a time, one downstream submit carries, and a leaf is
	// stocked with per worker slot (default 64).
	Bundle int
	// Backoff shapes leaf redial pacing (zero value = backoff.Default).
	Backoff backoff.Policy
	// Root configures the root like any dispatcher (tenants, replay timeout,
	// fault injection, …), but for NoRetryOnFailure and MaxRetries, which New
	// sets: retries are the leaves' to count. Its Security, PSK, Metrics and
	// Logf are the links' too, so one profile and one registry cover the
	// upstream listener and the downstream connections.
	Root dispatch.Options
}

// Forwarder is the dispatch-tree root: a dispatcher (Listen, Addr, Drain,
// Metrics, Tracer are the embedded one's) whose Stats, MetricsSnapshot and
// Close answer for its subtree. Create with New, then Listen.
type Forwarder struct {
	*dispatch.Dispatcher
	opts  Options
	logf  func(format string, args ...any) // Root.Logf, or a no-op
	links []*link

	submitAtRoot, destroyAtRoot wsrpc.Handler // the root dispatcher's own

	stop      chan struct{} // closed by Close: ends the links' goroutines
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New connects to every leaf dispatcher, attaches as their tree parent, and
// returns an unstarted forwarder.
func New(opts Options) (*Forwarder, error) {
	if len(opts.Dispatchers) == 0 {
		return nil, fmt.Errorf("forward: no dispatchers configured")
	}
	if opts.Bundle <= 0 {
		opts.Bundle = 64
	}
	f := &Forwarder{opts: opts, logf: opts.Root.Logf, stop: make(chan struct{})}
	if f.logf == nil {
		f.logf = func(string, ...any) {}
	}
	// A leaf's final word stays final: a task it reports failed has had its
	// retries and gets none here; leaf deaths do not use up a task's retries.
	opts.Root.NoRetryOnFailure, opts.Root.MaxRetries = true, math.MaxInt32
	f.Dispatcher = dispatch.New(opts.Root)
	f.Override(fproto.MethodStats, func(*wsrpc.Peer, json.RawMessage) (any, error) { return f.Stats(), nil })
	f.Override(fproto.MethodMetrics, func(*wsrpc.Peer, json.RawMessage) (any, error) { return f.MetricsSnapshot(), nil })
	f.Override(fproto.MethodEvents, f.handleEvents)
	f.submitAtRoot = f.Override(fproto.MethodSubmit, f.handleSubmit)
	f.destroyAtRoot = f.Override(fproto.MethodDestroyInstance, f.handleDestroyInstance)
	// Every link exists before any leaf is dialed: capacity pushes start with
	// attach-parent.
	for i, addr := range opts.Dispatchers {
		f.links = append(f.links, newLink(f, i, addr))
	}
	for _, l := range f.links {
		if err := l.sess.Open(); err != nil {
			f.Close()
			return nil, fmt.Errorf("forward: dial dispatcher %s: %w", l.addr, err)
		}
		l.update(func() { l.row.Up = true })
	}
	return f, nil
}

// Close tears down both sides: the leaf sessions first, so that no submit
// handler the root's Close waits for is left waiting on a leaf. No lock is held
// while a session closes: that waits for its hooks and read loop, which take
// the link's.
func (f *Forwarder) Close() error {
	var err error
	f.closeOnce.Do(func() {
		close(f.stop)
		for _, l := range f.links {
			l.sess.Close()
		}
		err = f.Dispatcher.Close()
		f.wg.Wait()
	})
	return err
}

// handleSubmit is a submit at the root and then, before the acknowledgment,
// the links stocking their leaves, in order, with what it left queued and
// they have room for. The root would run without this — links also pull as
// results come back — but a client acknowledged at once has its next bundle in
// before this one has left: on tree-bulk twice the tasks in flight, and twice
// their latency (EXPERIMENTS.md "One node type").
func (f *Forwarder) handleSubmit(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	rep, err := f.submitAtRoot(p, body)
	for i := 0; err == nil && i < len(f.links) && f.links[i].stock(false); i++ {
	}
	return rep, err
}

// handleDestroyInstance destroys the instance at the root — which sweeps its
// tasks out of the core, those the links hold included — then on every leaf it
// reached, before it replies.
func (f *Forwarder) handleDestroyInstance(p *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.DestroyInstanceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	rep, err := f.destroyAtRoot(p, body)
	if err != nil {
		return nil, err
	}
	for _, l := range f.links {
		l.mu.Lock()
		down := l.down[req.EPR]
		delete(l.down, req.EPR)
		delete(l.real, down)
		l.mu.Unlock()
		if down == "" {
			continue
		}
		// On a leaf that is down the call fails at once.
		if err := l.call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: down}, nil); err != nil {
			f.logf("forward: destroy %s on leaf %s: %v", down, l.addr, err)
		}
	}
	return rep, nil
}

// Stats snapshots the tree from the root: the leaves' totals, the depth, a
// row per leaf, and of the root's own figures those the leaves cannot know —
// its queue, what it replayed when a leaf went away, the second results it
// dropped. A dead leaf contributes its link's counters only.
func (f *Forwarder) Stats() fproto.StatsReply {
	var agg fproto.StatsReply
	for _, l := range f.links {
		l.mu.Lock()
		row := l.row
		l.mu.Unlock()
		row.Pending = f.Held(l.id)
		var st fproto.StatsReply
		if row.Up {
			row.Up = l.call(fproto.MethodStats, nil, &st) == nil
			row.Queued, row.Outstanding = st.Queued, st.Outstanding
			row.Executors, row.Busy = st.TotalExecutors, st.BusyExecutors
		}
		// The child's row, then (in Merge) the rows it reports for its own
		// leaves: falkon-top and falkon-chaos want the true leaves at any depth.
		agg.Leaves = append(agg.Leaves, row)
		agg.Merge(st)
	}
	own := f.Dispatcher.Stats()
	agg.Depth++
	agg.Queued += own.Queued
	agg.Retried += own.Retried
	agg.Duplicates += own.Duplicates
	agg.Instances = own.Instances
	return agg
}

// askLeaves calls method on every leaf that is up and folds each reply in; an
// unreachable leaf drops out of the sample rather than failing it.
func askLeaves[T any](f *Forwarder, method string, arg any, fold func(T)) {
	for _, l := range f.links {
		l.mu.Lock()
		up := l.row.Up
		l.mu.Unlock()
		var reply T
		if up && l.call(method, arg, &reply) == nil {
			fold(reply)
		}
	}
}

// MetricsSnapshot folds every reachable leaf's snapshot into the root's own:
// counters and gauges sum, histograms merge bucket-wise. The root's own
// Figure-10 stages and end-to-end latency (a tenant's share of them included)
// go under node="root": a task's time at the root contains its time at a
// leaf, and under the leaves' names every task would count twice.
func (f *Forwarder) MetricsSnapshot() obs.MetricsSnapshot {
	agg := fproto.NoteCodec(f.Metrics().Snapshot())
	own := agg.Histograms
	agg.Histograms = make(map[string]obs.HistSnapshot, len(own))
	for key, h := range own {
		name, labels, labeled := strings.Cut(key, "{")
		if labeled && (name == obs.MetricE2ESeconds || name == obs.MetricStageSeconds) {
			key = name + `{node="root",` + labels
		} else if name == obs.MetricE2ESeconds {
			key = name + `{node="root"}`
		}
		agg.Histograms[key] = h
	}
	askLeaves(f, fproto.MethodMetrics, nil, func(ms fproto.MetricsReply) { agg.Merge(ms) })
	return agg
}

// handleEvents interleaves the leaves' trace windows by timestamp. Sequence
// numbers are per leaf, so NextSeq is 0: no pagination through a forwarder.
func (f *Forwarder) handleEvents(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req fproto.EventsRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
	}
	var events []obs.Event
	askLeaves(f, fproto.MethodEvents, req, func(er fproto.EventsReply) { events = append(events, er.Events...) })
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	if req.Max > 0 && len(events) > req.Max {
		events = events[len(events)-req.Max:]
	}
	return fproto.EventsReply{Events: events, NextSeq: 0}, nil
}
