package dispatch

import (
	"fmt"
	"sort"
	"strings"

	"falkon/internal/fproto"
	"falkon/internal/obs"
)

// What a dispatcher with leaves, a dispatch tree's root (paper §6, Figure 16;
// DESIGN.md §13), answers for its subtree beyond its own core, whose executors
// are its links (link.go). A leaf may itself be a root.

// attachLeaves builds a link per leaf and dials each, attaching as its tree
// parent: every leaf must be reachable now, and afterwards each is redialed
// with backoff. Every link exists before any leaf is dialed, since capacity
// pushes start with attach-parent.
func (d *Dispatcher) attachLeaves() error {
	for i, addr := range d.opts.Leaves {
		d.links = append(d.links, newLink(d, i, addr))
	}
	for _, l := range d.links {
		if err := l.sess.Open(); err != nil {
			d.closeLeaves()
			return fmt.Errorf("dispatch: dial leaf %s: %w", l.addr, err)
		}
		l.update(func() { l.row.Up = true })
	}
	return nil
}

// closeLeaves ends the leaf sessions, so that no handler the server's Close
// waits for is left waiting on a leaf, and with them the links' goroutines.
// No lock is held while a session closes: that waits for its hooks and read
// loop, which take the link's.
func (d *Dispatcher) closeLeaves() {
	for _, l := range d.links {
		l.sess.Close()
	}
	d.leafWG.Wait()
}

// stockLeaves has the links stock their leaves, in order, with what a submit
// left queued and they have room for, before the submit is acknowledged. The
// root would run without this — links also pull as results come back — but a
// client acknowledged at once has its next bundle in before this one has
// left: on tree-bulk twice the tasks in flight, and twice their latency
// (EXPERIMENTS.md "One node type").
func (d *Dispatcher) stockLeaves() {
	for i := 0; i < len(d.links) && d.links[i].stock(false); i++ {
	}
}

// destroyOnLeaves destroys root instance epr on every leaf it reached; the
// root's own destroy has swept its tasks out of the core, those the links
// hold included.
func (d *Dispatcher) destroyOnLeaves(epr string) {
	for _, l := range d.links {
		l.mu.Lock()
		down := l.down[epr]
		delete(l.down, epr)
		delete(l.real, down)
		l.mu.Unlock()
		if down == "" {
			continue
		}
		// On a leaf that is down the call fails at once.
		if err := l.call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: down}, nil); err != nil {
			d.logf("dispatch: destroy %s on leaf %s: %v", down, l.addr, err)
		}
	}
}

// addSubtree adds to a root's own stats what its links cannot report: the
// subtree's executors in place of the links, a row per link followed by the
// rows its child reports (falkon-top and falkon-chaos want the true leaves at
// any depth), and the depth. A dead leaf contributes its link's row only.
func (d *Dispatcher) addSubtree(st *fproto.StatsReply) {
	st.TotalExecutors, st.BusyExecutors = 0, 0
	for _, l := range d.links {
		l.mu.Lock()
		row := l.row
		l.mu.Unlock()
		row.Pending = d.held(l.id)
		var child fproto.StatsReply
		if row.Up {
			row.Up = l.call(fproto.MethodStats, nil, &child) == nil
			row.Queued, row.Outstanding = child.Queued, child.Outstanding
			row.Executors, row.Busy = child.TotalExecutors, child.BusyExecutors
		}
		st.TotalExecutors += row.Executors
		st.BusyExecutors += row.Busy
		st.Depth = max(st.Depth, child.Depth)
		st.Leaves = append(append(st.Leaves, row), child.Leaves...)
	}
	st.IdleExecutors = st.TotalExecutors - st.BusyExecutors
	st.Depth = max(st.Depth, 1) + 1
}

// askLeaves calls method on every leaf that is up and folds each reply in; an
// unreachable leaf drops out of the sample rather than failing it.
func askLeaves[T any](d *Dispatcher, method string, arg any, fold func(T)) {
	for _, l := range d.links {
		l.mu.Lock()
		up := l.row.Up
		l.mu.Unlock()
		var reply T
		if up && l.call(method, arg, &reply) == nil {
			fold(reply)
		}
	}
}

// subtreeMetrics folds every reachable leaf's snapshot into a root's own:
// counters and gauges sum, histograms merge bucket-wise, but the
// task-lifecycle counters are the root's, which counts each client task once.
// The root's own Figure-10 stages and end-to-end latency (a tenant's share of
// them included) go under node="root": a task's time at the root contains its
// time at a leaf, and under the leaves' names every task would count twice.
func (d *Dispatcher) subtreeMetrics() obs.MetricsSnapshot {
	agg := fproto.NoteCodec(d.reg.Snapshot())
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
	askLeaves(d, fproto.MethodMetrics, nil, func(ms fproto.MetricsReply) { agg.Merge(ms) })
	setLifecycleCounters(agg, d.ownStats())
	return agg
}

// leafEvents interleaves the leaves' trace windows by timestamp. Sequence
// numbers are per leaf, so NextSeq is 0: no pagination through a root.
func (d *Dispatcher) leafEvents(req fproto.EventsRequest) fproto.EventsReply {
	var events []obs.Event
	askLeaves(d, fproto.MethodEvents, req, func(er fproto.EventsReply) { events = append(events, er.Events...) })
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	if req.Max > 0 && len(events) > req.Max {
		events = events[len(events)-req.Max:]
	}
	return fproto.EventsReply{Events: events, NextSeq: 0}
}
