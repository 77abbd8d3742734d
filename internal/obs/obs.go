// Package obs is the observability subsystem of the live Falkon runtime:
// a lock-cheap task-lifecycle tracer (per-task timestamped events in a
// bounded ring buffer), the runtime's instruments (Counter, Gauge and the
// bounded-memory Histogram) and a registry of them by name, shared by the
// dispatcher, executors, forwarder, provisioner, and the wsrpc transport,
// and exposition of both — over the wire as the
// falkon.metrics / falkon.events RPCs and over HTTP as a Prometheus-style
// text endpoint with net/http/pprof mounted beside it.
//
// The tracer exists to make the paper's Figure 10 observable on a real
// run: a task's life decomposes into enqueue→notify, notify→pull,
// pull→start, and start→deliver stages whose per-task latencies partition
// the end-to-end latency exactly, so stage histograms printed by
// falkon-top sum to what clients measure.
package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"falkon/internal/task"
)

// EventKind labels one point in a task's lifecycle.
type EventKind uint8

const (
	// EvEnqueued: the task entered the dispatcher queue (submission and
	// enqueue coincide in this dispatcher).
	EvEnqueued EventKind = iota + 1
	// EvNotified: a work-available push was sent to an executor. The
	// event carries the executor id, not a task id — notifications are
	// per-executor in the hybrid protocol.
	EvNotified
	// EvPulled: the task was assigned to an executor answering a
	// get-work pull.
	EvPulled
	// EvAcked: the task was assigned piggy-backed on a deliver
	// acknowledgment (no separate pull round trip).
	EvAcked
	// EvStarted: the executor began running the task (rebased onto the
	// dispatcher epoch at delivery time).
	EvStarted
	// EvFinished: the task's command finished on the executor.
	EvFinished
	// EvDelivered: the result reached the dispatcher and was finalized.
	EvDelivered
	// EvRetried: the replay policy re-queued the task.
	EvRetried
	// EvFailed: the task was reported failed (retries exhausted or
	// failure with replay disabled).
	EvFailed
	// EvPushed: the task was assigned in the work push itself, to an
	// executor slot that was waiting for one — no pull round trip at all.
	// (Last, so the kinds before it keep their numbers.)
	EvPushed
)

var kindNames = map[EventKind]string{
	EvEnqueued:  "enqueued",
	EvNotified:  "notified",
	EvPulled:    "pulled",
	EvAcked:     "acked",
	EvStarted:   "started",
	EvFinished:  "finished",
	EvDelivered: "delivered",
	EvRetried:   "retried",
	EvFailed:    "failed",
	EvPushed:    "pushed",
}

// String returns the event name used on the wire and in span dumps.
func (k EventKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its name, keeping event streams
// self-describing for offline tooling.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes an event-kind name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kind, name := range kindNames {
		if name == s {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", s)
}

// Event is one timestamped lifecycle point. At is relative to the
// recording process's epoch (the dispatcher epoch for dispatcher and —
// via the register reply's epoch exchange — executor events). Trace is the
// task's submit-time trace ID, stable across processes and across the EPR
// rewriting a forwarder tier performs, so multi-process span dumps join on
// it.
type Event struct {
	Seq      uint64        `json:"seq"`
	At       time.Duration `json:"at"`
	Kind     EventKind     `json:"kind"`
	Trace    uint64        `json:"trace,omitempty"`
	Task     task.ID       `json:"task,omitempty"`
	EPR      string        `json:"epr,omitempty"`
	Executor string        `json:"exec,omitempty"`
}

// Tracer records lifecycle events into a bounded ring buffer. Recording is
// one short critical section that allocates nothing once the strings it is
// handed are known; a nil *Tracer discards events, so call sites need no
// guards.
//
// The ring holds no pointers, so the collector never scans it (DESIGN.md §8,
// "The trace ring"): a record keeps an event's two strings as indexes into the
// tracer's string table, and its Seq as its position.
type Tracer struct {
	mu sync.Mutex
	// ring holds event seq s at (s-1) % len(ring).
	ring []rec
	last uint64 // seq of the newest event recorded; seqs start at 1
	// strs is the string table the records index, strs[0] == "", and ids
	// indexes the rest. The ring names at most 2*len(ring) strings; a batch
	// that could take the table past 2*len(ring)+2 entries first rebuilds it.
	strs []string
	ids  map[string]uint32
	// epr and exec are the strings the last event named, with their indexes:
	// the next one mostly names the same, as the same string.
	epr, exec   string
	eprI, execI uint32
}

// rec is an Event in the ring: 32 bytes with no pointers.
type rec struct {
	at    time.Duration
	trace uint64
	task  task.ID
	epr   uint32 // the kind in the top byte, over the EPR's index in strs
	exec  uint32 // the executor ID's index in strs
}

// rec.epr's low idxBits are the EPR's index.
const (
	idxBits = 24
	idxMask = 1<<idxBits - 1
)

// NewTracer returns a tracer retaining the last capacity events (default
// 8192 when capacity <= 0, at most 1<<22).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 8192
	}
	capacity = min(capacity, 1<<(idxBits-2))
	return &Tracer{ring: make([]rec, capacity), strs: []string{""}, ids: map[string]uint32{}}
}

// Record appends an event stamped at, attributed to trace (0 when the
// task carries no trace context).
func (t *Tracer) Record(at time.Duration, kind EventKind, trace uint64, id task.ID, epr, exec string) {
	t.RecordAll([]Event{{At: at, Kind: kind, Trace: trace, Task: id, EPR: epr, Executor: exec}})
}

// RecordAll appends events in order under one acquisition of the lock: what
// a handler gathered, or a batch's worth. Their Seq is the order they were
// recorded in; what the caller set there is ignored.
func (t *Tracer) RecordAll(evs []Event) {
	if t == nil || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	size := len(t.ring)
	if n := len(evs) - size; n > 0 {
		t.last += uint64(n) // the older ones would be overwritten
		evs = evs[n:]
	}
	if len(t.strs)+2*len(evs) > 2*size+2 {
		t.rebuild(size - len(evs))
	}
	ring, at := t.ring, int(t.last%uint64(size))
	t.last += uint64(len(evs))
	epr, eprI, exec, execI := t.epr, t.eprI, t.exec, t.execI
	for i := 0; ; {
		// Field by field, and with no call in the loop: a composite literal
		// stored into the ring costs three times as much, and a call makes the
		// loop keep its variables on the stack.
		for ; i < len(evs); i++ {
			ev, r := &evs[i], &ring[at]
			if !same(ev.EPR, epr) || !same(ev.Executor, exec) {
				break
			}
			r.at, r.trace, r.task = ev.At, ev.Trace, ev.Task
			r.epr, r.exec = uint32(ev.Kind)<<idxBits|eprI, execI
			if at++; at == size {
				at = 0
			}
		}
		if i == len(evs) {
			break
		}
		ev := &evs[i]
		if !same(ev.EPR, epr) {
			epr, eprI = ev.EPR, t.index(ev.EPR)
		}
		if !same(ev.Executor, exec) {
			exec, execI = ev.Executor, t.index(ev.Executor)
		}
	}
	t.epr, t.eprI, t.exec, t.execI = epr, eprI, exec, execI
	t.mu.Unlock()
}

// same reports whether a and b are the same string — the same bytes, not only
// equal ones: what the tracer compares a field with the last event's by.
func same(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// index returns s's index in the string table, adding it if it is new.
func (t *Tracer) index(s string) uint32 {
	if s == "" {
		return 0
	}
	i, ok := t.ids[s]
	if !ok {
		i = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.ids[s] = i
	}
	return i
}

// rebuild makes the string table hold only what the newest keep records name
// (the ones the batch about to be written leaves standing), and renumbers them.
func (t *Tracer) rebuild(keep int) {
	old := t.strs
	to := make([]uint32, len(old)) // an old index's new one; 0 until seen
	t.strs = make([]string, 1, len(old))
	clear(t.ids)
	t.epr, t.exec, t.eprI, t.execI = "", "", 0, 0
	renumber := func(i uint32) uint32 {
		if i != 0 && to[i] == 0 {
			to[i] = uint32(len(t.strs))
			t.ids[old[i]] = to[i]
			t.strs = append(t.strs, old[i])
		}
		return to[i]
	}
	size := uint64(len(t.ring))
	for seq := t.last - min(uint64(keep), t.last) + 1; seq <= t.last; seq++ {
		r := &t.ring[(seq-1)%size]
		r.epr = r.epr&^idxMask | renumber(r.epr&idxMask)
		r.exec = renumber(r.exec)
	}
}

// Since returns up to max events with Seq > since in recording order, plus
// the sequence to pass next time. Events older than the ring capacity are
// gone; next always reflects the newest recorded event, so pollers resync
// after a gap.
func (t *Tracer) Since(since uint64, max int) (events []Event, next uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := uint64(len(t.ring))
	from := since + 1
	if t.last > size && from <= t.last-size {
		from = t.last - size + 1 // the oldest the ring holds
	}
	if max <= 0 {
		max = len(t.ring)
	}
	for seq := from; seq <= t.last && len(events) < max; seq++ {
		r := &t.ring[(seq-1)%size]
		events = append(events, Event{Seq: seq, At: r.at, Kind: EventKind(r.epr >> idxBits), Trace: r.trace, Task: r.task,
			EPR: t.strs[r.epr&idxMask], Executor: t.strs[r.exec]})
	}
	return events, t.last
}

// Stage names of the Figure-10-style decomposition. Each task's four stage
// latencies partition [enqueue, deliver] exactly:
//
//	enqueue_notify: task enqueued → executor notified (queue wait; for
//	    pulls not triggered by a push, this absorbs the whole wait)
//	notify_pull:    notification sent → executor's pull assigned the task
//	    (zero when the notification carried the task: a pushed grant)
//	pull_start:     assignment → command start on the executor
//	start_deliver:  command start → result accepted by the dispatcher
const (
	StageEnqueueNotify = "enqueue_notify"
	StageNotifyPull    = "notify_pull"
	StagePullStart     = "pull_start"
	StageStartDeliver  = "start_deliver"
)

// Stages lists the stage names in lifecycle order.
var Stages = []string{StageEnqueueNotify, StageNotifyPull, StagePullStart, StageStartDeliver}

// Metric names shared by recorders (dispatch) and consumers (falkon-top).
const (
	MetricStageSeconds = "falkon_stage_seconds" // labeled stage=<name>
	MetricE2ESeconds   = "falkon_task_e2e_seconds"
)

// StageKey returns the registry key of one stage's latency histogram.
func StageKey(stage string) string { return Labeled(MetricStageSeconds, "stage", stage) }

// TenantKey returns the per-tenant labeled dimension of a metric. The
// unlabeled aggregate series stays unchanged; tenant rows are additive,
// recorded only when the dispatcher runs multi-tenant.
func TenantKey(name, tenant string) string { return Labeled(name, "tenant", tenant) }

// StageTenantKey returns the registry key of one stage's per-tenant
// latency histogram.
func StageTenantKey(stage, tenant string) string {
	return Labeled(MetricStageSeconds, "stage", stage, "tenant", tenant)
}

// MetricTenantThrottled counts submit bundles rejected with a retry-after
// hint by per-tenant admission control (labeled tenant=<name>).
const MetricTenantThrottled = "falkon_tenant_throttled_total"

// Scheduler-overhead stage names: where the dispatcher's own time goes on
// the task hot path, as opposed to the task-lifecycle stages above (which
// measure the task's wait, not the scheduler's work). Per-RPC observations:
//
//	lock_wait:   waiting to acquire the dispatcher mutex
//	sched_core:  scheduling-core work while holding the mutex
//	fx_flush:    applying deferred effects (trace ring, histograms,
//	    notifies, result pushes) after unlock
//	wal_wait:    waiting on the journal's group-commit durability barrier
//	frame_write: encoding the reply envelope + committing it to the cork
//	    buffer (observed inside wsrpc)
//	wal_commit:  one journal commit batch's write + fsync (observed inside
//	    wal as falkon_wal_commit_seconds; committer-side, not per-RPC)
const (
	OverheadLockWait   = "lock_wait"
	OverheadSchedCore  = "sched_core"
	OverheadFxFlush    = "fx_flush"
	OverheadWALWait    = "wal_wait"
	OverheadFrameWrite = "frame_write"
)

// OverheadStages lists the per-RPC overhead stages in hot-path order.
var OverheadStages = []string{OverheadLockWait, OverheadSchedCore, OverheadFxFlush, OverheadWALWait, OverheadFrameWrite}

// Overhead metric names shared by recorders (dispatch, wsrpc, wal) and
// consumers (falkon-top, the repo benchmark's dispatch.* metrics).
const (
	MetricSchedOverheadSeconds = "falkon_sched_overhead_seconds" // labeled stage=<name>
	MetricWALCommitSeconds     = "falkon_wal_commit_seconds"
)

// OverheadKey returns the registry key of one overhead stage's histogram.
func OverheadKey(stage string) string { return Labeled(MetricSchedOverheadSeconds, "stage", stage) }
