package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"

	"falkon/internal/task"
)

// span is one interval the benchmark recorded around its own calls, in
// nanoseconds since the driver's epoch. Parent is the span that caused it;
// the spans of one task share Task.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent uint64 `json:"parent"`
	ID     uint64 `json:"id"`
	Task   uint64 `json:"task,omitempty"`
}

// Span IDs are made, not drawn: the kind in the high bits, the bundle or
// task index of the traced window in the low ones.
const (
	spanWindow = 1
	spanSubmit = 1 << 40
	spanTask   = 2 << 40
	spanQueue  = 3 << 40
	spanPickup = 4 << 40
	spanRun    = 5 << 40
)

// spanRing keeps the newest spans in memory it allocated up front, so
// recording costs a store and never the allocator. One goroutine owns it.
type spanRing struct {
	buf []span
	n   uint64
}

const spanRingSize = 1 << 15

func newSpanRing() spanRing { return spanRing{buf: make([]span, spanRingSize)} }

func (r *spanRing) add(s span) {
	r.buf[r.n%spanRingSize] = s
	r.n++
}

// each visits the retained spans, oldest first.
func (r *spanRing) each(fn func(span)) {
	start := uint64(0)
	if r.n > spanRingSize {
		start = r.n - spanRingSize
	}
	for i := start; i < r.n; i++ {
		fn(r.buf[i%spanRingSize])
	}
}

// tracer is the traced window's recorder: spans around every Submit call
// and every task, and a histogram per stage. The submitting goroutine owns
// submits and submitCall, the receiving goroutine everything else.
//
// A task's span runs from its Submit call to the arrival of its result on
// the client's clock. Its children queue / pickup / run are synthesised
// from the Result stamps, which are on the dispatcher's epoch: they
// partition FinishedAt−QueuedAt, and are centred in the task span, as if
// both wire legs took equally long. The task span's self time — what its
// children do not cover — is both wire legs plus the client's own work.
type tracer struct {
	submits spanRing
	tasks   spanRing

	submitCall, queue, pickup, run, outside hist
	// negOutside counts tasks whose children outlast the task span: the
	// Result stamps and the client's clock disagree.
	negOutside uint64
}

func newTracer() *tracer {
	return &tracer{submits: newSpanRing(), tasks: newSpanRing()}
}

func (t *tracer) submitDone(bundle uint64, start, end int64) {
	t.submitCall.add(end - start)
	t.submits.add(span{Name: "submit", Start: start, End: end, Parent: spanWindow, ID: spanSubmit | bundle})
}

func (t *tracer) taskDone(idx, bundle uint64, start, end int64, r task.Result) {
	queue := int64(r.DispatchedAt - r.QueuedAt)
	pickup := int64(r.StartedAt - r.DispatchedAt)
	run := int64(r.FinishedAt - r.StartedAt)
	outside := end - start - (queue + pickup + run)
	if outside < 0 {
		t.negOutside++
		outside = 0
	}
	t.queue.add(queue)
	t.pickup.add(pickup)
	t.run.add(run)
	t.outside.add(outside)

	id := uint64(r.ID)
	t.tasks.add(span{Name: "task", Start: start, End: end, Parent: spanSubmit | idx/bundle, ID: spanTask | idx, Task: id})
	at := start + outside/2
	t.tasks.add(span{Name: "queue", Start: at, End: at + queue, Parent: spanTask | idx, ID: spanQueue | idx, Task: id})
	at += queue
	t.tasks.add(span{Name: "pickup", Start: at, End: at + pickup, Parent: spanTask | idx, ID: spanPickup | idx, Task: id})
	at += pickup
	t.tasks.add(span{Name: "run", Start: at, End: at + run, Parent: spanTask | idx, ID: spanRun | idx, Task: id})
}

// write dumps the window span, then the retained submit and task spans, as
// JSON lines.
func (t *tracer) write(path string, window span, extra ...span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(s span) {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	for _, s := range extra {
		emit(s)
	}
	emit(window)
	t.submits.each(emit)
	t.tasks.each(emit)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
