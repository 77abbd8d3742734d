package task

import (
	"time"

	"falkon/internal/jsonwire"
)

// Relayed is a task as a dispatcher holds it (DESIGN.md §9, "Relay"): the five
// things it reads of a task, and the task's JSON as received, which it appends
// wherever the task goes next. Only an executor decodes a task whole.
type Relayed struct {
	ID         ID
	Trace      uint64
	MaxRetries int
	Declared   time.Duration // what it states it runs for (declared)
	Dataset    string        // IO.Dataset
	// JSON is what Task.AppendJSON emits, or a span of a message that
	// Task.ParseJSON reads without a fallback.
	JSON string
}

// declared is the run time a task states for itself: the synthetic engines'
// Duration (the paper's client-supplied runtime estimate). Exec and func
// tasks state none.
func declared(e Engine, d time.Duration) time.Duration {
	if e == EngineSleep || e == EngineData {
		return d
	}
	return 0
}

// AppendJSON appends the task's JSON, as received.
func (t *Relayed) AppendJSON(dst []byte) []byte { return append(dst, t.JSON...) }

// Task decodes the whole task. JSON is canonical, so ParseJSON reads it all.
func (t *Relayed) Task() (out Task) {
	var r jsonwire.Reader
	r.Reset([]byte(t.JSON))
	out.ParseJSON(&r, &Task{})
	return out
}

// Relay returns tasks as a dispatcher holds them, each encoded by AppendJSON.
func Relay(tasks []Task) []Relayed {
	out := make([]Relayed, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		out[i] = Relayed{ID: t.ID, Trace: t.Trace, MaxRetries: t.MaxRetries, Declared: declared(t.Engine, t.Duration), JSON: string(t.AppendJSON(nil))}
		if t.IO != nil {
			out[i].Dataset = t.IO.Dataset
		}
	}
	return out
}

// ParseJSON reads one task into t, which must be zero, as Task.ParseJSON reads
// it — the same jsonwire primitives, members numbered alike, every string
// validated — keeping what a dispatcher reads, and the task's bytes as a span
// of one copy of the document (jsonwire.Reader.Span), as is a plain dataset.
func (t *Relayed) ParseJSON(r *jsonwire.Reader) {
	from := r.Mark()
	r.Expect(`{"id":`)
	t.ID = ID(r.Uint())
	var engine Engine
	var duration time.Duration
	plain, n := -1, 0 // the plain dataset's offset in the span, and length
	for last := 0; ; {
		var at int
		switch string(r.Key(false)) {
		case "":
			r.Expect(`}`)
			if t.JSON, t.Declared = r.Span(from), declared(engine, duration); plain >= 0 && t.JSON != "" {
				t.Dataset = t.JSON[plain : plain+n]
			}
			return
		case "engine":
			at, engine = 1, Engine(r.Uint8())
		case "dir":
			at, _ = 2, r.Str()
		case "command":
			at, _ = 3, r.Str()
		case "args":
			at = 4
			r.SkipStrings()
		case "env":
			at = 5
			r.SkipStrings()
		case "io":
			at = 6
			r.Expect(`{`)
		io:
			for last := 0; ; {
				var at int
				switch string(r.Key(last == 0)) {
				case "":
					r.Expect(`}`)
					break io
				case "read_bytes":
					at, _ = 1, r.Int64()
				case "write_bytes":
					at, _ = 2, r.Int64()
				case "location":
					at, _ = 3, r.Str()
				case "dataset":
					at = 4
					open := r.Mark()
					if b := r.Str(); r.Mark()-open-2 == len(b) {
						plain, n = open+1-from, len(b) // the literal is its contents
					} else {
						t.Dataset = string(b)
					}
				}
				last = r.InOrder(last, at)
			}
		case "duration":
			at, duration = 7, time.Duration(r.Int64())
		case "max_retries":
			at, t.MaxRetries = 8, r.Int()
		case "stage":
			at, _ = 9, r.Int()
		case "trace":
			at, t.Trace = 10, r.Uint()
		}
		last = r.InOrder(last, at)
	}
}
