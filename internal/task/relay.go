package task

import (
	"strings"
	"sync"
	"time"

	"falkon/internal/jsonwire"
)

// Relayed is a task as a dispatcher holds it (DESIGN.md §9, "Relay"): the five
// things it reads of a task, and the rest of the task's JSON as received, which
// AppendJSON puts back around the ID and trace wherever the task goes next.
// Only an executor decodes a task whole.
type Relayed struct {
	ID         ID
	Trace      uint64
	MaxRetries int
	Declared   time.Duration // what it states it runs for (declared)
	Dataset    string        // IO.Dataset
	// Rest is the task's members after its ID and before a trace other than
	// 0, as received: the task is `{"id":`, ID, Rest, then `,"trace":` and
	// Trace unless Trace is 0, and `}`. The digits of both numbers are not
	// kept twice.
	Rest string
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

// AppendJSON appends the task's JSON. It is the bytes the task was received as:
// neither number has a second decimal form (jsonwire.ParseUint takes no
// leading zero), and a trace of 0 that was sent is still in Rest.
func (t *Relayed) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = jsonwire.AppendUint(dst, uint64(t.ID))
	dst = append(dst, t.Rest...)
	if t.Trace != 0 {
		dst = append(dst, `,"trace":`...)
		dst = jsonwire.AppendUint(dst, t.Trace)
	}
	return append(dst, '}')
}

// rebuilt holds the buffers Task rebuilds a task's bytes in. A buffer that
// grew past maxRebuilt bytes, for a task over forty times the size of the
// repo benchmark's 91 B, is left to the collector.
var rebuilt = sync.Pool{New: func() any { return new([]byte) }}

const maxRebuilt = 4 << 10

// Task decodes the whole task from its bytes, rebuilt in a buffer that serves
// call after call. They are canonical, so ParseJSON reads them all, and copies
// out every string it keeps.
func (t *Relayed) Task() (out Task) {
	buf := rebuilt.Get().(*[]byte)
	*buf = t.AppendJSON((*buf)[:0])
	var r jsonwire.Reader
	r.Reset(*buf)
	out.ParseJSON(&r, &Task{})
	if cap(*buf) <= maxRebuilt {
		rebuilt.Put(buf)
	}
	return out
}

// Relay returns tasks as a dispatcher holds them, each encoded by AppendJSON.
func Relay(tasks []Task) []Relayed {
	out := make([]Relayed, len(tasks))
	var buf []byte
	for i := range tasks {
		t := tasks[i]
		out[i] = Relayed{ID: t.ID, Trace: t.Trace, MaxRetries: t.MaxRetries, Declared: declared(t.Engine, t.Duration)}
		if t.IO != nil {
			out[i].Dataset = t.IO.Dataset
		}
		t.ID, t.Trace = 0, 0
		buf = t.AppendJSON(buf[:0])
		out[i].Rest = string(buf[len(`{"id":0`) : len(buf)-1])
	}
	return out
}

// scratch holds what ReadRelayed reads a bundle's tasks into before it keeps
// them: one pass cannot know how many tasks a bundle has, or how many bytes
// they keep, before it has read them all. A scratch is presized to the
// estimate jsonwire.Reader.Elems makes (at most jsonwire.MaxElems), grown by
// append past it, and put back only when the bundle it served had at most
// maxScratch tasks: the largest bundle this repository sends, its tests'
// 4,096 (the repo benchmark sends 64 and 1). So every scratch the pool keeps
// has served only such bundles, and holds at most 5,034 tasks of 96 B (what
// append grows 1,024 to for 4,096), some 480 KB.
var scratch = sync.Pool{New: func() any { return new([]received) }}

const maxScratch = 4096

// ReadRelayed reads the tasks of an array whose `[` has been consumed, through
// its `]`, as a dispatcher holds them. It reads them in one pass, each as
// Task.ParseJSON would and keeping only what a dispatcher reads, and then
// makes them two allocations of exactly their size: the slice, and one string
// of every task's Rest, of which a dataset whose literal is its contents is a
// substring. Nothing of the reader's document is kept. A reader that failed
// keeps nothing and returns nil.
func ReadRelayed(r *jsonwire.Reader) []Relayed {
	s := scratch.Get().(*[]received)
	rs := (*s)[:0]
	if cap(rs) == 0 {
		rs = make([]received, 0, r.Elems())
	}
	for r.Elem(len(rs)) {
		rs = append(rs, received{})
		rs[len(rs)-1].parseJSON(r)
	}
	var out []Relayed
	if !r.Failed() {
		out = keep(r, rs)
	}
	clear(rs) // an escaped dataset is a string of its own
	if *s = rs[:0]; len(rs) <= maxScratch {
		scratch.Put(s)
	}
	return out
}

// received is a task as parseJSON reads it: what a dispatcher keeps, with its
// Rest and a plain dataset still offsets in the document.
type received struct {
	Relayed
	rest, end int // Rest is the document's [rest, end)
	plain, n  int // and a plain dataset its [plain, plain+n)
}

// parseJSON reads one task into t, which must be zero, as Task.ParseJSON
// reads it — the same jsonwire primitives, members numbered alike, every
// string validated — keeping what a dispatcher reads, and where in the
// document its Rest and its dataset are, when the dataset's literal is its
// contents.
func (t *received) parseJSON(r *jsonwire.Reader) {
	r.Expect(`{"id":`)
	t.ID = ID(r.Uint())
	t.rest = r.Mark()
	var engine Engine
	var duration time.Duration
	for last := 0; ; {
		at, mark := 0, r.Mark()
		switch string(r.Key(false)) {
		case "":
			r.Expect(`}`)
			if t.Declared = declared(engine, duration); t.end == 0 {
				t.end = mark
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
						t.plain, t.n = open+1, len(b) // the literal is its contents
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
			if at, t.Trace = 10, r.Uint(); t.Trace != 0 {
				t.end = mark // the last member: AppendJSON writes it back
			}
		}
		last = r.InOrder(last, at)
	}
}

// keep makes the tasks parseJSON read from r's document into what a
// dispatcher holds.
func keep(r *jsonwire.Reader, rs []received) []Relayed {
	n := 0
	for i := range rs {
		n += rs[i].end - rs[i].rest
	}
	var b strings.Builder
	b.Grow(n)
	for i := range rs {
		b.Write(r.Between(rs[i].rest, rs[i].end))
	}
	all, at := b.String(), 0
	out := make([]Relayed, len(rs))
	for i := range rs {
		t := &rs[i]
		out[i] = t.Relayed
		out[i].Rest = all[at : at+t.end-t.rest]
		if t.n > 0 {
			out[i].Dataset = out[i].Rest[t.plain-t.rest : t.plain-t.rest+t.n]
		}
		at += t.end - t.rest
	}
	return out
}
