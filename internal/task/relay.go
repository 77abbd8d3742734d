package task

import (
	"strconv"
	"strings"
	"time"
	"unsafe"

	"falkon/internal/jsonwire"
)

// Relayed is a task as a dispatcher holds it (DESIGN.md §9, "Relay"): the
// three numbers it reads of a task, and the rest of the task's JSON as
// received, which AppendJSON puts back around the ID and trace wherever the
// task goes next. The two more things it reads, the dataset and the retry
// bound, are read from those bytes (Dataset, MaxRetries). Only an executor
// decodes a task whole.
//
// It is 48 bytes, so that a 64-task bundle's heads and their 8-byte malloc
// header fill 3,080 bytes of the 3,200-byte size class. bytes is Rest, then a
// dataset Rest does not hold as written; restLen is Rest's length (a task
// came in one frame or journal record of at most 64 MiB), and dsAt and dsLen
// are where in Rest a dataset it holds as written is.
type Relayed struct {
	ID          ID
	Trace       uint64
	Declared    time.Duration // what it states it runs for (declared)
	bytes       string
	restLen     uint32
	dsAt, dsLen uint16
}

// wholeBit is the bit of restLen that is Whole; Rest is never that long.
const wholeBit = 1 << 31

// Rest is the task's members after its ID and before a trace other than 0, as
// received: the task is `{"id":`, ID, Rest, then `,"trace":` and Trace unless
// Trace is 0, and `}`. The digits of both numbers are not kept twice.
func (t *Relayed) Rest() string { return t.bytes[:t.restLen&^wholeBit] }

// Whole reports whether Declared is the task's whole run time: a sleep task's,
// or a data task's that names no io. A data task that does is staged for a
// time its executor prices on a cache miss (executor.Options.DataCost), which
// the task does not state; exec and func tasks state none.
func (t *Relayed) Whole() bool { return t.restLen&wholeBit != 0 }

// Dataset is the dataset the task names (IO.Dataset), or "".
func (t *Relayed) Dataset() string {
	if end := int(t.restLen &^ wholeBit); len(t.bytes) > end {
		return t.bytes[end:]
	}
	return t.bytes[t.dsAt : int(t.dsAt)+int(t.dsLen)]
}

// MaxRetries is the retry bound the task states, or 0, read from Rest with no
// allocation each time a replay asks. Rest holds `,"max_retries":` nowhere but
// as that member: a quote inside a string literal is escaped, and the task's
// reader takes no member it does not know.
func (t *Relayed) MaxRetries() int {
	const key = `,"max_retries":`
	rest := t.Rest()
	i := strings.Index(rest, key)
	if i < 0 {
		return 0
	}
	rest = rest[i+len(key):]
	if j := strings.IndexByte(rest, ','); j >= 0 {
		rest = rest[:j]
	}
	n, _ := strconv.Atoi(rest) // validated as an int when the task was received
	return n
}

// declared is the run time a task states for itself: the synthetic engines'
// Duration (the paper's client-supplied runtime estimate), and whether that is
// the whole of it (Relayed.Whole): io says the task names an io. Exec and func
// tasks state none.
func declared(e Engine, d time.Duration, io bool) (time.Duration, bool) {
	if e == EngineSleep || e == EngineData {
		return d, e == EngineSleep || !io
	}
	return 0, false
}

// AppendJSON appends the task's JSON. It is the bytes the task was received as:
// neither number has a second decimal form (jsonwire.ParseUint takes no
// leading zero), and a trace of 0 that was sent is still in Rest.
func (t *Relayed) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = jsonwire.AppendUint(dst, uint64(t.ID))
	dst = append(dst, t.Rest()...)
	if t.Trace != 0 {
		dst = append(dst, `,"trace":`...)
		dst = jsonwire.AppendUint(dst, t.Trace)
	}
	return append(dst, '}')
}

// Relay returns tasks as a dispatcher holds them, each encoded by AppendJSON:
// the fallback for what ReadRelayed refuses, once encoding/json has read it.
// It reads their canonical encoding as a submit's is read, so a task is held
// alike whichever way it came.
func Relay(tasks []Task) []Relayed {
	if tasks == nil {
		tasks = []Task{} // an array, not null: the tasks are a non-nil []
	}
	var r jsonwire.Reader
	r.Reset(AppendArray(nil, tasks, (*Task).AppendJSON))
	r.Expect(`[`)
	out := ReadRelayed(&r, new(Scratch))
	if !r.OK() {
		panic("task: ReadRelayed refuses what Task.AppendJSON writes")
	}
	return out
}

// Scratch is what ReadRelayed reads a bundle's tasks into before it keeps
// them: one pass cannot know how many tasks a bundle has, or how many bytes
// they keep, before it has read them all. It is owned by whoever decodes — a
// dispatcher's is the connection's the submit came in on (DESIGN.md §9,
// "Scratch") — and used by one decode at a time. It grows by append to the
// largest bundle its owner reads, and is made anew, as a connection's read
// buffer is, once it is over 1 MiB and a bundle uses under an eighth of it.
//
// It also keeps the two chunks a small bundle is carved from (keep): its
// heads, and its bytes. A chunk is never written where it has handed
// something out, so keeping any of a bundle's tasks keeps at most one chunk
// of each kind.
type Scratch struct {
	rs    []received
	tails []byte          // the datasets a bundle's Rest does not hold as written, in task order; dropped once over 1 MiB
	heads []Relayed       // the unused tail of the chunk small bundles' heads are carved from
	full  int             // the capacity of that chunk
	bytes strings.Builder // and of their bytes; a Builder never rewrites what it has handed out
}

// A full chunk is 85 heads, which with the 8-byte malloc header a
// pointer-bearing object over 512 bytes carries fill 4,088 bytes of the
// 4,096-byte size class, or 4,096 bytes. A bundle is small, and carved, when it
// fills at most an eighth of both: at most 10 tasks.
const (
	chunkHeads = (4<<10 - 8) / int(unsafe.Sizeof(Relayed{}))
	chunkBytes = 4 << 10
)

// ReadRelayed reads the tasks of an array whose `[` has been consumed, through
// its `]`, as a dispatcher holds them, in s. It reads them in one pass, each as
// Task.ParseJSON would and keeping only what a dispatcher reads, and then
// keeps them as two things: the slice, and one string of every task's Rest, of
// which a dataset whose literal is its contents is a substring, and after each
// Rest any other dataset's contents — carved from s's chunks for a small
// bundle, or allocated at exactly their size (keep). Nothing of the reader's
// document is kept. A reader that failed keeps nothing and returns nil.
func ReadRelayed(r *jsonwire.Reader, s *Scratch) []Relayed {
	rs := s.rs[:0]
	if cap(rs) == 0 {
		rs = make([]received, 0, r.Elems())
	}
	s.tails = s.tails[:0]
	for r.Elem(len(rs)) {
		rs = append(rs, received{})
		rs[len(rs)-1].parseJSON(r, &s.tails)
	}
	var out []Relayed
	if !r.Failed() {
		out = keep(r, rs, s)
	}
	if cap(rs)*int(unsafe.Sizeof(received{})) > 1<<20 && len(rs) < cap(rs)/8 {
		rs = nil
	}
	if cap(s.tails) > 1<<20 {
		s.tails = nil
	}
	s.rs = rs[:0]
	return out
}

// received is a task as parseJSON reads it: what a dispatcher keeps, with its
// Rest still offsets in the document.
type received struct {
	Relayed
	rest, end int // Rest is the document's [rest, end)
	tail      int // and the next tail bytes of the Scratch's tails its dataset
}

// parseJSON reads one task into t, which must be zero, as Task.ParseJSON
// reads it — the same jsonwire primitives, members numbered alike, every
// string validated — keeping what a dispatcher reads, and where in the
// document its Rest is and in Rest its dataset, when the literal is its
// contents and the head's fields hold its place; any other dataset goes on tails.
func (t *received) parseJSON(r *jsonwire.Reader, tails *[]byte) {
	r.Expect(`{"id":`)
	t.ID = ID(r.Uint())
	t.rest = r.Mark()
	var engine Engine
	var duration time.Duration
	var io bool
	for last := 0; ; {
		at, mark := 0, r.Mark()
		switch string(r.Key(false)) {
		case "":
			r.Expect(`}`)
			var whole bool
			if t.Declared, whole = declared(engine, duration, io); whole {
				t.restLen = wholeBit // keep adds Rest's length
			}
			if t.end == 0 {
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
			at, io = 6, true
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
					b := r.Str()
					if off := open + 1 - t.rest; r.Mark()-open-2 == len(b) && off < 1<<16 && len(b) < 1<<16 {
						t.dsAt, t.dsLen = uint16(off), uint16(len(b)) // the literal is its contents
					} else {
						*tails, t.tail = append(*tails, b...), len(b)
					}
				}
				last = r.InOrder(last, at)
			}
		case "duration":
			at, duration = 7, time.Duration(r.Int64())
		case "max_retries":
			at, _ = 8, r.Int() // read again from Rest on replay (MaxRetries)
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
// dispatcher holds. A small bundle — at most an eighth of a full chunk of
// heads and of bytes — is carved from s's chunks (carve), so that a run of
// them shares two allocations; any other, the empty one too (a non-nil []),
// is two allocations of exactly its size.
func keep(r *jsonwire.Reader, rs []received, s *Scratch) []Relayed {
	n := len(s.tails)
	for i := range rs {
		n += rs[i].end - rs[i].rest
	}
	var out []Relayed
	var all string
	if len(rs) > 0 && len(rs) <= chunkHeads/8 && n <= chunkBytes/8 {
		out, all = s.carve(r, rs, n)
	} else {
		var b strings.Builder
		b.Grow(n)
		s.write(&b, r, rs)
		out, all = make([]Relayed, len(rs)), b.String()
	}
	at := 0
	for i := range rs {
		t := &rs[i]
		n := t.end - t.rest + t.tail
		out[i] = t.Relayed
		out[i].bytes, out[i].restLen = all[at:at+n], t.restLen|uint32(t.end-t.rest)
		at += n
	}
	return out
}

// write writes the bytes rs keep to b: each one's Rest, from r's document, and
// after it its tail of s's tails.
func (s *Scratch) write(b *strings.Builder, r *jsonwire.Reader, rs []received) {
	tails := s.tails
	for i := range rs {
		b.Write(r.Between(rs[i].rest, rs[i].end))
		b.Write(tails[:rs[i].tail])
		tails = tails[rs[i].tail:]
	}
}

// carve cuts the heads of rs, clipped so that appending to them cannot reach
// the next bundle's, and their n bytes from s's chunks. A chunk without room
// is replaced by one with twice its room, or the need if more, up to a full
// chunk, as jsonwire.Reader.room grows a kept reader's: a Scratch used once
// allocates what an exactly-sized bundle would.
func (s *Scratch) carve(r *jsonwire.Reader, rs []received, n int) ([]Relayed, string) {
	if len(rs) > len(s.heads) {
		s.full = min(max(len(rs), 2*s.full), chunkHeads)
		s.heads = make([]Relayed, s.full)
	}
	heads := s.heads[:len(rs):len(rs)]
	s.heads = s.heads[len(rs):]
	if n > s.bytes.Cap()-s.bytes.Len() {
		grow := min(max(n, 2*s.bytes.Cap()), chunkBytes)
		s.bytes.Reset()
		s.bytes.Grow(grow)
	}
	off := s.bytes.Len()
	s.write(&s.bytes, r, rs)
	return heads, s.bytes.String()[off:]
}
