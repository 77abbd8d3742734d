package fproto

import (
	"encoding/json"
	"time"

	"falkon/internal/jsonwire"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// The body codec (DESIGN.md §9): hand-written JSON for the eight messages
// that carry tasks or run once per task — Submit, GetWork and Deliver with
// their replies, and the WorkAvailable and Results pushes. Everything else
// in this package is cold and stays on encoding/json.
//
// AppendJSON emits what json.Marshal would (field order, omitempty, null
// for a nil non-omitempty slice) up to string escapes that decode the same,
// so any peer's json.Unmarshal reads it. DecodeJSON overwrites its receiver
// and accepts exactly what json.Unmarshal into a zero value accepts, with
// the same result: the canonical layout both encoders emit is parsed in one
// reflection-free pass, and anything else — unknown or reordered keys,
// whitespace, a value that is malformed or out of range — is handed, whole,
// to json.Unmarshal. None of these types implements json.Marshaler or
// json.Unmarshaler, which keeps encoding/json an independent oracle for the
// differential tests.
//
// The body a decoder is given aliases the connection's read buffer, so it
// copies every string it keeps. A message's one slice is decoded into the
// array the receiver already holds (room): whoever keeps a message value from
// one decode to the next keeps its memory (DESIGN.md §9, "Scratch").

// CodecFallbacks counts bodies DecodeJSON handed to encoding/json, in this
// process. Peers running this code only ever send the canonical layout, so
// it stays at zero unless something else is on the wire.
var CodecFallbacks obs.Counter

// NoteCodec adds the process's codec counter to a /metrics snapshot, as
// falkon_codec_fallbacks_total, and returns the snapshot.
func NoteCodec(s obs.MetricsSnapshot) obs.MetricsSnapshot {
	s.Counters["falkon_codec_fallbacks_total"] = CodecFallbacks.Value()
	return s
}

// Intern maps the bytes of a string on the wire to an equal string the
// decoding side already holds — an instance's EPR, a registered executor's
// ID — so that one is not allocated per message. It returns "" when it
// holds none; a nil Intern holds none.
type Intern func(b []byte) string

// Seen is the Intern of the executor IDs a holder of results has been sent: an
// ID is allocated the first time it comes and shared by every message after
// that names it. It holds maxSeen at most; the next new ID starts it over. A
// Seen is used by one decoder at a time.
type Seen struct{ ids map[string]string }

const maxSeen = 4096

// Intern returns the ID b spells, as Seen holds it.
func (s *Seen) Intern(b []byte) string {
	id, ok := s.ids[string(b)]
	if !ok {
		if s.ids == nil || len(s.ids) >= maxSeen {
			s.ids = make(map[string]string)
		}
		id = string(b)
		s.ids[id] = id
	}
	return id
}

// finish ends a DecodeJSON: a body the reader could not take whole goes to
// encoding/json, whose result replaces whatever the reader had filled in.
// (It decodes into a value of its own so that m does not escape and callers'
// messages stay on their stacks.)
func finish[T any](r *jsonwire.Reader, b []byte, m *T) error {
	if r.OK() {
		return nil
	}
	CodecFallbacks.Inc()
	v := new(T)
	err := json.Unmarshal(b, v)
	*m = *v
	return err
}

// Scribble is a hook for tests: it is handed every slice of scratch, to its
// capacity, as its owner recycles it, and overwrites it — whatever still reads
// the message before reads garbage, and nothing may notice. Nil outside tests.
var Scribble func(scratch any)

// Recycle empties a slice of scratch its owner has finished with.
func Recycle[T any](s []T) []T {
	if Scribble != nil {
		Scribble(s[:cap(s)])
	}
	return s[:0]
}

// room readies the slice a message value holds for a decode of n elements,
// the estimate jsonwire.Reader.Elems makes from the length of the message's
// first element: in the canonical layout elements of one message differ only
// in their numbers' digits and their strings, so the estimate is close and the
// slice is allocated once (the reader sizes the chunks the elements' strings
// share by the same estimate). It is the array the value has, emptied, unless
// that is too short — or longer than any estimate presizes, which is how one
// huge message's array is not kept for ever.
func room[T any](s []T, n int) []T {
	if s == nil || cap(s) < n || cap(s) > jsonwire.MaxElems {
		return make([]T, 0, n)
	}
	return Recycle(s)
}

// settle ends a decode into a reused array: what a longer message left past
// the end of now is zeroed, so that nothing unreadable keeps its strings alive.
func settle[T any](now, was []T) {
	if len(was) > len(now) {
		clear(was[len(now):])
	}
}

// remembered is the first element of the message a held value was decoded into
// last (zero for a fresh value, or one its holder emptied), taken before the
// array is recycled: this message's first element offers it as `like`, so a
// connection that says the same command, EPR or executor ID message after
// message allocates them once. What is remembered is only compared against
// (DESIGN.md §11, invariants): a field the message leaves out decodes empty.
func remembered[T any](was []T) (first T) {
	if len(was) > 0 {
		first = was[0]
	}
	return first
}

// AppendJSON appends m's JSON encoding to dst.
func (m SubmitRequest) AppendJSON(dst []byte) []byte {
	return appendSubmit(dst, m.EPR, m.Tasks, (*task.Task).AppendJSON)
}

// AppendJSON appends m's JSON encoding to dst: a SubmitRequest's, each task's
// as received. It is what a tree's interior node sends a leaf.
func (m *Bundle) AppendJSON(dst []byte) []byte {
	return appendSubmit(dst, m.EPR, m.Tasks, (*task.Relayed).AppendJSON)
}

func appendSubmit[T any](dst []byte, epr string, tasks []T, appendTask func(*T, []byte) []byte) []byte {
	dst = append(dst, `{"epr":`...)
	dst = jsonwire.AppendString(dst, epr)
	dst = append(dst, `,"tasks":`...)
	return append(task.AppendArray(dst, tasks, appendTask), '}')
}

// DecodeJSON decodes b into m.
func (m *SubmitRequest) DecodeJSON(b []byte) error {
	var r jsonwire.Reader
	r.Reset(b)
	was := m.Tasks
	*m = SubmitRequest{}
	r.Expect(`{"epr":`)
	m.EPR = r.String("")
	r.Expect(`,"tasks":`)
	if !r.Lit(`null`) {
		r.Expect(`[`)
		first := remembered(was)
		m.Tasks = room(was, r.Elems())
		for prev := &first; r.Elem(len(m.Tasks)); {
			m.Tasks = append(m.Tasks, task.Task{})
			t := &m.Tasks[len(m.Tasks)-1]
			t.ParseJSON(&r, prev)
			prev = t
		}
	}
	r.Expect(`}`)
	settle(m.Tasks, was)
	return finish(&r, b, m)
}

// DecodeInterned decodes b, a SubmitRequest's JSON, into m, with the EPR
// shared through known, and the tasks read in one pass and kept as a
// dispatcher holds them (task.ReadRelayed). A body outside the canonical
// layout goes to encoding/json, is counted, and has its tasks encoded again.
func (m *Bundle) DecodeInterned(b []byte, known Intern) error {
	var r jsonwire.Reader
	r.Reset(b)
	*m = Bundle{}
	r.Expect(`{"epr":`)
	m.EPR = r.Interned("", known)
	r.Expect(`,"tasks":`)
	if !r.Lit(`null`) {
		r.Expect(`[`)
		m.Tasks = task.ReadRelayed(&r)
	}
	r.Expect(`}`)
	if r.OK() {
		return nil
	}
	var req SubmitRequest
	err := finish(&r, b, &req)
	*m = Bundle{EPR: req.EPR, Tasks: task.Relay(req.Tasks)}
	return err
}

// AppendJSON appends m's JSON encoding to dst.
func (m SubmitReply) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = jsonwire.AppendInt(dst, int64(m.Accepted))
	if m.Deduped != 0 {
		dst = append(dst, `,"deduped":`...)
		dst = jsonwire.AppendInt(dst, int64(m.Deduped))
	}
	if m.RetryAfterMillis != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = jsonwire.AppendInt(dst, m.RetryAfterMillis)
	}
	return append(dst, '}')
}

// DecodeJSON decodes b into m.
func (m *SubmitReply) DecodeJSON(b []byte) error {
	var r jsonwire.Reader
	r.Reset(b)
	*m = SubmitReply{}
	r.Expect(`{"accepted":`)
	m.Accepted = r.Int()
	if r.Lit(`,"deduped":`) {
		m.Deduped = r.Int()
	}
	if r.Lit(`,"retry_after_ms":`) {
		m.RetryAfterMillis = r.Int64()
	}
	r.Expect(`}`)
	return finish(&r, b, m)
}

// AppendJSON appends m's JSON encoding to dst.
func (m GetWorkRequest) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"executor_id":`...)
	dst = jsonwire.AppendString(dst, m.ExecutorID)
	dst = append(dst, `,"max":`...)
	dst = jsonwire.AppendInt(dst, int64(m.Max))
	return append(dst, '}')
}

// DecodeJSON decodes b into m.
func (m *GetWorkRequest) DecodeJSON(b []byte) error { return m.DecodeInterned(b, nil) }

// DecodeInterned is DecodeJSON with the executor ID shared through known.
func (m *GetWorkRequest) DecodeInterned(b []byte, known Intern) error {
	var r jsonwire.Reader
	r.Reset(b)
	*m = GetWorkRequest{}
	r.Expect(`{"executor_id":`)
	m.ExecutorID = r.Interned("", known)
	r.Expect(`,"max":`)
	m.Max = r.Int()
	r.Expect(`}`)
	return finish(&r, b, m)
}

// appendAssignments appends the whole `{"assignments":[...]}` object that is
// GetWorkReply (DeliverReply) and RelayReply alike.
func appendAssignments[A any, P interface {
	*A
	appendJSON(dst []byte) []byte
}](dst []byte, as []A) []byte {
	if len(as) == 0 {
		return append(dst, `{}`...)
	}
	dst = append(dst, `{"assignments":[`...)
	for i := range as {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = P(&as[i]).appendJSON(dst)
	}
	return append(dst, `]}`...)
}

// openAssignment and closeAssignment write an assignment's JSON around its
// task: only the task differs between the two kinds of element.
func openAssignment(dst []byte, epr string) []byte {
	dst = append(dst, `{"epr":`...)
	dst = jsonwire.AppendString(dst, epr)
	return append(dst, `,"task":`...)
}

func closeAssignment(dst []byte, cacheHit bool) []byte {
	if cacheHit {
		dst = append(dst, `,"cache_hit":true`...)
	}
	return append(dst, '}')
}

func (a *Assignment) appendJSON(dst []byte) []byte {
	return closeAssignment(a.Task.AppendJSON(openAssignment(dst, a.EPR)), a.CacheHit)
}

func (a *Relay) appendJSON(dst []byte) []byte {
	return closeAssignment(a.Task.AppendJSON(openAssignment(dst, a.EPR)), a.CacheHit)
}

// parseAssignments is appendAssignments' inverse, up to the reader's end,
// into the array of was, the assignments the reply held before.
func parseAssignments(r *jsonwire.Reader, was []Assignment) []Assignment {
	as := was[:0]
	r.Expect(`{`)
	if r.Lit(`"assignments":[`) {
		first := remembered(was)
		as = room(was, r.Elems())
		for prev := &first; r.Elem(len(as)); {
			as = append(as, Assignment{})
			a := &as[len(as)-1]
			r.Expect(`{"epr":`)
			a.EPR = r.String(prev.EPR)
			r.Expect(`,"task":`)
			a.Task.ParseJSON(r, &prev.Task)
			if r.Lit(`,"cache_hit":`) {
				a.CacheHit = r.Bool()
			}
			r.Expect(`}`)
			prev = a
		}
	}
	r.Expect(`}`)
	settle(as, was)
	return as
}

// AppendJSON appends m's JSON encoding to dst.
func (m GetWorkReply) AppendJSON(dst []byte) []byte { return appendAssignments(dst, m.Assignments) }

// DecodeJSON decodes b into m.
func (m *GetWorkReply) DecodeJSON(b []byte) error {
	var r jsonwire.Reader
	r.Reset(b)
	*m = GetWorkReply{Assignments: parseAssignments(&r, m.Assignments)}
	return finish(&r, b, m)
}

// AppendJSON appends m's JSON encoding to dst.
func (m RelayReply) AppendJSON(dst []byte) []byte { return appendAssignments(dst, m.Assignments) }

// AppendJSON appends m's JSON encoding to dst.
func (m DeliverRequest) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"executor_id":`...)
	dst = jsonwire.AppendString(dst, m.ExecutorID)
	if len(m.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range m.Results {
			tr := &m.Results[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"epr":`...)
			dst = jsonwire.AppendString(dst, tr.EPR)
			dst = append(dst, `,"result":`...)
			dst = tr.Result.AppendJSON(dst)
			dst = append(dst, `,"run_dur":`...)
			dst = jsonwire.AppendInt(dst, int64(tr.RunDur))
			if tr.OverheadDur != 0 {
				dst = append(dst, `,"overhead_dur":`...)
				dst = jsonwire.AppendInt(dst, int64(tr.OverheadDur))
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if m.WantWork {
		dst = append(dst, `,"want_work":true`...)
	}
	if m.MaxNew != 0 {
		dst = append(dst, `,"max_new":`...)
		dst = jsonwire.AppendInt(dst, int64(m.MaxNew))
	}
	return append(dst, '}')
}

// DecodeJSON decodes b into m.
func (m *DeliverRequest) DecodeJSON(b []byte) error { return m.DecodeInterned(b, nil) }

// DecodeInterned is DecodeJSON with the executor ID and the results' EPRs
// shared through known. A result that names an executor (this repo's
// executors leave it to the request) shares the request's when it is the same.
func (m *DeliverRequest) DecodeInterned(b []byte, known Intern) error {
	var r jsonwire.Reader
	r.Reset(b)
	was := m.Results
	*m = DeliverRequest{Results: was[:0]}
	r.Expect(`{"executor_id":`)
	m.ExecutorID = r.Interned("", known)
	if r.Lit(`,"results":[`) {
		first := remembered(was)
		first.Result.ExecutorID = m.ExecutorID
		m.Results = room(was, r.Elems())
		for prev := &first; r.Elem(len(m.Results)); {
			m.Results = append(m.Results, TaggedResult{})
			tr := &m.Results[len(m.Results)-1]
			r.Expect(`{"epr":`)
			tr.EPR = r.Interned(prev.EPR, known)
			r.Expect(`,"result":`)
			tr.Result.ParseJSON(&r, &prev.Result, known)
			r.Expect(`,"run_dur":`)
			tr.RunDur = time.Duration(r.Int64())
			if r.Lit(`,"overhead_dur":`) {
				tr.OverheadDur = time.Duration(r.Int64())
			}
			r.Expect(`}`)
			prev = tr
		}
	}
	if r.Lit(`,"want_work":`) {
		m.WantWork = r.Bool()
	}
	if r.Lit(`,"max_new":`) {
		m.MaxNew = r.Int()
	}
	r.Expect(`}`)
	settle(m.Results, was)
	return finish(&r, b, m)
}

// AppendJSON appends m's JSON encoding to dst.
func (m WorkAvailable) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"queued":`...)
	dst = jsonwire.AppendInt(dst, int64(m.Queued))
	return append(dst, '}')
}

// DecodeJSON decodes b into m.
func (m *WorkAvailable) DecodeJSON(b []byte) error {
	var r jsonwire.Reader
	r.Reset(b)
	*m = WorkAvailable{}
	r.Expect(`{"queued":`)
	m.Queued = r.Int()
	r.Expect(`}`)
	return finish(&r, b, m)
}

// AppendJSON appends m's JSON encoding to dst.
func (m ResultsNotify) AppendJSON(dst []byte) []byte {
	return appendResults(dst, m.EPR, m.Results, (*task.Result).AppendJSON)
}

// AppendJSON appends m's JSON encoding to dst: a ResultsNotify's, each result
// without the four fields its receiver sets.
func (m *ParentResults) AppendJSON(dst []byte) []byte {
	return appendResults(dst, m.EPR, m.Results, func(r *task.Result, dst []byte) []byte {
		up := *r
		up.QueuedAt, up.DispatchedAt, up.Attempts, up.Trace = 0, 0, 0, 0
		return up.AppendJSON(dst)
	})
}

func appendResults(dst []byte, epr string, rs []task.Result, appendResult func(*task.Result, []byte) []byte) []byte {
	dst = append(dst, `{"epr":`...)
	dst = jsonwire.AppendString(dst, epr)
	dst = append(dst, `,"results":`...)
	return append(task.AppendArray(dst, rs, appendResult), '}')
}

// DecodeJSON decodes b into m.
func (m *ResultsNotify) DecodeJSON(b []byte) error { return m.DecodeInterned(b, nil, nil) }

// DecodeInterned is DecodeJSON with the EPR shared through known and the
// results' executor IDs through execs.
func (m *ResultsNotify) DecodeInterned(b []byte, known, execs Intern) error {
	var r jsonwire.Reader
	r.Reset(b)
	was := m.Results
	*m = ResultsNotify{}
	r.Expect(`{"epr":`)
	m.EPR = r.Interned("", known)
	r.Expect(`,"results":`)
	if !r.Lit(`null`) {
		r.Expect(`[`)
		first := remembered(was)
		m.Results = room(was, r.Elems())
		for prev := &first; r.Elem(len(m.Results)); {
			m.Results = append(m.Results, task.Result{})
			res := &m.Results[len(m.Results)-1]
			res.ParseJSON(&r, prev, execs)
			prev = res
		}
	}
	r.Expect(`}`)
	settle(m.Results, was)
	return finish(&r, b, m)
}
