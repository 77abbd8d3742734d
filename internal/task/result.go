package task

import (
	"bytes"
	"time"

	"falkon/internal/jsonwire"
)

// RelayedResult is a result as a dispatcher holds it (DESIGN.md §9, "Relay"):
// the head it reads of a result in one pass — the ID, the instance, whether it
// failed and the run time it reports — and the bytes of the result from its
// start through the members it never reads, exit_code to executor, as
// received. The members a dispatcher sets are fields, which AppendJSON writes
// after those bytes, where Result.AppendJSON writes them: last. Only a client
// decodes a result whole.
//
// Its bytes are a view of the document it was read from, a frame that is valid
// while the handler that read it runs; a result kept past that is Kept first.
type RelayedResult struct {
	ID  ID
	EPR string // the instance it is for, as a Deliver names it ("" as a push does)
	// RunDur is the run time the result reports: its Deliver's run_dur, or, as
	// a leaf pushes it, its finished_at less its started_at.
	RunDur time.Duration
	// What a dispatcher sets: the four stamps, the attempts and the trace.
	QueuedAt, DispatchedAt, StartedAt, FinishedAt time.Duration
	Attempts                                      int
	Trace                                         uint64

	rest   []byte // `{"id":` and the ID through exit_code … executor, as received
	exec   string // the executor AppendJSON names after rest, when rest names none
	failed bool
	named  bool // rest names the executor
	// spliced says rest is what AppendJSON wrote of the result, all but its
	// `}`, with the set fields from setAt on (AppendOnce).
	spliced bool
	setAt   uint32
}

// Failed reports whether the task failed: Result.Failed of the whole result.
func (r *RelayedResult) Failed() bool { return r.failed }

// RanOn names exec as the executor that ran the task, unless the result names
// one already: below a tree's interior node that is an executor of a leaf, not
// the link that delivers.
func (r *RelayedResult) RanOn(exec string) {
	if !r.named {
		r.exec = exec
	}
}

// Keep makes the result's bytes its own, where they were a view of the
// document it was read from.
func (r *RelayedResult) Keep() { r.rest = bytes.Clone(r.rest) }

// AppendJSON appends the result's JSON: the bytes Result.AppendJSON writes of
// it, with the members a dispatcher does not read as they were received.
func (r *RelayedResult) AppendJSON(dst []byte) []byte { return r.appendJSON(dst, true) }

// AppendParent appends the result as a tree parent is pushed it: without
// queued_at, dispatched_at, attempts and trace, which the parent sets.
func (r *RelayedResult) AppendParent(dst []byte) []byte { return r.appendJSON(dst, false) }

// AppendOnce is AppendJSON for a result written twice — a journal's record,
// then its push — whose fields are set: what it appends becomes the result's
// bytes, so AppendJSON copies them, and AppendParent the part before the set
// fields, instead of writing each field again. Those bytes are dst's until
// the result is kept.
func (r *RelayedResult) AppendOnce(dst []byte) []byte {
	from := len(dst)
	dst = r.appendMembers(dst)
	set := len(dst)
	dst = r.appendSet(dst, true)
	r.rest, r.setAt, r.spliced = dst[from:len(dst):len(dst)], uint32(set-from), true
	r.named, r.exec = r.named || r.exec != "", ""
	return append(dst, '}')
}

func (r *RelayedResult) appendJSON(dst []byte, whole bool) []byte {
	switch {
	case r.spliced && whole:
		dst = append(dst, r.rest...)
	case r.spliced:
		dst = r.appendSet(append(dst, r.rest[:r.setAt]...), false)
	default:
		dst = r.appendSet(r.appendMembers(dst), whole)
	}
	return append(dst, '}')
}

// appendMembers appends rest and the executor rest does not name: the
// members before the set fields.
func (r *RelayedResult) appendMembers(dst []byte) []byte {
	dst = append(dst, r.rest...)
	if r.exec != "" {
		dst = append(dst, `,"executor":`...)
		dst = jsonwire.AppendString(dst, r.exec)
	}
	return dst
}

// appendSet appends the set fields, each left out when zero, or only the two
// a tree parent reads.
func (r *RelayedResult) appendSet(dst []byte, whole bool) []byte {
	if whole && r.QueuedAt != 0 {
		dst = append(dst, `,"queued_at":`...)
		dst = jsonwire.AppendInt(dst, int64(r.QueuedAt))
	}
	if whole && r.DispatchedAt != 0 {
		dst = append(dst, `,"dispatched_at":`...)
		dst = jsonwire.AppendInt(dst, int64(r.DispatchedAt))
	}
	if r.StartedAt != 0 {
		dst = append(dst, `,"started_at":`...)
		dst = jsonwire.AppendInt(dst, int64(r.StartedAt))
	}
	if r.FinishedAt != 0 {
		dst = append(dst, `,"finished_at":`...)
		dst = jsonwire.AppendInt(dst, int64(r.FinishedAt))
	}
	if whole && r.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = jsonwire.AppendInt(dst, int64(r.Attempts))
	}
	if whole && r.Trace != 0 {
		dst = append(dst, `,"trace":`...)
		dst = jsonwire.AppendUint(dst, r.Trace)
	}
	return dst
}

// ReadJSON reads one result into r, which must be zero, as Result.ParseJSON
// reads it — the same jsonwire primitives, members numbered alike, every
// string checked as it would be decoded, none decoded — with the result up to
// the first member a dispatcher sets kept as a view of the reader's document.
// It refuses an executor named "", which RanOn would name again: no encoder
// leaves one in.
func (r *RelayedResult) ReadJSON(rd *jsonwire.Reader) {
	from, end := rd.Mark(), -1
	rd.Expect(`{"id":`)
	r.ID = ID(rd.Uint())
	for last := 0; ; {
		at, mark := 0, rd.Mark()
		switch string(rd.Key(false)) {
		case "":
			if end < 0 {
				end = mark
			}
			rd.Expect(`}`)
			if !rd.Failed() {
				r.rest = rd.Between(from, end)
			}
			r.RunDur = r.FinishedAt - r.StartedAt
			return
		case "exit_code":
			at = 1
			r.failed = rd.Int() != 0
		case "stdout":
			at, _ = 2, rd.SkipStr()
		case "stderr":
			at, _ = 3, rd.SkipStr()
		case "err":
			at = 4
			r.failed = rd.SkipStr() > 0 || r.failed
		case "executor":
			at, r.named = 5, true
			if rd.SkipStr() == 0 {
				rd.Fail()
			}
		case "queued_at":
			at, r.QueuedAt = 6, time.Duration(rd.Int64())
		case "dispatched_at":
			at, r.DispatchedAt = 7, time.Duration(rd.Int64())
		case "started_at":
			at, r.StartedAt = 8, time.Duration(rd.Int64())
		case "finished_at":
			at, r.FinishedAt = 9, time.Duration(rd.Int64())
		case "attempts":
			at, r.Attempts = 10, rd.Int()
		case "trace":
			at, r.Trace = 11, rd.Uint()
		}
		if at > 5 && end < 0 {
			end = mark // the first member a dispatcher sets ends what it keeps
		}
		last = rd.InOrder(last, at)
	}
}

// Failure reads what a failure's report needs of the result — its exit code,
// err and executor — from its bytes, passing over its output without copying
// it: a dispatcher reads a failed result under its lock, where Result would
// copy up to 128 KiB of output.
func (r *RelayedResult) Failure() (exitCode int, err, executor string) {
	rest := r.rest
	if r.spliced {
		rest = rest[:r.setAt]
	}
	var rd jsonwire.Reader
	rd.Reset(rest)
	rd.Expect(`{"id":`)
	rd.Uint()
	executor = r.exec
	for {
		switch string(rd.Key(false)) {
		case "":
			return exitCode, err, executor
		case "exit_code":
			exitCode = rd.Int()
		case "err":
			err = string(rd.Str())
		case "executor":
			executor = string(rd.Str())
		default: // stdout, stderr
			rd.SkipStr()
		}
	}
}

// RelayResult is res as a dispatcher holds it, with bytes of its own: a result
// a dispatcher makes itself, recovers from its journal, or was handed through
// encoding/json.
func RelayResult(res *Result) RelayedResult {
	var rd jsonwire.Reader
	rd.Reset(res.AppendJSON(nil))
	var out RelayedResult
	out.ReadJSON(&rd)
	if !rd.OK() {
		panic("task: RelayedResult.ReadJSON refuses what Result.AppendJSON writes")
	}
	return out
}

// Result decodes the result whole, as its client does: for a snapshot of what
// a dispatcher buffers.
func (r *RelayedResult) Result() Result {
	var rd jsonwire.Reader
	rd.Reset(r.AppendJSON(nil))
	var res Result
	res.ParseJSON(&rd, &Result{}, nil)
	if !rd.OK() {
		panic("task: Result.ParseJSON refuses what RelayedResult.ReadJSON read")
	}
	return res
}
