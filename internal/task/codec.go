package task

import (
	"time"

	"falkon/internal/jsonwire"
)

// Hand-written JSON for Task and Result, the two types every task-carrying
// message in fproto nests (DESIGN.md §9, "Body codec"). AppendJSON emits
// what json.Marshal does — field order, omitempty — up to string escapes
// that decode the same. ParseJSON reads that layout through a
// jsonwire.Reader and fails the reader on anything else; the message-level
// DecodeJSON in fproto then falls back to encoding/json. Neither type
// implements json.Marshaler, so encoding/json (the wal's record encoding,
// every cold message) is untouched and stays the oracle the tests compare
// against.

// AppendArray appends ts as a JSON array, each element by appendOne, or null
// for a nil slice, as json.Marshal writes one: the one writer of the arrays of
// tasks and results that messages and journal records carry.
func AppendArray[T any](dst []byte, ts []T, appendOne func(*T, []byte) []byte) []byte {
	if ts == nil {
		return append(dst, `null`...)
	}
	dst = append(dst, '[')
	for i := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendOne(&ts[i], dst)
	}
	return append(dst, ']')
}

// AppendJSON appends t's JSON encoding to dst.
func (t *Task) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = jsonwire.AppendUint(dst, uint64(t.ID))
	if t.Engine != 0 {
		dst = append(dst, `,"engine":`...)
		dst = jsonwire.AppendUint(dst, uint64(t.Engine))
	}
	if t.Dir != "" {
		dst = append(dst, `,"dir":`...)
		dst = jsonwire.AppendString(dst, t.Dir)
	}
	if t.Command != "" {
		dst = append(dst, `,"command":`...)
		dst = jsonwire.AppendString(dst, t.Command)
	}
	if len(t.Args) > 0 {
		dst = append(dst, `,"args":`...)
		dst = appendStrings(dst, t.Args)
	}
	if len(t.Env) > 0 {
		dst = append(dst, `,"env":`...)
		dst = appendStrings(dst, t.Env)
	}
	if t.IO != nil {
		dst = append(dst, `,"io":`...)
		dst = t.IO.appendJSON(dst)
	}
	if t.Duration != 0 {
		dst = append(dst, `,"duration":`...)
		dst = jsonwire.AppendInt(dst, int64(t.Duration))
	}
	if t.MaxRetries != 0 {
		dst = append(dst, `,"max_retries":`...)
		dst = jsonwire.AppendInt(dst, int64(t.MaxRetries))
	}
	if t.Stage != 0 {
		dst = append(dst, `,"stage":`...)
		dst = jsonwire.AppendInt(dst, int64(t.Stage))
	}
	if t.Trace != 0 {
		dst = append(dst, `,"trace":`...)
		dst = jsonwire.AppendUint(dst, t.Trace)
	}
	return append(dst, '}')
}

// ParseJSON reads one task into t, which must be zero. prev is the element
// before it in the same message (or a zero Task): strings equal to prev's
// are shared with it instead of allocated again.
func (t *Task) ParseJSON(r *jsonwire.Reader, prev *Task) {
	r.Expect(`{"id":`)
	t.ID = ID(r.Uint())
	// The optional members by name; at is a member's place in AppendJSON's
	// order, which r.InOrder holds them to.
	for last := 0; ; {
		var at int
		switch string(r.Key(false)) {
		case "":
			r.Expect(`}`)
			return
		case "engine":
			at, t.Engine = 1, Engine(r.Uint8())
		case "dir":
			at, t.Dir = 2, r.String(prev.Dir)
		case "command":
			at, t.Command = 3, r.String(prev.Command)
		case "args":
			at, t.Args = 4, r.Strings()
		case "env":
			at, t.Env = 5, r.Strings()
		case "io":
			at, t.IO = 6, new(IOSpec)
			t.IO.parseJSON(r)
		case "duration":
			at, t.Duration = 7, time.Duration(r.Int64())
		case "max_retries":
			at, t.MaxRetries = 8, r.Int()
		case "stage":
			at, t.Stage = 9, r.Int()
		case "trace":
			at, t.Trace = 10, r.Uint()
		}
		last = r.InOrder(last, at)
	}
}

func (s *IOSpec) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	if s.ReadBytes != 0 {
		dst = jsonwire.AppendInt(optField(dst, open, `"read_bytes":`), s.ReadBytes)
	}
	if s.WriteBytes != 0 {
		dst = jsonwire.AppendInt(optField(dst, open, `"write_bytes":`), s.WriteBytes)
	}
	if s.Location != "" {
		dst = jsonwire.AppendString(optField(dst, open, `"location":`), s.Location)
	}
	if s.Dataset != "" {
		dst = jsonwire.AppendString(optField(dst, open, `"dataset":`), s.Dataset)
	}
	return append(dst, '}')
}

// optField appends a key inside the object opened at dst[open-1], with the
// comma it needs unless it is the object's first: IOSpec's fields are all
// omitempty, so any of them may be.
func optField(dst []byte, open int, key string) []byte {
	if len(dst) > open {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// parseJSON reads an IOSpec by name, as Task.ParseJSON reads a task's optional
// members; every member of this one is optional, the first one included.
func (s *IOSpec) parseJSON(r *jsonwire.Reader) {
	r.Expect(`{`)
	for last := 0; ; {
		var at int
		switch string(r.Key(last == 0)) {
		case "":
			r.Expect(`}`)
			return
		case "read_bytes":
			at, s.ReadBytes = 1, r.Int64()
		case "write_bytes":
			at, s.WriteBytes = 2, r.Int64()
		case "location":
			at, s.Location = 3, r.String("")
		case "dataset":
			at, s.Dataset = 4, r.String("")
		}
		last = r.InOrder(last, at)
	}
}

// AppendJSON appends res's JSON encoding to dst.
func (res *Result) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"id":`...)
	dst = jsonwire.AppendUint(dst, uint64(res.ID))
	if res.ExitCode != 0 {
		dst = append(dst, `,"exit_code":`...)
		dst = jsonwire.AppendInt(dst, int64(res.ExitCode))
	}
	if res.Stdout != "" {
		dst = append(dst, `,"stdout":`...)
		dst = jsonwire.AppendString(dst, res.Stdout)
	}
	if res.Stderr != "" {
		dst = append(dst, `,"stderr":`...)
		dst = jsonwire.AppendString(dst, res.Stderr)
	}
	if res.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = jsonwire.AppendString(dst, res.Err)
	}
	if res.ExecutorID != "" {
		dst = append(dst, `,"executor":`...)
		dst = jsonwire.AppendString(dst, res.ExecutorID)
	}
	if res.QueuedAt != 0 {
		dst = append(dst, `,"queued_at":`...)
		dst = jsonwire.AppendInt(dst, int64(res.QueuedAt))
	}
	if res.DispatchedAt != 0 {
		dst = append(dst, `,"dispatched_at":`...)
		dst = jsonwire.AppendInt(dst, int64(res.DispatchedAt))
	}
	if res.StartedAt != 0 {
		dst = append(dst, `,"started_at":`...)
		dst = jsonwire.AppendInt(dst, int64(res.StartedAt))
	}
	if res.FinishedAt != 0 {
		dst = append(dst, `,"finished_at":`...)
		dst = jsonwire.AppendInt(dst, int64(res.FinishedAt))
	}
	if res.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = jsonwire.AppendInt(dst, int64(res.Attempts))
	}
	if res.Trace != 0 {
		dst = append(dst, `,"trace":`...)
		dst = jsonwire.AppendUint(dst, res.Trace)
	}
	return append(dst, '}')
}

// ParseJSON reads one result into res, which must be zero; prev is as for
// Task.ParseJSON. execs, unless nil, maps an executor ID unlike prev's to an
// equal string the caller holds, or to "" (jsonwire.Reader.Interned).
func (res *Result) ParseJSON(r *jsonwire.Reader, prev *Result, execs func([]byte) string) {
	r.Expect(`{"id":`)
	res.ID = ID(r.Uint())
	for last := 0; ; {
		var at int
		switch string(r.Key(false)) {
		case "":
			r.Expect(`}`)
			return
		case "exit_code":
			at, res.ExitCode = 1, r.Int()
		case "stdout":
			at, res.Stdout = 2, r.String(prev.Stdout)
		case "stderr":
			at, res.Stderr = 3, r.String(prev.Stderr)
		case "err":
			at, res.Err = 4, r.String(prev.Err)
		case "executor":
			at, res.ExecutorID = 5, r.Interned(prev.ExecutorID, execs)
		case "queued_at":
			at, res.QueuedAt = 6, time.Duration(r.Int64())
		case "dispatched_at":
			at, res.DispatchedAt = 7, time.Duration(r.Int64())
		case "started_at":
			at, res.StartedAt = 8, time.Duration(r.Int64())
		case "finished_at":
			at, res.FinishedAt = 9, time.Duration(r.Int64())
		case "attempts":
			at, res.Attempts = 10, r.Int()
		case "trace":
			at, res.Trace = 11, r.Uint()
		}
		last = r.InOrder(last, at)
	}
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonwire.AppendString(dst, s)
	}
	return append(dst, ']')
}
