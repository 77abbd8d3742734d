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
	if r.Lit(`,"engine":`) {
		t.Engine = Engine(r.Uint8())
	}
	if r.Lit(`,"dir":`) {
		t.Dir = r.String(prev.Dir)
	}
	if r.Lit(`,"command":`) {
		t.Command = r.String(prev.Command)
	}
	if r.Lit(`,"args":`) {
		t.Args = r.Strings()
	}
	if r.Lit(`,"env":`) {
		t.Env = r.Strings()
	}
	if r.Lit(`,"io":`) {
		t.IO = new(IOSpec)
		t.IO.parseJSON(r)
	}
	if r.Lit(`,"duration":`) {
		t.Duration = time.Duration(r.Int64())
	}
	if r.Lit(`,"max_retries":`) {
		t.MaxRetries = r.Int()
	}
	if r.Lit(`,"stage":`) {
		t.Stage = r.Int()
	}
	if r.Lit(`,"trace":`) {
		t.Trace = r.Uint()
	}
	r.Expect(`}`)
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

func (s *IOSpec) parseJSON(r *jsonwire.Reader) {
	r.Expect(`{`)
	first := true
	if r.Field(&first, `"read_bytes":`) {
		s.ReadBytes = r.Int64()
	}
	if r.Field(&first, `"write_bytes":`) {
		s.WriteBytes = r.Int64()
	}
	if r.Field(&first, `"location":`) {
		s.Location = r.String("")
	}
	if r.Field(&first, `"dataset":`) {
		s.Dataset = r.String("")
	}
	r.Expect(`}`)
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
// Task.ParseJSON.
func (res *Result) ParseJSON(r *jsonwire.Reader, prev *Result) {
	r.Expect(`{"id":`)
	res.ID = ID(r.Uint())
	if r.Lit(`,"exit_code":`) {
		res.ExitCode = r.Int()
	}
	if r.Lit(`,"stdout":`) {
		res.Stdout = r.String(prev.Stdout)
	}
	if r.Lit(`,"stderr":`) {
		res.Stderr = r.String(prev.Stderr)
	}
	if r.Lit(`,"err":`) {
		res.Err = r.String(prev.Err)
	}
	if r.Lit(`,"executor":`) {
		res.ExecutorID = r.String(prev.ExecutorID)
	}
	if r.Lit(`,"queued_at":`) {
		res.QueuedAt = time.Duration(r.Int64())
	}
	if r.Lit(`,"dispatched_at":`) {
		res.DispatchedAt = time.Duration(r.Int64())
	}
	if r.Lit(`,"started_at":`) {
		res.StartedAt = time.Duration(r.Int64())
	}
	if r.Lit(`,"finished_at":`) {
		res.FinishedAt = time.Duration(r.Int64())
	}
	if r.Lit(`,"attempts":`) {
		res.Attempts = r.Int()
	}
	if r.Lit(`,"trace":`) {
		res.Trace = r.Uint()
	}
	r.Expect(`}`)
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
