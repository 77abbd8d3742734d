package fproto

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"falkon/internal/jsonwire"
	"falkon/internal/task"
)

// The body codec's contract, checked against encoding/json as the oracle:
// what AppendJSON emits, json.Unmarshal reads as the same value; what
// json.Marshal emits, DecodeJSON reads as the same value on its fast path;
// and on any bytes at all DecodeJSON and json.Unmarshal agree.

// bodyMsg is a pointer to one of the eight hot messages.
type bodyMsg interface {
	AppendJSON(dst []byte) []byte
	DecodeJSON(b []byte) error
}

var bodyKinds = []struct {
	name  string
	fresh func() bodyMsg
	gen   func(g *gen) bodyMsg
}{
	{"SubmitRequest", func() bodyMsg { return new(SubmitRequest) }, func(g *gen) bodyMsg {
		m := &SubmitRequest{EPR: g.str()}
		if n := g.count(); n >= 0 {
			m.Tasks = make([]task.Task, n)
			for i := range m.Tasks {
				m.Tasks[i] = g.task()
			}
		}
		return m
	}},
	{"SubmitReply", func() bodyMsg { return new(SubmitReply) }, func(g *gen) bodyMsg {
		return &SubmitReply{Accepted: int(g.i64()), Deduped: int(g.i64()), RetryAfterMillis: g.i64()}
	}},
	{"GetWorkRequest", func() bodyMsg { return new(GetWorkRequest) }, func(g *gen) bodyMsg {
		return &GetWorkRequest{ExecutorID: g.str(), Max: int(g.i64())}
	}},
	{"GetWorkReply", func() bodyMsg { return new(GetWorkReply) }, func(g *gen) bodyMsg {
		return &GetWorkReply{Assignments: g.assignments()}
	}},
	{"DeliverRequest", func() bodyMsg { return new(DeliverRequest) }, func(g *gen) bodyMsg {
		m := &DeliverRequest{ExecutorID: g.str(), WantWork: g.rng.Intn(2) == 0, MaxNew: int(g.i64())}
		if n := g.count(); n >= 0 {
			m.Results = make([]TaggedResult, n)
			for i := range m.Results {
				m.Results[i] = TaggedResult{EPR: g.str(), Result: g.result(),
					RunDur: time.Duration(g.i64()), OverheadDur: time.Duration(g.i64())}
			}
		}
		return m
	}},
	{"DeliverReply", func() bodyMsg { return new(DeliverReply) }, func(g *gen) bodyMsg {
		return &DeliverReply{Assignments: g.assignments()}
	}},
	{"WorkAvailable", func() bodyMsg { return new(WorkAvailable) }, func(g *gen) bodyMsg {
		return &WorkAvailable{Queued: int(g.i64())}
	}},
	{"ResultsNotify", func() bodyMsg { return new(ResultsNotify) }, func(g *gen) bodyMsg {
		m := &ResultsNotify{EPR: g.str()}
		if n := g.count(); n >= 0 {
			m.Results = make([]task.Result, n)
			for i := range m.Results {
				m.Results[i] = g.result()
			}
		}
		return m
	}},
}

// gen draws message fields from the edges the codec has to get right.
type gen struct{ rng *rand.Rand }

var edgeStrings = []string{
	"", "sleep", "falkon-instance-1", "exec-0",
	strings.Repeat("x", 1024),
	strings.Repeat("line\n", 205),
	`say "hi"`, `back\slash`, `\u0041 not an escape`, "/slash/",
	"\x00\x01\x02\b\f\n\r\t\x1f\x7f",
	"<script>&amp;</script>",
	"bad utf8 \xff\xfe\xc0\xaf \xed\xa0\x80 end", "\xe4\xb8", // invalid, and truncated
	"line\u2028sep\u2029", "é 世界 😀 \U0010ffff", "\ufffd",
}

func (g *gen) str() string {
	if g.rng.Intn(4) == 0 {
		b := make([]byte, g.rng.Intn(24))
		g.rng.Read(b)
		return string(b) // arbitrary bytes: mostly invalid UTF-8
	}
	return edgeStrings[g.rng.Intn(len(edgeStrings))]
}

var edgeInts = []int64{0, 0, 1, -1, 64, 255, 256, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}

func (g *gen) i64() int64 { return edgeInts[g.rng.Intn(len(edgeInts))] }

func (g *gen) u64() uint64 {
	return []uint64{0, 1, 10, math.MaxInt64, math.MaxUint64, 1<<63 + 1}[g.rng.Intn(6)]
}

// count is a slice length: -1 for nil, else 0, small, or the 64 of a bundle.
func (g *gen) count() int { return []int{-1, 0, 1, 2, 3, 64}[g.rng.Intn(6)] }

func (g *gen) strs() []string {
	n := g.count()
	if n < 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = g.str()
	}
	return ss
}

func (g *gen) task() task.Task {
	t := task.Task{ID: task.ID(g.u64()), Engine: task.Engine(g.rng.Intn(5)), Dir: g.str(), Command: g.str(),
		Args: g.strs(), Env: g.strs(), Duration: time.Duration(g.i64()), MaxRetries: int(g.i64()),
		Stage: int(g.i64()), Trace: g.u64()}
	switch g.rng.Intn(4) {
	case 0:
		t.IO = &task.IOSpec{} // encodes as {}
	case 1:
		t.IO = &task.IOSpec{ReadBytes: g.i64(), WriteBytes: g.i64(), Location: g.str(), Dataset: g.str()}
	}
	return t
}

func (g *gen) result() task.Result {
	return task.Result{ID: task.ID(g.u64()), ExitCode: int(g.i64()), Stdout: g.str(), Stderr: g.str(), Err: g.str(),
		ExecutorID: g.str(), QueuedAt: time.Duration(g.i64()), DispatchedAt: time.Duration(g.i64()),
		StartedAt: time.Duration(g.i64()), FinishedAt: time.Duration(g.i64()), Attempts: int(g.i64()), Trace: g.u64()}
}

func (g *gen) assignments() []Assignment {
	n := g.count()
	if n < 0 {
		return nil
	}
	as := make([]Assignment, n)
	for i := range as {
		as[i] = Assignment{EPR: g.str(), Task: g.task(), CacheHit: g.rng.Intn(2) == 0}
	}
	return as
}

// viaJSON is v after a trip through encoding/json: the value any decoder of
// v's encoding must produce (invalid UTF-8 repaired, empty omitempty slices
// gone).
func viaJSON(t testing.TB, fresh func() bodyMsg, v bodyMsg) (ref []byte, want bodyMsg) {
	t.Helper()
	ref, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want = fresh()
	if err := json.Unmarshal(ref, want); err != nil {
		t.Fatal(err)
	}
	return ref, want
}

// decodeFast runs DecodeJSON and fails the test if it took the fallback.
func decodeFast(t testing.TB, m bodyMsg, b []byte) {
	t.Helper()
	before := CodecFallbacks.Value()
	if err := m.DecodeJSON(b); err != nil {
		t.Fatalf("DecodeJSON(%s): %v", b, err)
	}
	if n := CodecFallbacks.Value() - before; n != 0 {
		t.Fatalf("DecodeJSON took the encoding/json fallback on canonical input %s", b)
	}
}

func TestBodyCodecMatchesEncodingJSON(t *testing.T) {
	for _, k := range bodyKinds {
		t.Run(k.name, func(t *testing.T) {
			g := &gen{rand.New(rand.NewSource(1))}
			for i := 0; i < 300; i++ {
				v := k.gen(g)
				ref, want := viaJSON(t, k.fresh, v)
				enc := v.AppendJSON(nil)

				got := k.fresh()
				if err := json.Unmarshal(enc, got); err != nil {
					t.Fatalf("json.Unmarshal rejects AppendJSON output %s: %v", enc, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("json.Unmarshal(AppendJSON(v)) differs from json's own round trip\n enc %s\n ref %s", enc, ref)
				}
				for _, b := range [][]byte{ref, enc} {
					got, buf := k.fresh(), bytes.Clone(b)
					decodeFast(t, got, buf)
					disturb(got, buf)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("DecodeJSON(%s)\n got %+v\nwant %+v", b, got, want)
					}
				}
			}
		})
	}
}

// What a dispatcher relays is what it was sent: a tree's interior node sends a
// leaf a SubmitRequest, and an executor a GetWorkReply, byte for byte. What it
// keeps of each task's bytes is neither its ID's digits nor its trace's, and
// what it decodes whole (a snapshot's task) is the task that was sent.
func TestRelayedIsWhatWasSent(t *testing.T) {
	g := &gen{rand.New(rand.NewSource(2))}
	for i := 0; i < 300; i++ {
		as := g.assignments()
		if len(as) == 0 {
			continue
		}
		tasks := make([]task.Task, len(as))
		for i := range as {
			tasks[i] = as[i].Task
		}
		epr := g.str()
		sent := SubmitRequest{EPR: epr, Tasks: tasks}.AppendJSON(nil)
		var b Bundle
		if err := b.DecodeInterned(sent, nil); err != nil {
			t.Fatal(err)
		}
		if got := b.AppendJSON(nil); !bytes.Equal(got, sent) {
			t.Fatalf("Bundle encodes\n %s\nSubmitRequest\n %s", got, sent)
		}
		var whole SubmitRequest
		decodeFast(t, &whole, sent)
		for i := range tasks {
			r := &b.Tasks[i]
			digits := len(strconv.FormatUint(uint64(r.ID), 10))
			if r.Trace != 0 {
				digits += len(`,"trace":`) + len(strconv.FormatUint(r.Trace, 10))
			}
			if whole := len(tasks[i].AppendJSON(nil)); len(r.Rest) != whole-len(`{"id":}`)-digits {
				t.Fatalf("task %s keeps %d bytes of its %d: %s", tasks[i].AppendJSON(nil), len(r.Rest), whole, r.Rest)
			}
			if got := r.Task(); !reflect.DeepEqual(got, whole.Tasks[i]) {
				t.Fatalf("task %d decodes whole as\n %+v\nnot as sent\n %+v", i, got, whole.Tasks[i])
			}
		}
		relays := make([]Relay, len(as))
		for i := range as {
			relays[i] = Relay{EPR: as[i].EPR, Task: &b.Tasks[i], CacheHit: as[i].CacheHit}
		}
		want := GetWorkReply{Assignments: as}.AppendJSON(nil)
		if got := (RelayReply{Assignments: relays}).AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("RelayReply encodes\n %s\nGetWorkReply\n %s", got, want)
		}
	}
}

// DecodeJSON overwrites: a field the body omits is zero afterwards, whatever
// the receiver held (json.Unmarshal would keep it).
func TestDecodeJSONOverwritesReceiver(t *testing.T) {
	m := SubmitReply{Accepted: 1, Deduped: 2, RetryAfterMillis: 3}
	decodeFast(t, &m, []byte(`{"accepted":9}`))
	if !reflect.DeepEqual(m, SubmitReply{Accepted: 9}) {
		t.Fatalf("stale fields survived: %+v", m)
	}
	m = SubmitReply{Deduped: 2}
	if err := m.DecodeJSON([]byte(` {"accepted":9}`)); err != nil || !reflect.DeepEqual(m, SubmitReply{Accepted: 9}) {
		t.Fatalf("stale fields survived the fallback: %+v, %v", m, err)
	}
}

// Inputs that are valid for json.Unmarshal but outside the canonical layout
// must come out the same through the fallback, and be counted.
func TestDecodeJSONFallback(t *testing.T) {
	for _, tc := range []struct {
		kind int
		body string
	}{
		{0, `{"tasks":[{"id":1}],"epr":"reordered"}`},
		{0, `{"epr":"e","tasks":[{"id":1,"unknown":{"id":2}}]}`},
		{0, ` {"epr":"e","tasks":[]}`},
		{0, `{"epr":null,"tasks":[{"id":1,"io":null,"args":null}]}`},
		{0, `{"epr":"lone \ud800 surrogate","tasks":null}`},
		{0, "{\"epr\":\"raw \xff byte\",\"tasks\":null}"},
		{0, `{"EPR":"case","Tasks":[]}`},
		{1, `{"accepted":1,"capacity":null}`},
		{1, `{"accepted":1.0}`},
		{4, `{"executor_id":"x","results":[{"epr":"e","result":{"id":01},"run_dur":0}]}`},
		{6, `{"queued":7,"queued":8}`},
		{7, `{"epr":"e","results":[{"id":1,"executor":"x"} ]}`},
		// Members the decoders read by name, out of their order, twice, or
		// unknown to them: encoding/json takes each, keeping the last of two.
		{0, `{"epr":"e","tasks":[{"id":1,"trace":9,"command":"sleep"}]}`},
		{7, `{"epr":"e","results":[{"id":1,"executor":"x","executor":"y","attempts":1}]}`},
		{7, `{"epr":"e","results":[{"id":1,"executor":"x","host":"h","attempts":1}]}`},
		{0, `{"epr":"e","tasks":[{"id":1,"io":{"write_bytes":2,"read_bytes":1}}]}`},
	} {
		k := bodyKinds[tc.kind]
		got, want := k.fresh(), k.fresh()
		before := CodecFallbacks.Value()
		gerr, werr := got.DecodeJSON([]byte(tc.body)), json.Unmarshal([]byte(tc.body), want)
		if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s:\n got %+v, %v\nwant %+v, %v", k.name, tc.body, got, gerr, want, werr)
		}
		if CodecFallbacks.Value() != before+1 {
			t.Errorf("%s %s: fallback not counted", k.name, tc.body)
		}
	}
}

// Escapes encoding/json emits or accepts that AppendJSON never writes.
func TestDecodeJSONEscapes(t *testing.T) {
	var m GetWorkRequest
	decodeFast(t, &m, []byte(`{"executor_id":"\u003c\u00e9\u2028\ud83d\ude00\/\b\f\"\\\u0000>","max":1}`))
	if want := "<é\u2028😀/\b\f\"\\\x00>"; m.ExecutorID != want {
		t.Fatalf("got %q, want %q", m.ExecutorID, want)
	}
}

// An Intern's string is the one the message ends up holding.
func TestDecodeInterned(t *testing.T) {
	epr, exec := "falkon-instance-1", "exec-3"
	known := func(b []byte) string {
		switch string(b) {
		case epr:
			return epr
		case exec:
			return exec
		}
		return ""
	}
	same := func(a, b string) bool { return a == b && unsafe.StringData(a) == unsafe.StringData(b) }

	var d DeliverRequest
	if err := d.DecodeInterned([]byte(`{"executor_id":"exec-3","results":[{"epr":"falkon-instance-1","result":{"id":1,"executor":"exec-3"},"run_dur":1},{"epr":"other","result":{"id":2,"executor":"exec-9"},"run_dur":1},{"epr":"other","result":{"id":3,"executor":"exec-9"},"run_dur":1}]}`), known); err != nil {
		t.Fatal(err)
	}
	if !same(d.ExecutorID, exec) || !same(d.Results[0].EPR, epr) || !same(d.Results[0].Result.ExecutorID, exec) {
		t.Fatalf("known strings were copied, not shared: %+v", d)
	}
	if d.Results[1].EPR != "other" || !same(d.Results[2].EPR, d.Results[1].EPR) ||
		!same(d.Results[2].Result.ExecutorID, d.Results[1].Result.ExecutorID) {
		t.Fatalf("a repeated string was not shared with the element before: %+v", d)
	}
	var s Bundle
	if err := s.DecodeInterned([]byte(`{"epr":"falkon-instance-1","tasks":null}`), known); err != nil || !same(s.EPR, epr) {
		t.Fatalf("Bundle: %+v, %v", s, err)
	}
	var n ResultsNotify
	if err := n.DecodeInterned([]byte(`{"epr":"falkon-instance-1","results":[]}`), known, nil); err != nil || !same(n.EPR, epr) {
		t.Fatalf("ResultsNotify: %+v, %v", n, err)
	}
	// A Seen hands every push after the first the executor ID it kept.
	var seen Seen
	var first, next ResultsNotify
	push := []byte(`{"epr":"falkon-instance-1","results":[{"id":1,"executor":"exec-9"}]}`)
	if err := first.DecodeInterned(push, known, seen.Intern); err != nil {
		t.Fatal(err)
	}
	if err := next.DecodeInterned(push, known, seen.Intern); err != nil || !same(next.Results[0].ExecutorID, first.Results[0].ExecutorID) {
		t.Fatalf("ResultsNotify through a Seen: %+v, %v", next, err)
	}
	var w GetWorkRequest
	if err := w.DecodeInterned([]byte(`{"executor_id":"exec-3","max":2}`), known); err != nil || !same(w.ExecutorID, exec) {
		t.Fatalf("GetWorkRequest: %+v, %v", w, err)
	}
}

// disturb does what a decoded message's owner is free to do: it overwrites
// the buffer the message was decoded from (the connection's, about to take
// the next frame) and appends to every task's Args and Env. The message must
// not change: its strings are copies, and no task's slice has room that is
// another task's.
func disturb(m bodyMsg, buf []byte) {
	for i := range buf {
		buf[i] = '#'
	}
	var tasks []*task.Task
	var as []Assignment
	switch m := m.(type) {
	case *SubmitRequest:
		for i := range m.Tasks {
			tasks = append(tasks, &m.Tasks[i])
		}
	case *GetWorkReply: // and DeliverReply
		as = m.Assignments
	}
	for i := range as {
		tasks = append(tasks, &as[i].Task)
	}
	for _, t := range tasks {
		if len(t.Args) > 0 {
			_ = append(t.Args, "#")
		}
		if len(t.Env) > 0 {
			_ = append(t.Env, "#")
		}
	}
}

// sliceOf is the one slice a message holds (invalid if it holds none).
func sliceOf(m bodyMsg) reflect.Value {
	return reflect.ValueOf(m).Elem().FieldByNameFunc(func(f string) bool {
		return f == "Tasks" || f == "Assignments" || f == "Results"
	})
}

// heldBodies is, per bodyKinds entry that holds a slice, a message whose first
// element sets every string a later decode into the same value is offered.
var heldBodies = [...]string{
	0: `{"epr":"e","tasks":[{"id":1,"dir":"/tmp","command":"sleep"},{"id":2}]}`,
	3: `{"assignments":[{"epr":"falkon-instance-1","task":{"id":1,"dir":"/tmp","command":"sleep"}},{"epr":"e","task":{"id":2}}]}`,
	4: `{"executor_id":"exec-0","results":[{"epr":"falkon-instance-1","result":{"id":1,"stdout":"out","stderr":"err","err":"boom","executor":"exec-0"},"run_dur":1},{"epr":"e","result":{"id":2},"run_dur":1}]}`,
	5: `{"assignments":[{"epr":"falkon-instance-1","task":{"id":1,"dir":"/tmp","command":"sleep"}},{"epr":"e","task":{"id":2}}]}`,
	7: `{"epr":"e","results":[{"id":1,"stdout":"out","stderr":"err","err":"boom","executor":"exec-0"},{"id":2}]}`,
}

// relayedTasks decodes relayed tasks whole, as an executor does.
func relayedTasks(rs []task.Relayed) []task.Task {
	ts := make([]task.Task, len(rs))
	for i := range rs {
		ts[i] = rs[i].Task()
	}
	return ts
}

// checkRelay is FuzzBodyCodec's half for the dispatcher's reading of a submit
// (DESIGN.md §9, "Relay"): a Bundle is read where json.Unmarshal reads a
// SubmitRequest, agrees with it on the five fields a dispatcher reads, and
// relays bytes that an executor's GetWorkReply.DecodeJSON reads, without a
// fallback, as the tasks json.Unmarshal read; a body the fast path refused is
// relayed as AppendJSON encodes its tasks.
func checkRelay(t *testing.T, data []byte) {
	var want SubmitRequest
	werr := json.Unmarshal(data, &want)
	var b Bundle
	buf := bytes.Clone(data)
	before := CodecFallbacks.Value()
	berr := b.DecodeInterned(buf, nil)
	fellBack := CodecFallbacks.Value() != before
	for i := range buf {
		buf[i] = '#' // the relayed bytes are copies
	}
	if (berr == nil) != (werr == nil) {
		t.Fatalf("Bundle %q: DecodeInterned err %v, json.Unmarshal err %v", data, berr, werr)
	}
	if berr != nil {
		return
	}
	if b.EPR != want.EPR || len(b.Tasks) != len(want.Tasks) {
		t.Fatalf("Bundle %q: EPR %q and %d tasks, want %q and %d", data, b.EPR, len(b.Tasks), want.EPR, len(want.Tasks))
	}
	if !fellBack {
		// Read without a fallback, every task relays as the bytes it came as:
		// its ID and trace written again from the numbers a dispatcher keeps
		// instead of their digits. (The first `,"tasks":` ends the EPR: a
		// quote a literal holds is escaped.)
		sent := data[bytes.Index(data, []byte(`,"tasks":`))+len(`,"tasks":`) : len(data)-1]
		if relayed := task.AppendArray(nil, b.Tasks, (*task.Relayed).AppendJSON); !bytes.Equal(relayed, sent) {
			t.Fatalf("Bundle %q relays its tasks as\n %s\nnot as sent\n %s", data, relayed, sent)
		}
	}
	relays := make([]Relay, len(b.Tasks))
	for i := range b.Tasks {
		r, w := &b.Tasks[i], &want.Tasks[i]
		var dataset string
		if w.IO != nil {
			dataset = w.IO.Dataset
		}
		declared := w.Duration // a sleep or data task's
		if w.Engine != task.EngineSleep && w.Engine != task.EngineData {
			declared = 0
		}
		if r.ID != w.ID || r.Trace != w.Trace || r.MaxRetries != w.MaxRetries || r.Declared != declared || r.Dataset != dataset {
			t.Fatalf("Bundle %q: task %d read as %+v, want %+v", data, i, *r, *w)
		}
		if relayed, canonical := string(r.AppendJSON(nil)), string(w.AppendJSON(nil)); fellBack && relayed != canonical {
			t.Fatalf("Bundle %q took the fallback and relays task %d as %s, not %s", data, i, relayed, canonical)
		}
		relays[i] = Relay{EPR: want.EPR, Task: r}
	}
	var got GetWorkReply
	decodeFast(t, &got, RelayReply{Assignments: relays}.AppendJSON(nil))
	for i := range want.Tasks {
		w := want.Tasks[i]
		if fellBack {
			// Encoded again, an empty Args or Env is left out, as json.Marshal
			// leaves it out, and reads back nil.
			var again task.Task
			if err := json.Unmarshal(w.AppendJSON(nil), &again); err != nil {
				t.Fatal(err)
			}
			w = again
		}
		if !reflect.DeepEqual(got.Assignments[i].Task, w) {
			t.Fatalf("Bundle %q: task %d relayed as\n %+v\nwant %+v", data, i, got.Assignments[i].Task, w)
		}
	}
}

// FuzzBodyCodec: on arbitrary bytes DecodeJSON and json.Unmarshal agree on
// error versus value, and on the value, which neither reusing the input nor
// appending to a task's strings changes; and what decodes re-encodes to
// something json.Unmarshal reads back the same. Every input is also read as a
// dispatcher reads a submit (checkRelay).
func FuzzBodyCodec(f *testing.F) {
	g := &gen{rand.New(rand.NewSource(2))}
	for i, k := range bodyKinds {
		v := k.gen(g)
		ref, _ := json.Marshal(v)
		f.Add(uint8(i), ref)
		f.Add(uint8(i), v.AppendJSON(nil))
	}
	f.Add(uint8(0), manyArgs(3, 40)) // one element outgrowing the chunks the estimate sized
	// Datasets a dispatcher keeps: one it can take from the relayed bytes, one
	// with an escape, and one in a body the fast path refuses.
	f.Add(uint8(0), []byte(`{"epr":"e","tasks":[{"id":1,"engine":1,"io":{"read_bytes":5,"dataset":"d0"},"duration":7},{"id":2,"io":{"dataset":"d\u00e9\/1"}}]}`))
	f.Add(uint8(0), []byte(`{"epr":"e","tasks":[{"id":1,"io":{"dataset":"d0","location":"x"}}]}`))
	// What a dispatcher writes again rather than keeps: a trace of 0 sent as
	// such, IDs and traces of twenty digits, and the ID and trace around a
	// task that sets every member, an escaped dataset among them.
	f.Add(uint8(0), []byte(`{"epr":"e","tasks":[{"id":1,"command":"sleep","trace":0},{"id":2,"trace":0},{"id":3,"trace":7}]}`))
	f.Add(uint8(0), []byte(`{"epr":"e","tasks":[{"id":18446744073709551615,"args":["0"],"trace":10000000000000000000},{"id":10000000000000000000,"trace":18446744073709551615}]}`))
	f.Add(uint8(0), []byte(`{"epr":"e","tasks":[{"id":9,"engine":1,"dir":"/d","command":"c","args":["a","b"],"env":["K=V"],`+
		`"io":{"read_bytes":1,"write_bytes":2,"location":"shared","dataset":"d\u00e9\"s"},"duration":3,"max_retries":4,"stage":5,"trace":6}]}`))
	// The integers around jsonwire.ParseUint's one overflow check and the ends
	// of its eight-digit strides (its test's uintEdges), as a task ID and as a
	// trace.
	for _, n := range []string{"9999999999999999999", "10000000000000000000", "18446744073709551615",
		"18446744073709551616", "99999999999999999999", "100000000000000000000", "01", "00000000000000000001",
		"99999999", "100000000", "9999999999999999", "10000000000000000"} {
		f.Add(uint8(0), []byte(`{"epr":"e","tasks":[{"id":`+n+`,"command":"sleep","trace":`+n+`}]}`))
		f.Add(uint8(7), []byte(`{"epr":"e","results":[{"id":`+n+`,"trace":`+n+`}]}`))
	}
	// A first element that repeats what heldBodies left in the value it is
	// decoded into, one that changes it and one that leaves it out.
	for _, first := range []string{
		`{"epr":"falkon-instance-1","task":{"id":3,"dir":"/tmp","command":"sleep"}}`,
		`{"epr":"falkon-instance-9","task":{"id":3,"dir":"/var","command":"echo"}}`,
		`{"epr":"","task":{"id":3}}`, `{"task":{"id":3}}`,
	} {
		f.Add(uint8(3), []byte(`{"assignments":[`+first+`]}`))
	}
	for _, first := range []string{`{"id":3,"stdout":"out","stderr":"err","err":"boom","executor":"exec-0"}`,
		`{"id":3,"stdout":"other","executor":"exec-7"}`, `{"id":3}`} {
		f.Add(uint8(7), []byte(`{"epr":"falkon-instance-1","results":[`+first+`]}`))
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		checkRelay(t, data)
		k := bodyKinds[int(kind)%len(bodyKinds)]
		got, want := k.fresh(), k.fresh()
		buf := bytes.Clone(data)
		gerr, werr := got.DecodeJSON(buf), json.Unmarshal(data, want)
		disturb(got, buf)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s %q: DecodeJSON err %v, json.Unmarshal err %v", k.name, data, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q:\n got %+v\nwant %+v", k.name, data, got, want)
		}
		// And twice more into one value that already held another message:
		// what it remembers of that one, then of this one, changes nothing.
		held := k.fresh()
		if body := heldBodies[int(kind)%len(bodyKinds)]; body != "" {
			decodeFast(t, held, []byte(body))
		}
		for range 2 {
			buf = bytes.Clone(data)
			herr := held.DecodeJSON(buf)
			disturb(held, buf)
			if s := sliceOf(held); s.IsValid() && s.Len() == 0 && sliceOf(want).Len() == 0 && k.name != "SubmitRequest" && k.name != "ResultsNotify" {
				// The one difference: a body without the array (`{}`, or a
				// Deliver with no results) leaves a value that held one its
				// array, emptied; a fresh value has none. (Not so the two
				// messages that say null: theirs is a nil again.)
				s.Set(sliceOf(want))
			}
			if (herr == nil) != (werr == nil) || !reflect.DeepEqual(held, want) {
				t.Fatalf("%s %q into a value that held another message:\n got %+v, %v\nwant %+v, %v", k.name, data, held, herr, want, werr)
			}
		}
		if gerr != nil {
			return
		}
		_, want = viaJSON(t, k.fresh, got)
		back := k.fresh()
		if err := json.Unmarshal(got.AppendJSON(nil), back); err != nil || !reflect.DeepEqual(back, want) {
			t.Fatalf("%s %q: re-encoded as %s, which reads back as %+v (%v), want %+v",
				k.name, data, got.AppendJSON(nil), back, err, want)
		}
	})
}

// bundleShapes are the two 64-element frames benchmark/layers.go prices:
// a bundle's SubmitRequest and its ResultsNotify.
func bundleShapes(payload string) (SubmitRequest, ResultsNotify) {
	submit := SubmitRequest{EPR: "falkon-instance-1"}
	notify := ResultsNotify{EPR: "falkon-instance-1"}
	for i := 0; i < 64; i++ {
		id := task.ID(1_000_000_000 + i)
		t := task.Task{ID: id, Engine: task.EngineSleep, Command: "sleep", Trace: 1<<40 + uint64(id)}
		if payload != "" {
			t.Args = []string{payload}
		}
		submit.Tasks = append(submit.Tasks, t)
		notify.Results = append(notify.Results, task.Result{
			ID: id, Stdout: payload, ExecutorID: "exec-0", Attempts: 1, Trace: t.Trace,
			QueuedAt: 5 * time.Second, DispatchedAt: 5*time.Second + 9*time.Millisecond,
			StartedAt: 5*time.Second + 10*time.Millisecond, FinishedAt: 5*time.Second + 10*time.Millisecond + 3*time.Microsecond,
		})
	}
	return submit, notify
}

// Allocation pins on the codec itself (the whole-system budget is
// internal/core's TestAllocsPerTaskBudget).
func TestCodecAllocs(t *testing.T) {
	submit, notify := bundleShapes(strings.Repeat("x", 1024))
	buf := notify.AppendJSON(submit.AppendJSON(nil))
	if n := testing.AllocsPerRun(100, func() { buf = notify.AppendJSON(submit.AppendJSON(buf[:0])) }); n != 0 {
		t.Errorf("AppendJSON into a warmed buffer allocates %.0f times, want 0", n)
	}

	// A piggy-backed one-argument assignment, message after message into the
	// reply a slot holds: what the decoder must allocate is the Args slice and
	// its one string — 2 objects; the Assignments slice is the one the reply
	// already held, and the EPR and the command are those of the message
	// before, which the reply remembers. A reply that holds nothing yet pays
	// for all five. (encoding/json took 13 for the same body.)
	body := DeliverReply{Assignments: []Assignment{{EPR: "falkon-instance-1",
		Task: task.Task{ID: 7, Command: "sleep", Args: []string{"0.25"}, Trace: 9}}}}.AppendJSON(nil)
	var reply DeliverReply
	if n := testing.AllocsPerRun(100, func() {
		if err := reply.DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("DecodeJSON of a one-assignment DeliverReply into the value that held the last allocates %.0f times, want 2", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var fresh DeliverReply
		if err := fresh.DecodeJSON(body); err != nil {
			t.Fatal(err)
		}
	}); n != 5 {
		t.Errorf("DecodeJSON of a one-assignment DeliverReply into a fresh value allocates %.0f times, want 5", n)
	}

	// A bundle of results from one executor, push after push into the one
	// value a client holds: nothing. The first result's Stdout and executor ID
	// are the last push's (the other 63 repeat both and share them), the EPR is
	// the caller's, the Results slice the one the message held.
	body = notify.AppendJSON(nil)
	var n ResultsNotify
	own := func(b []byte) string {
		if string(b) == notify.EPR {
			return notify.EPR
		}
		return ""
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := n.DecodeInterned(body, own, nil); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecodeInterned of a 64-result ResultsNotify into the value that held the last allocates %.0f times, want 0", got)
	}
	// Pushes from two executors in turn: each names an executor the last did
	// not, which a Seen holds already.
	other := notify
	other.Results = append([]task.Result(nil), notify.Results...)
	for i := range other.Results {
		other.Results[i].ExecutorID = "exec-other"
	}
	bodies := [][]byte{body, other.AppendJSON(nil)}
	var seen Seen
	turn := 0
	if got := testing.AllocsPerRun(100, func() {
		turn++
		if err := n.DecodeInterned(bodies[turn%2], own, seen.Intern); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DecodeInterned of pushes from two executors in turn through a Seen allocates %.0f times, want 0", got)
	}
}

// manyArgs is the body of a SubmitRequest of n one-argument tasks whose last
// task has args arguments instead.
func manyArgs(n, args int) []byte {
	req := bundleOf(n)
	last := &req.Tasks[n-1]
	for i := 1; i < args; i++ {
		last.Args = append(last.Args, fmt.Sprintf("%016x", i))
	}
	return req.AppendJSON(nil)
}

// bundleOf is a submit of n tasks, each with an argument of its own.
func bundleOf(n int) SubmitRequest {
	req := SubmitRequest{EPR: "falkon-instance-1", Tasks: make([]task.Task, n)}
	for i := range req.Tasks {
		req.Tasks[i] = task.Task{ID: task.ID(i + 1), Command: "sleep", Args: []string{fmt.Sprintf("%016x", i)}}
	}
	return req
}

// What a message carries is allocated once per message: a SubmitRequest whose
// tasks each have an argument of their own decodes into the Tasks slice, the
// EPR, the command the tasks share, one chunk of argument bytes and one of
// Args slices, however many tasks it has. (3 + 2 per task before the chunks.)
// A dispatcher, which shares the EPR with its instance, reads the same body
// into a Bundle of relayed tasks and one chunk of their bytes: two objects.
// And of those the slice is allocated once per message value, not per message:
// a second decode into the value that took the first allocates one object
// fewer, for each of the four messages that hold a slice.
func TestDecodeAllocsDoNotGrowWithTheBundle(t *testing.T) {
	for _, n := range []int{1, 64, jsonwire.MaxElems} {
		req := bundleOf(n)
		body := req.AppendJSON(nil)
		var got SubmitRequest
		if allocs := testing.AllocsPerRun(20, func() { got = SubmitRequest{}; decodeFast(t, &got, body) }); allocs != 5 {
			t.Errorf("DecodeJSON of a %d-task SubmitRequest allocates %.0f times, want 5", n, allocs)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("%d tasks decoded as %+v", n, got)
		}
		known := func([]byte) string { return req.EPR }
		var bundle Bundle
		before := CodecFallbacks.Value()
		if allocs := testing.AllocsPerRun(20, func() { _ = bundle.DecodeInterned(body, known) }); allocs != 2 || CodecFallbacks.Value() != before {
			t.Errorf("DecodeInterned of a %d-task Bundle allocates %.0f times, want 2", n, allocs)
		}
		if relayed := (SubmitRequest{EPR: bundle.EPR, Tasks: relayedTasks(bundle.Tasks)}); !reflect.DeepEqual(relayed, req) {
			t.Fatalf("%d tasks relayed as %+v", n, relayed)
		}
	}
	// One task with many arguments — the only task, or the last, so that no
	// element to come sizes a chunk for it — grows its two chunks by doubling,
	// as append would: a few allocations per thousand arguments, not one each.
	for _, n := range []int{1, 64} {
		body := manyArgs(n, 1000)
		var got, want SubmitRequest
		if allocs := testing.AllocsPerRun(20, func() { decodeFast(t, &got, body) }); allocs > 30 {
			t.Errorf("DecodeJSON of %d tasks, the last with 1,000 arguments, allocates %.0f times, want at most 30", n, allocs)
		}
		if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d tasks, the last with 1,000 arguments: decoded differently from encoding/json (%v)", n, err)
		}
	}
	g := &gen{rand.New(rand.NewSource(3))}
	for _, kind := range []int{0, 3, 4, 5, 7} { // the messages that hold a slice
		k := bodyKinds[kind]
		var long, short []byte // 64 elements, then 3: the array is kept, its tail let go
		for len(long) == 0 || len(short) == 0 {
			switch v := k.gen(g); bytes.Count(v.AppendJSON(nil), []byte(`{"id":`)) {
			case 64:
				long = v.AppendJSON(nil)
			case 3:
				short = v.AppendJSON(nil)
			}
		}
		for _, body := range [][]byte{long, short} {
			m := k.fresh()
			decodeFast(t, m, long)
			held := sliceOf(m)
			array := held.Pointer()
			again := testing.AllocsPerRun(20, func() { decodeFast(t, m, body) })
			if held.Pointer() != array {
				t.Errorf("%s: a second decode into the same value left the array it held for another", k.name)
			}
			if fresh := testing.AllocsPerRun(20, func() { decodeFast(t, k.fresh(), body) }); again > fresh-2 {
				// Two fewer at least: the slice, and the message value k.fresh
				// allocates. (It was "exactly two" until a held value offered
				// its last first element as `like`: a second decode of the same
				// body now also saves whichever of that element's strings a
				// first has to allocate, which is the body's to say.)
				t.Errorf("%s: a second decode into the same value allocates %.0f times, a first %.0f, want two fewer or better", k.name, again, fresh)
			}
			want := k.fresh()
			if err := json.Unmarshal(body, want); err != nil || !reflect.DeepEqual(m, want) {
				t.Errorf("%s: decoded into a value that held 64 elements\n got %+v\nwant %+v (%v)", k.name, m, want, err)
			}
		}
	}
	var empty SubmitRequest
	decodeFast(t, &empty, []byte(`{"epr":"e","tasks":[{"id":1,"args":[]}]}`))
	if args := empty.Tasks[0].Args; args == nil || len(args) != 0 {
		t.Fatalf(`"args":[] decoded as %#v, want an empty non-nil slice`, args)
	}
}

// What a held value remembers of its last message — the first element's
// strings — is only ever compared against, never assigned: whatever the next
// message's first element does with a field (repeats it, changes it, leaves it
// out), the value ends up as json.Unmarshal into a fresh one would leave it; a
// repeat shares the remembered string instead of allocating its own.
func TestHeldValueRemembersButNeverAssigns(t *testing.T) {
	same := func(a, b string) bool { return a == b && unsafe.StringData(a) == unsafe.StringData(b) }
	grant := func(first string) string {
		return `{"assignments":[` + first + `,{"epr":"falkon-instance-2","task":{"id":2,"command":"date"}}]}`
	}
	const was = `{"epr":"falkon-instance-1","task":{"id":1,"dir":"/tmp","command":"sleep","args":["1"]}}`
	for name, first := range map[string]string{
		"repeats": `{"epr":"falkon-instance-1","task":{"id":3,"dir":"/tmp","command":"sleep","args":["3"]}}`,
		"changes": `{"epr":"falkon-instance-9","task":{"id":3,"dir":"/var","command":"echo"}}`,
		"omits":   `{"epr":"","task":{"id":3}}`,
		"no epr":  `{"task":{"id":3,"command":"sleep"}}`, // outside the layout: the fallback's
	} {
		var held, want GetWorkReply
		if err := held.DecodeJSON([]byte(grant(was))); err != nil {
			t.Fatal(err)
		}
		before := held.Assignments[0]
		herr, werr := held.DecodeJSON([]byte(grant(first))), json.Unmarshal([]byte(grant(first)), &want)
		if herr != nil || werr != nil || !reflect.DeepEqual(held, want) {
			t.Errorf("GetWorkReply, first element %s:\n got %+v, %v\nwant %+v, %v", name, held, herr, want, werr)
		}
		if a := held.Assignments[0]; name == "repeats" && !(same(a.EPR, before.EPR) && same(a.Task.Command, before.Task.Command) && same(a.Task.Dir, before.Task.Dir)) {
			t.Errorf("GetWorkReply: a first element that repeats the last message's did not share its strings")
		}
	}
	push := func(first string) string {
		return `{"epr":"falkon-instance-1","results":[` + first + `,{"id":2,"executor":"exec-1"}]}`
	}
	const last = `{"id":1,"stdout":"out","stderr":"err","err":"boom","executor":"exec-0"}`
	for name, first := range map[string]string{
		"repeats": `{"id":3,"stdout":"out","stderr":"err","err":"boom","executor":"exec-0"}`,
		"changes": `{"id":3,"stdout":"other","executor":"exec-7"}`,
		"omits":   `{"id":3}`,
	} {
		var held, want ResultsNotify
		if err := held.DecodeJSON([]byte(push(last))); err != nil {
			t.Fatal(err)
		}
		before := held.Results[0]
		herr, werr := held.DecodeJSON([]byte(push(first))), json.Unmarshal([]byte(push(first)), &want)
		if herr != nil || werr != nil || !reflect.DeepEqual(held, want) {
			t.Errorf("ResultsNotify, first element %s:\n got %+v, %v\nwant %+v, %v", name, held, herr, want, werr)
		}
		if r := held.Results[0]; name == "repeats" && !(same(r.ExecutorID, before.ExecutorID) && same(r.Stdout, before.Stdout)) {
			t.Errorf("ResultsNotify: a first element that repeats the last message's did not share its strings")
		}
	}
}

// The Benchmark pairs price the codec against encoding/json on the same
// value; jsonSubmit and jsonNotify are the messages without their methods.
type (
	jsonSubmit SubmitRequest
	jsonNotify ResultsNotify
)

func benchmarkEncode(b *testing.B, codec func([]byte) []byte, ref any) {
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = codec(buf[:0])
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := json.Marshal(ref)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
		}
	})
}

func benchmarkDecode(b *testing.B, body []byte, codec func([]byte) error, ref func() any) {
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := codec(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(body, ref()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchShape is a pair of frames the Benchmark pairs price, by name: "bundle"
// is bundleShapes', and "bulk" the same 64 elements as the repo benchmark's
// bulk rows send them (benchmark/loop.go) — 10-digit IDs, 19-digit traces and
// one 16-byte argument a task, each result with its four stamps.
type benchShape struct {
	name   string
	submit SubmitRequest
	notify ResultsNotify
}

func benchShapes() []benchShape {
	submit, notify := bundleShapes("")
	bundle := benchShape{"bundle", submit, notify}
	submit, notify = bundleShapes("")
	for i := range submit.Tasks {
		t := &submit.Tasks[i]
		t.Trace = 1e18 + uint64(t.ID)
		t.Args = []string{fmt.Sprintf("%016x", uint64(t.ID)*0x9e3779b97f4a7c15)}
		notify.Results[i].Trace = t.Trace
	}
	return []benchShape{bundle, {"bulk", submit, notify}}
}

func BenchmarkSubmitRequestEncode(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) { benchmarkEncode(b, s.submit.AppendJSON, jsonSubmit(s.submit)) })
	}
}

func BenchmarkResultsNotifyEncode(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) { benchmarkEncode(b, s.notify.AppendJSON, jsonNotify(s.notify)) })
	}
}

func BenchmarkSubmitRequestDecode(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) {
			benchmarkDecode(b, s.submit.AppendJSON(nil),
				func(body []byte) error { return new(SubmitRequest).DecodeJSON(body) },
				func() any { return new(jsonSubmit) })
		})
	}
}

func BenchmarkResultsNotifyDecode(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) {
			benchmarkDecode(b, s.notify.AppendJSON(nil),
				func(body []byte) error { return new(ResultsNotify).DecodeJSON(body) },
				func() any { return new(jsonNotify) })
		})
	}
}

// BenchmarkRelay prices a dispatcher's half of the bulk shape (DESIGN.md §9,
// "Relay"): reading a submit as a Bundle, and writing its 64 tasks to an
// executor as a RelayReply. BenchmarkSubmitRequestDecode and a GetWorkReply's
// AppendJSON are the same legs decoding and encoding every task whole.
func BenchmarkRelay(b *testing.B) {
	s := benchShapes()[1]
	body := s.submit.AppendJSON(nil)
	known := func([]byte) string { return s.submit.EPR }
	var bundle Bundle
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if err := bundle.DecodeInterned(body, known); err != nil {
				b.Fatal(err)
			}
		}
	})
	relays := make([]Relay, len(bundle.Tasks))
	for i := range relays {
		relays[i] = Relay{EPR: bundle.EPR, Task: &bundle.Tasks[i]}
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = RelayReply{Assignments: relays}.AppendJSON(buf[:0])
		}
		b.SetBytes(int64(len(buf)))
	})
}
