package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"falkon/internal/task"
)

// histOp is one step of a generated history: the records a dispatcher writes
// for one protocol message. cold is a ready-framed instance or destroy
// record; accept, grant (with exec) and done are the per-task ones, which
// render either as the single-task kinds 4/5 or as the batch kinds 6/7.
type histOp struct {
	cold   []byte
	accept *AcceptRec
	exec   string
	grant  []TaskRef
	done   []CompleteRec
}

func (op histOp) render(dst []byte, batched bool) []byte {
	must := func(b []byte, err error) []byte {
		if err != nil {
			panic(err)
		}
		return b
	}
	switch {
	case op.cold != nil:
		return append(dst, op.cold...)
	case op.accept != nil:
		return must(marshalRecord(dst, KindAccept, *op.accept))
	case op.grant != nil && batched:
		return must(marshalRecord(dst, KindDispatchBatch, DispatchBatchRec{Exec: op.exec, Tasks: op.grant}))
	case op.grant != nil:
		for _, t := range op.grant {
			dst = must(marshalRecord(dst, KindDispatch, DispatchRec{EPR: t.EPR, ID: t.ID, Exec: op.exec}))
		}
	case batched:
		return must(marshalRecord(dst, KindCompleteBatch, CompleteBatchRec{Results: op.done}))
	default:
		for _, c := range op.done {
			dst = must(marshalRecord(dst, KindComplete, c))
		}
	}
	return dst
}

// randomHistory generates the journal of a busy dispatcher, hostile cases
// included: accepts that repeat live IDs, grants and completes naming tasks
// and instances the journal never saw (or saw destroyed), results repeated
// within one delivery, grants that span instances, a destroy mid-way.
func randomHistory(rng *rand.Rand) []histOp {
	var ops []histOp
	var eprs []string
	nextID := map[string]int{}
	create := func() {
		epr := fmt.Sprintf("falkon-instance-%d", len(eprs)+1)
		eprs = append(eprs, epr)
		rec, _ := marshalRecord(nil, KindInstance, InstanceRec{EPR: epr, Notify: len(eprs)%2 == 0, Tenant: []string{"", "a", "b"}[len(eprs)%3]})
		ops = append(ops, histOp{cold: rec})
	}
	anyTask := func() TaskRef {
		epr := eprs[rng.Intn(len(eprs))]
		if rng.Intn(20) == 0 {
			epr = "falkon-instance-999" // never created
		}
		// Mostly an ID that was accepted; sometimes one that never was.
		return TaskRef{EPR: epr, ID: task.ID(1 + rng.Intn(nextID[epr]+3))}
	}
	create()
	create()
	destroyed := false
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(100); {
		case r < 3 && len(eprs) < 6:
			create()
		case r < 25:
			epr := eprs[rng.Intn(len(eprs))]
			ac := &AcceptRec{EPR: epr}
			for n := 1 + rng.Intn(8); n > 0; n-- {
				if rng.Intn(6) == 0 && nextID[epr] > 0 {
					ac.Tasks = append(ac.Tasks, task.Task{ID: task.ID(1 + rng.Intn(nextID[epr]))}) // resubmitted
					continue
				}
				nextID[epr]++
				ac.Tasks = append(ac.Tasks, task.Task{ID: task.ID(nextID[epr]), Args: []string{fmt.Sprint(step)}, MaxRetries: rng.Intn(3)})
			}
			ops = append(ops, histOp{accept: ac})
		case r < 60:
			op := histOp{exec: fmt.Sprintf("x%d", rng.Intn(4))}
			for n := 1 + rng.Intn(16); n > 0; n-- {
				op.grant = append(op.grant, anyTask())
			}
			ops = append(ops, op)
		default:
			var op histOp
			for n := 1 + rng.Intn(16); n > 0; n-- {
				t := anyTask()
				res := task.Result{ID: t.ID, Stdout: fmt.Sprint("out ", step), Attempts: 1 + rng.Intn(2)}
				if rng.Intn(10) == 0 {
					res.Err, res.ExitCode = "retries exhausted: boom", -1
				}
				op.done = append(op.done, CompleteRec{EPR: t.EPR, Result: res})
			}
			ops = append(ops, op)
		}
		if step == 200 && !destroyed {
			destroyed = true
			rec, _ := marshalRecord(nil, KindDestroy, DestroyRec{EPR: eprs[1]})
			ops = append(ops, histOp{cold: rec})
		}
	}
	return ops
}

// recoverSegment recovers a directory holding seg as its one segment.
func recoverSegment(t *testing.T, seg []byte) (*State, RecoveryInfo) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, j, info := mustRecover(t, dir, testOpts())
	j.Close()
	return st, info
}

// A history journaled with one dispatch record per grant and one complete
// record per delivery recovers to exactly the state the same history recovers
// to as one record per task — and so does a segment that changes from the old
// kinds to the new half-way, which is what a journal appended to across the
// upgrade looks like.
func TestBatchRecordsReplayLikeSingles(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		ops := randomHistory(rand.New(rand.NewSource(seed)))
		var singles, batches, upgraded []byte
		for i, op := range ops {
			singles = op.render(singles, false)
			batches = op.render(batches, true)
			upgraded = op.render(upgraded, i >= len(ops)/2)
		}
		want, wantInfo := recoverSegment(t, singles)
		got, gotInfo := recoverSegment(t, batches)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: batch records recover to\n%+v\nsingle records to\n%+v", seed, got, want)
		}
		if mixed, _ := recoverSegment(t, upgraded); !reflect.DeepEqual(mixed, want) {
			t.Fatalf("seed %d: a segment of old kinds then new recovers to\n%+v\nwant\n%+v", seed, mixed, want)
		}
		// The history must have exercised what it claims to.
		var attempts, results int
		for _, p := range want.Pending {
			attempts += p.Attempts
		}
		for _, in := range want.Instances {
			results += len(in.Results)
		}
		if len(want.Pending) == 0 || attempts == 0 || results == 0 || want.Counters.Failed == 0 || len(want.Instances) < 2 {
			t.Fatalf("seed %d: degenerate history: %d pending, %d attempts, %d results, counters %+v", seed, len(want.Pending), attempts, results, want.Counters)
		}
		if gotInfo.Records*3 > wantInfo.Records {
			t.Fatalf("seed %d: %d batch records against %d singles — the batches hold too little to prove anything", seed, gotInfo.Records, wantInfo.Records)
		}
	}
}

// awkward are the strings an encoder gets wrong first: quotes, backslashes,
// control bytes, the characters encoding/json escapes for HTML and jsonwire
// does not, multi-byte runes, invalid UTF-8 aside (it decodes to U+FFFD under
// both encoders, so it cannot round-trip).
var awkward = []string{
	"", "plain", `quo"te`, `back\slash`, "tab\there", "nl\nhere", "\x00\x01\x1f", "<tag>&amp;", "\u2028\u2029", "héllo, 世界 🚀",
	strings.Repeat("k", 1024), strings.Repeat(`"\`+"\n", 341),
}

// Every hand-encoded body decodes through encoding/json — the reader recovery
// uses — to the value it was encoded from.
func TestHandEncodedBodiesDecodeThroughEncodingJSON(t *testing.T) {
	roundTrip := func(name string, body []byte, got, want any) {
		t.Helper()
		if !json.Valid(body) {
			t.Fatalf("%s: invalid JSON: %s", name, body)
		}
		if err := json.Unmarshal(body, got); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded\n%+v\nwant\n%+v", name, got, want)
		}
	}
	var tasks []task.Task
	var results []CompleteRec
	var refs []TaskRef
	for i, s := range awkward {
		tk := task.Task{ID: task.ID(i + 1), Command: s, Dir: s, Trace: uint64(i), MaxRetries: i % 3, Duration: time.Duration(i) * time.Millisecond, Stage: -i}
		if s != "" {
			tk.Args, tk.Env = []string{s, "", s}, []string{s}
			tk.IO = &task.IOSpec{Location: s, Dataset: s, ReadBytes: int64(i)}
		}
		tasks = append(tasks, tk)
		results = append(results, CompleteRec{EPR: s, Result: task.Result{
			ID: task.ID(i + 1), ExitCode: i - 3, Stdout: s, Stderr: s, Err: s, ExecutorID: s,
			QueuedAt: time.Duration(i), FinishedAt: time.Duration(i) * time.Hour, Attempts: i, Trace: uint64(i) << 40,
		}})
		refs = append(refs, TaskRef{EPR: s, ID: task.ID(i) << 33})
	}
	for i, s := range awkward {
		name := fmt.Sprintf("string %d", i)
		ac := AcceptRec{EPR: s, Tasks: tasks[:i+1], Tenant: s}
		roundTrip(name+" accept", ac.appendJSON(nil), new(AcceptRec), &ac)
		dr := DispatchRec{EPR: s, ID: task.ID(i), Exec: s}
		roundTrip(name+" dispatch", dr.appendJSON(nil), new(DispatchRec), &dr)
		roundTrip(name+" complete", results[i].appendJSON(nil), new(CompleteRec), &results[i])
		db := DispatchBatchRec{Exec: s, Tasks: refs[:i+1]}
		roundTrip(name+" dispatch batch", db.appendJSON(nil), new(DispatchBatchRec), &db)
		cb := CompleteBatchRec{Results: results[:i+1]}
		roundTrip(name+" complete batch", cb.appendJSON(nil), new(CompleteBatchRec), &cb)
	}
	// An accept's nil tasks encode as null, as json.Marshal has them.
	roundTrip("nil accept", (&AcceptRec{EPR: "e"}).appendJSON(nil), new(AcceptRec), &AcceptRec{EPR: "e"})
}

// What Append(kind, any) writes for the per-task records is, byte for byte,
// the record encoding/json framed before the hand encoders took over — so a
// journal's size per record (the benchmark's wal.bytes_per_record) does not
// move — and the typed entry points write the same bytes as Append does.
// (Strings holding <, >, & or U+2028/9 are the exception: jsonwire leaves
// them unescaped. They decode the same; the test above covers them.)
func TestAppendMatchesEncodingJSON(t *testing.T) {
	epr := "falkon-instance-1"
	tasks := []task.Task{
		{ID: 1, Args: []string{"a b", `q"uo\te`}, MaxRetries: 2, Trace: 9},
		{ID: 2, Engine: task.EngineSleep, Duration: time.Second, IO: &task.IOSpec{Dataset: "d", ReadBytes: 4}},
		{ID: 1<<63 + 5, Command: "/bin/true", Env: []string{"A=1"}, Dir: "/tmp", Stage: 3},
	}
	res := task.Result{ID: 1, ExitCode: -1, Stdout: strings.Repeat("o", 1024), Stderr: "e\n", Err: "retries exhausted: x", ExecutorID: "exec-0",
		QueuedAt: 1, DispatchedAt: 2, StartedAt: 3, FinishedAt: 4, Attempts: 2, Trace: 7}
	accept := AcceptRec{EPR: epr, Tasks: tasks, Tenant: "a"}
	grant := DispatchBatchRec{Exec: "exec-0", Tasks: []TaskRef{{epr, 1}, {"falkon-instance-2", 2}}}
	done := CompleteBatchRec{Results: []CompleteRec{{epr, res}, {epr, task.Result{ID: 2}}}}
	recs := []struct {
		kind Kind
		v    any
	}{
		{KindInstance, InstanceRec{EPR: epr, Notify: true}},
		{KindAccept, accept},
		{KindAccept, AcceptRec{EPR: epr}}, // nil tasks, no tenant
		{KindDispatch, DispatchRec{EPR: epr, ID: 1, Exec: "exec-0"}},
		{KindDispatch, DispatchRec{EPR: epr, ID: 2}},
		{KindComplete, CompleteRec{EPR: epr, Result: res}},
		{KindComplete, CompleteRec{EPR: epr, Result: task.Result{ID: 2}}},
		{KindDispatchBatch, grant},
		{KindCompleteBatch, done},
		{KindDestroy, DestroyRec{EPR: epr}},
	}
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	var want []byte
	for _, r := range recs {
		if err := j.Append(r.kind, r.v); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(r.v)
		if err != nil {
			t.Fatal(err)
		}
		want = appendRecord(want, r.kind, body)
	}
	// The typed entry points, against the same records through Append: an
	// accept of relayed tasks is an AcceptRec's, byte for byte.
	if _, err := j.AppendAccept(accept.EPR, accept.Tenant, task.Relay(accept.Tasks)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendDispatches(&grant); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCompletes(&done); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 7, 8} {
		body, _ := json.Marshal(recs[i].v)
		want = appendRecord(want, recs[i].kind, body)
	}
	if got := j.Appends(); got != int64(len(recs)+3) {
		t.Fatalf("appends = %d, want %d", got, len(recs)+3)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gr, wr := decodeAll(got), decodeAll(want)
		for i := range wr {
			if i >= len(gr) || gr[i].kind != wr[i].kind || !bytes.Equal(gr[i].body, wr[i].body) {
				t.Fatalf("record %d differs from encoding/json's:\n got %s\nwant %s", i, gr[min(i, len(gr)-1)].body, wr[i].body)
			}
		}
		t.Fatalf("segment is %d bytes, want %d", len(got), len(want))
	}
}

// A record that cannot be encoded leaves the appender's buffer as it was.
func TestAppendEncodingErrorLeavesNoPartialRecord(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	if err := j.Append(KindInstance, InstanceRec{EPR: "falkon-instance-1"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(KindInstance, func() {}); err == nil {
		t.Fatal("appending a func succeeded")
	}
	if err := j.AppendDispatches(&DispatchBatchRec{Exec: "x", Tasks: []TaskRef{{"falkon-instance-1", 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if recs := decodeAll(seg); len(recs) != 2 || recs[1].kind != KindDispatchBatch || CountFrames(seg) != 2 {
		t.Fatalf("segment holds %d records (%d frames), want the 2 that encoded", len(recs), CountFrames(seg))
	}
}
