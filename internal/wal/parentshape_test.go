package wal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"falkon/internal/sched"
	"falkon/internal/task"
)

// parentState is State as encoding/json wrote it while a Pending held a whole
// task.Task: the shape snapshots and standby baselines had before they kept a
// task's bytes, and the shape they must keep.
type parentState struct {
	NextEPR   int64           `json:"next_epr"`
	Counters  sched.Counters  `json:"counters"`
	Instances []Instance      `json:"instances,omitempty"`
	Pending   []parentPending `json:"pending,omitempty"`
}

type parentPending struct {
	EPR      string    `json:"epr"`
	Task     task.Task `json:"task"`
	Attempts int       `json:"attempts,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
}

// appendRaw frames body, as it is, as a record of kind.
func appendRaw(dst []byte, kind Kind, body string) []byte {
	dst, start := beginRecord(dst, kind)
	return sealRecord(append(dst, body...), start)
}

// A journal in the old shape recovers to tasks whose bytes — what a grant
// writes of them — decode to the tasks that were written: a snapshot that
// encoding/json wrote of whole tasks, escaping < and &, one with an ID of
// twenty digits, and an accept record behind it whose tasks are encoding/json's
// and, as a dispatcher relays what a client sent, one with "trace":0.
func TestParentShapedJournalRecovers(t *testing.T) {
	epr := "falkon-instance-1"
	snapped := []task.Task{
		{ID: 18446744073709551615, Command: "a<b&c", Args: []string{"<&>", `"q"`}, IO: &task.IOSpec{Dataset: "d<1>"}, Trace: 7},
		{ID: 12345678901234567890, Engine: task.EngineData, Duration: 5, MaxRetries: 2, IO: &task.IOSpec{}},
	}
	old := parentState{NextEPR: 1, Instances: []Instance{{EPR: epr, Tenant: "default", Submitted: 4}}}
	for i, tk := range snapped {
		old.Pending = append(old.Pending, parentPending{EPR: epr, Task: tk, Attempts: i, Tenant: "default"})
	}
	old.Counters.Submitted = 4
	body, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`a\u003cb\u0026c`)) {
		t.Fatalf("encoding/json did not escape the snapshot's < and &: %s", body)
	}
	accepted := task.Task{ID: 3, Command: "x<y", Env: []string{"K=&"}}
	first, err := json.Marshal(accepted)
	if err != nil {
		t.Fatal(err)
	}
	const traceZero = `{"id":4,"command":"sleep","trace":0}`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), appendRaw(nil, KindSnapshot, string(body)), 0o644); err != nil {
		t.Fatal(err)
	}
	seg := appendRaw(nil, KindAccept, `{"epr":"`+epr+`","tasks":[`+string(first)+`,`+traceZero+`],"tenant":"default"}`)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	st, j, info := mustRecover(t, dir, testOpts())
	defer j.Close()
	if info.SnapshotIndex != 1 || len(st.Pending) != 4 {
		t.Fatalf("recovered %d tasks from snapshot %d, want 4 from 1", len(st.Pending), info.SnapshotIndex)
	}
	var zero task.Task
	if err := json.Unmarshal([]byte(traceZero), &zero); err != nil {
		t.Fatal(err)
	}
	for i, want := range append(snapped, accepted, zero) {
		p := st.Pending[i]
		var got task.Task
		if err := json.Unmarshal(p.Task.AppendJSON(nil), &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("task %d recovered as %s, which decodes to %+v (%v), want %+v", i, p.Task.AppendJSON(nil), got, err, want)
		}
		if p.EPR != epr || p.Tenant != "default" || i < 2 && p.Attempts != i {
			t.Errorf("task %d recovered as %+v", i, p)
		}
	}
	if got := string(st.Pending[3].Task.AppendJSON(nil)); got != traceZero {
		t.Errorf("a task received with \"trace\":0 recovered as %s, want it as received", got)
	}
}

// What State.MarshalJSON writes, the old shape reads: the same instances and
// counters, no EPR sequence (a minted EPR is random, so none is kept), and
// every pending task's bytes decode to the task they are. (A
// standby is sent it through encoding/json, which escapes a task's <, > and &:
// the same task.) What a snapshot holds, appendJSON's bytes, reads back as
// the state it was written from, each task's bytes as they were.
func TestStateReadsAsParentShape(t *testing.T) {
	tasks := []task.Task{
		{ID: 18446744073709551615, Command: "a<b&c", Args: []string{"<&>"}, Trace: 9},
		{ID: 2, Engine: task.EngineData, IO: &task.IOSpec{ReadBytes: 1, Dataset: "dé"}, Duration: 3},
	}
	st := State{Instances: []Instance{{EPR: "e", Name: "n", Results: []task.Result{{ID: 5}}}}}
	for i, r := range task.Relay(tasks) {
		st.Pending = append(st.Pending, Pending{EPR: "e", Task: r, Attempts: i, Tenant: "t"})
	}
	st.Counters.Dispatched = 1
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var got parentState
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("%v: %s", err, b)
	}
	want := parentState{Counters: st.Counters, Instances: st.Instances}
	for i := range tasks {
		want.Pending = append(want.Pending, parentPending{EPR: "e", Task: tasks[i], Attempts: i, Tenant: "t"})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("State encodes as\n%s\nwhich the old shape reads as\n%+v\nwant\n%+v", b, got, want)
	}
	b, err = st.MarshalJSON()
	var back State
	if err != nil || back.UnmarshalJSON(b) != nil || !reflect.DeepEqual(back, st) {
		t.Fatalf("State reads its own snapshot as %+v (%v), want %+v", back, err, st)
	}
}
