package task

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"falkon/internal/jsonwire"
)

func TestEngineStringRoundTrip(t *testing.T) {
	for e, name := range map[Engine]string{EngineSleep: "sleep", EngineData: "data", EngineExec: "exec", EngineFunc: "func"} {
		if got := e.String(); got != name {
			t.Fatalf("Engine(%d).String() = %q, want %q", uint8(e), got, name)
		}
	}
}

func TestUnknownEnumStrings(t *testing.T) {
	if s := Engine(200).String(); s != "engine(200)" {
		t.Fatalf("engine string = %q", s)
	}
	if s := Status(200).String(); s != "status(200)" {
		t.Fatalf("status string = %q", s)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		StatusQueued:     "queued",
		StatusDispatched: "dispatched",
		StatusRunning:    "running",
		StatusDone:       "done",
		StatusFailed:     "failed",
	}
	for st, w := range want {
		if st.String() != w {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), w)
		}
	}
}

func TestIDGenConcurrentUniqueness(t *testing.T) {
	var g IDGen
	const workers, per = 8, 1000
	ids := make(chan ID, workers*per)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				ids <- g.Next()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[ID]bool, workers*per)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d ids, want %d", len(seen), workers*per)
	}
}

func TestBatchBuildsSleepTasks(t *testing.T) {
	var g IDGen
	ts := Batch(&g, 5, 2*time.Second)
	if len(ts) != 5 {
		t.Fatalf("len = %d", len(ts))
	}
	for i, tk := range ts {
		if tk.Engine != EngineSleep || tk.Duration != 2*time.Second {
			t.Fatalf("task %d = %+v", i, tk)
		}
		if tk.ID != ID(i+1) {
			t.Fatalf("task %d id = %v", i, tk.ID)
		}
	}
}

func TestResultTimingAccessors(t *testing.T) {
	r := Result{
		QueuedAt:     1 * time.Second,
		DispatchedAt: 3 * time.Second,
		StartedAt:    4 * time.Second,
		FinishedAt:   10 * time.Second,
	}
	if got := r.QueueTime(); got != 2*time.Second {
		t.Fatalf("queue = %v", got)
	}
	if got := r.ExecTime(); got != 7*time.Second {
		t.Fatalf("exec = %v", got)
	}
	if got := r.RunTime(); got != 6*time.Second {
		t.Fatalf("run = %v", got)
	}
}

func TestResultFailed(t *testing.T) {
	if (Result{}).Failed() {
		t.Fatal("zero result reported failed")
	}
	if !(Result{ExitCode: 1}).Failed() {
		t.Fatal("nonzero exit not failed")
	}
	if !(Result{Err: "boom"}).Failed() {
		t.Fatal("error not failed")
	}
}

// Property: timing identities hold for any ordered timestamps.
func TestResultTimingIdentity(t *testing.T) {
	prop := func(a, b, c, d uint16) bool {
		q := time.Duration(a) * time.Millisecond
		disp := q + time.Duration(b)*time.Millisecond
		start := disp + time.Duration(c)*time.Millisecond
		fin := start + time.Duration(d)*time.Millisecond
		r := Result{QueuedAt: q, DispatchedAt: disp, StartedAt: start, FinishedAt: fin}
		return r.QueueTime()+r.ExecTime() == fin-q &&
			r.RunTime() <= r.ExecTime() &&
			r.QueueTime() >= 0 && r.RunTime() >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIDString(t *testing.T) {
	if got := ID(42).String(); got != "t42" {
		t.Fatalf("id string = %q", got)
	}
}

func TestReadJSONL(t *testing.T) {
	in := `# workload
{"id": 5, "engine": 2, "command": "/bin/true"}

{"engine": 0, "command": "sleep", "duration": 1000000000}
`
	var gen IDGen
	tasks, err := ReadJSONL(strings.NewReader(in), &gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if tasks[0].ID != 5 || tasks[0].Engine != EngineExec {
		t.Fatalf("task0 = %+v", tasks[0])
	}
	if tasks[1].ID == 0 {
		t.Fatal("missing id not assigned")
	}
	if tasks[1].Duration != time.Second {
		t.Fatalf("duration = %v", tasks[1].Duration)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	var gen IDGen
	if _, err := ReadJSONL(strings.NewReader("not json"), &gen); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("# only comments\n"), &gen); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// ReadJSONL reads what encoding/json writes, one task a line.
func TestJSONLRoundTrip(t *testing.T) {
	var gen IDGen
	in := Batch(&gen, 10, 2*time.Second)
	in[3].Engine = EngineData
	in[3].IO = &IOSpec{ReadBytes: 99, Dataset: "d"}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // one JSON object a line
	for i := range in {
		if err := enc.Encode(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ReadJSONL(&buf, &gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("tasks = %d", len(out))
	}
	if out[3].IO == nil || out[3].IO.Dataset != "d" {
		t.Fatalf("task3 = %+v", out[3])
	}
}

// A Scratch is kept under the rule a connection's read buffer is: grown to the
// largest bundle it reads, and made anew once it is over 1 MiB and a bundle
// uses under an eighth of it.
func TestScratchKeepsUnderTheBufferRule(t *testing.T) {
	bundle := func(n int) []byte {
		b := []byte(`[`)
		for i := range n {
			if i > 0 {
				b = append(b, ',')
			}
			b = (&Task{ID: ID(i + 1), Command: "sleep", Args: []string{"0123456789abcdef"}}).AppendJSON(b)
		}
		return append(b, ']')
	}
	var s Scratch
	read := func(n int) int {
		var r jsonwire.Reader
		r.Reset(bundle(n))
		r.Expect(`[`)
		if got := ReadRelayed(&r, &s); len(got) != n || !r.OK() || got[n-1].ID != ID(n) {
			t.Fatalf("read %d of %d tasks", len(got), n)
		}
		return cap(s.rs)
	}
	if c := read(4096); c < 4096 {
		t.Fatalf("a 4,096-task bundle left a scratch of %d", c)
	}
	if c := read(1); c < 4096 {
		t.Errorf("a 1-task bundle dropped a %d-task scratch, under 1 MiB", c)
	}
	big := read(16384)
	if size := big * int(unsafe.Sizeof(received{})); size <= 1<<20 {
		t.Fatalf("a 16,384-task scratch is %d B, want over 1 MiB", size)
	}
	if c := read(big/8 + 1); c != big {
		t.Errorf("a bundle using an eighth of a %d-task scratch left %d", big, c)
	}
	if c := read(64); c >= big {
		t.Errorf("a 64-task bundle kept a %d-task scratch", c)
	}
}
