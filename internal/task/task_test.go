package task

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStringRoundTrip(t *testing.T) {
	for _, e := range []Engine{EngineSleep, EngineData, EngineExec, EngineFunc} {
		got, err := ParseEngine(e.String())
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", e.String(), err)
		}
		if got != e {
			t.Fatalf("round trip %v -> %v", e, got)
		}
	}
}

func TestParseEngineDefaultsAndErrors(t *testing.T) {
	if e, err := ParseEngine(""); err != nil || e != EngineSleep {
		t.Fatalf("empty engine = %v, %v", e, err)
	}
	if e, err := ParseEngine("  EXEC "); err != nil || e != EngineExec {
		t.Fatalf("case/space engine = %v, %v", e, err)
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("bogus engine did not error")
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
	if got := r.Overhead(); got != 1*time.Second {
		t.Fatalf("overhead = %v", got)
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
			r.Overhead()+r.RunTime() == r.ExecTime() &&
			r.QueueTime() >= 0 && r.ExecTime() >= 0 && r.Overhead() >= 0
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

func TestJSONLRoundTrip(t *testing.T) {
	var gen IDGen
	in := Batch(&gen, 10, 2*time.Second)
	in[3].Engine = EngineData
	in[3].IO = &IOSpec{ReadBytes: 99, Dataset: "d"}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
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

func TestResultBufferTakeAndWake(t *testing.T) {
	var b ResultBuffer
	w := b.Wait()
	for i := 1; i <= 5; i++ {
		b.Add(Result{ID: ID(i)})
	}
	select {
	case <-w:
	default:
		t.Fatal("waiter not woken by Add")
	}
	if got := b.Take(2); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("Take(2) = %v", got)
	}
	if got := b.Take(0); len(got) != 3 || got[0].ID != 3 { // 0 = all
		t.Fatalf("Take(all) = %v", got)
	}
	if got := b.Take(0); got != nil {
		t.Fatalf("empty Take = %v", got)
	}
}
