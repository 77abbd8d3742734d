package fproto

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"falkon/internal/task"
)

func roundTrip[T any](t *testing.T, in T) T {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSubmitRequestRoundTrip(t *testing.T) {
	in := SubmitRequest{
		EPR: "falkon-instance-7",
		Tasks: []task.Task{
			{ID: 1, Engine: task.EngineSleep, Command: "sleep", Duration: 3 * time.Second},
			{ID: 2, Engine: task.EngineExec, Command: "/bin/echo", Args: []string{"hi"}, Env: []string{"A=1"}},
			{ID: 3, Engine: task.EngineData, IO: &task.IOSpec{ReadBytes: 1024, Location: "shared", Dataset: "d1"}},
		},
	}
	out := roundTrip(t, in)
	if out.EPR != in.EPR || len(out.Tasks) != 3 {
		t.Fatalf("out = %+v", out)
	}
	if out.Tasks[0].Duration != 3*time.Second {
		t.Fatalf("duration = %v", out.Tasks[0].Duration)
	}
	if out.Tasks[2].IO == nil || out.Tasks[2].IO.Dataset != "d1" {
		t.Fatalf("io = %+v", out.Tasks[2].IO)
	}
}

func TestDeliverRequestRoundTrip(t *testing.T) {
	in := DeliverRequest{
		ExecutorID: "e1",
		Results: []TaggedResult{{
			EPR:    "i1",
			Result: task.Result{ID: 9, ExitCode: 0, Stdout: "ok"},
			RunDur: 250 * time.Millisecond,
		}},
		WantWork: true,
		MaxNew:   2,
	}
	out := roundTrip(t, in)
	if out.Results[0].RunDur != 250*time.Millisecond {
		t.Fatalf("run dur = %v", out.Results[0].RunDur)
	}
	if !out.WantWork || out.MaxNew != 2 {
		t.Fatalf("out = %+v", out)
	}
}

func TestAssignmentCacheHitOmittedWhenFalse(t *testing.T) {
	b, err := json.Marshal(Assignment{EPR: "i", Task: task.Task{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"epr":"i","task":{"id":1}}` {
		t.Fatalf("json = %s", b)
	}
}

func TestStatsReplyRoundTrip(t *testing.T) {
	in := StatsReply{Queued: 5, Outstanding: 2, TotalExecutors: 7, Submitted: 100, CacheHits: 3,
		Shards: []ShardStats{{Shard: 0, Queued: 3, Steals: 1}, {Shard: 1, Queued: 2}}}
	out := roundTrip(t, in)
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("out = %+v, want %+v", out, in)
	}
}

func TestMethodNamesAreNamespaced(t *testing.T) {
	for _, m := range []string{
		MethodCreateInstance, MethodDestroyInstance, MethodSubmit,
		MethodCollect, MethodRegister, MethodDeregister, MethodGetWork,
		MethodDeliver, MethodStats, NotifyWorkAvailable, NotifyWorkGrant, NotifyResults,
	} {
		if len(m) < 8 || m[:7] != "falkon." {
			t.Fatalf("method %q not namespaced", m)
		}
	}
}
