package fproto

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"falkon/internal/task"
)

// Old↔new wire pins for the body codec. The golden bytes are what the
// commit before the codec put on the wire for these values (its
// json.Marshal output, captured by running it), and the "old" structs are
// the message shapes as that commit decoded them, frozen here. A peer built
// from that commit and one built from this must read each other.

type (
	oldIOSpec struct {
		ReadBytes  int64  `json:"read_bytes,omitempty"`
		WriteBytes int64  `json:"write_bytes,omitempty"`
		Location   string `json:"location,omitempty"`
		Dataset    string `json:"dataset,omitempty"`
	}
	oldTask struct {
		ID         uint64        `json:"id"`
		Engine     uint8         `json:"engine,omitempty"`
		Dir        string        `json:"dir,omitempty"`
		Command    string        `json:"command,omitempty"`
		Args       []string      `json:"args,omitempty"`
		Env        []string      `json:"env,omitempty"`
		IO         *oldIOSpec    `json:"io,omitempty"`
		Duration   time.Duration `json:"duration,omitempty"`
		MaxRetries int           `json:"max_retries,omitempty"`
		Stage      int           `json:"stage,omitempty"`
		Trace      uint64        `json:"trace,omitempty"`
	}
	oldResult struct {
		ID           uint64        `json:"id"`
		ExitCode     int           `json:"exit_code,omitempty"`
		Stdout       string        `json:"stdout,omitempty"`
		Stderr       string        `json:"stderr,omitempty"`
		Err          string        `json:"err,omitempty"`
		ExecutorID   string        `json:"executor,omitempty"`
		QueuedAt     time.Duration `json:"queued_at,omitempty"`
		DispatchedAt time.Duration `json:"dispatched_at,omitempty"`
		StartedAt    time.Duration `json:"started_at,omitempty"`
		FinishedAt   time.Duration `json:"finished_at,omitempty"`
		Attempts     int           `json:"attempts,omitempty"`
		Trace        uint64        `json:"trace,omitempty"`
	}
	oldAssignment struct {
		EPR      string  `json:"epr"`
		Task     oldTask `json:"task"`
		CacheHit bool    `json:"cache_hit,omitempty"`
	}
	oldTaggedResult struct {
		EPR         string        `json:"epr"`
		Result      oldResult     `json:"result"`
		RunDur      time.Duration `json:"run_dur"`
		OverheadDur time.Duration `json:"overhead_dur,omitempty"`
	}
	oldCapacityHint struct {
		Queued      int    `json:"queued"`
		Outstanding int    `json:"outstanding"`
		IdleSlots   int    `json:"idle_slots"`
		Executors   int    `json:"executors"`
		Seq         uint64 `json:"seq,omitempty"`
		Epoch       int64  `json:"epoch,omitempty"`
	}
	oldSubmitRequest struct {
		EPR   string    `json:"epr"`
		Tasks []oldTask `json:"tasks"`
	}
	oldSubmitReplyV2 struct { // oldSubmitReply above predates retry_after_ms
		Accepted         int              `json:"accepted"`
		Deduped          int              `json:"deduped,omitempty"`
		Capacity         *oldCapacityHint `json:"capacity,omitempty"`
		RetryAfterMillis int64            `json:"retry_after_ms,omitempty"`
	}
	oldGetWorkRequest struct {
		ExecutorID string `json:"executor_id"`
		Max        int    `json:"max"`
	}
	oldAssignments struct { // GetWorkReply and DeliverReply
		Assignments []oldAssignment `json:"assignments,omitempty"`
	}
	oldDeliverRequest struct {
		ExecutorID string            `json:"executor_id"`
		Results    []oldTaggedResult `json:"results,omitempty"`
		WantWork   bool              `json:"want_work,omitempty"`
		MaxNew     int               `json:"max_new,omitempty"`
	}
	oldWorkAvailable struct {
		Queued int `json:"queued"`
	}
	oldResultsNotify struct {
		EPR     string      `json:"epr"`
		Results []oldResult `json:"results"`
	}
)

func TestBodyCodecWireCompat(t *testing.T) {
	tk := task.Task{ID: 7, Engine: task.EngineData, Dir: "/tmp/w", Command: `stage "in"`,
		Args: []string{"a b", "tab\there", "line\nbreak", `back\slash`}, Env: []string{"K=v"},
		IO:       &task.IOSpec{ReadBytes: 1024, WriteBytes: 2, Location: "shared", Dataset: "d1"},
		Duration: 1500 * time.Millisecond, MaxRetries: 3, Stage: 2, Trace: 18446744073709551615}
	sleep := task.Task{ID: 8, Command: "sleep", Args: []string{"0"}}
	res := task.Result{ID: 7, ExitCode: -1, Stdout: "out\n\x01 é 世界", Stderr: "warn", Err: "exit status 255",
		ExecutorID: "exec-3", QueuedAt: 1, DispatchedAt: 2, StartedAt: 3, FinishedAt: -9223372036854775808,
		Attempts: 2, Trace: 99}
	ok := task.Result{ID: 8, ExecutorID: "exec-3"}

	const (
		goldTask   = `{"id":7,"engine":1,"dir":"/tmp/w","command":"stage \"in\"","args":["a b","tab\there","line\nbreak","back\\slash"],"env":["K=v"],"io":{"read_bytes":1024,"write_bytes":2,"location":"shared","dataset":"d1"},"duration":1500000000,"max_retries":3,"stage":2,"trace":18446744073709551615}`
		goldSleep  = `{"id":8,"command":"sleep","args":["0"]}`
		goldResult = `{"id":7,"exit_code":-1,"stdout":"out\n\u0001 é 世界","stderr":"warn","err":"exit status 255","executor":"exec-3","queued_at":1,"dispatched_at":2,"started_at":3,"finished_at":-9223372036854775808,"attempts":2,"trace":99}`
		goldOK     = `{"id":8,"executor":"exec-3"}`
	)
	for _, tc := range []struct {
		msg    bodyMsg
		golden string
		old    any // zero value of the frozen shape
	}{
		{&SubmitRequest{EPR: "falkon-instance-1", Tasks: []task.Task{tk, sleep}},
			`{"epr":"falkon-instance-1","tasks":[` + goldTask + `,` + goldSleep + `]}`, &oldSubmitRequest{}},
		{&SubmitRequest{EPR: "e"}, `{"epr":"e","tasks":null}`, &oldSubmitRequest{}},
		{&SubmitReply{Accepted: 64}, `{"accepted":64}`, &oldSubmitReplyV2{}},
		{&SubmitReply{Accepted: 2, Deduped: 1, RetryAfterMillis: 40}, `{"accepted":2,"deduped":1,"retry_after_ms":40}`, &oldSubmitReplyV2{}},
		{&GetWorkRequest{ExecutorID: "exec-3", Max: 1}, `{"executor_id":"exec-3","max":1}`, &oldGetWorkRequest{}},
		{&GetWorkReply{}, `{}`, &oldAssignments{}},
		{&GetWorkReply{Assignments: []Assignment{{EPR: "falkon-instance-1", Task: tk, CacheHit: true}, {EPR: "falkon-instance-1", Task: sleep}}},
			`{"assignments":[{"epr":"falkon-instance-1","task":` + goldTask + `,"cache_hit":true},{"epr":"falkon-instance-1","task":` + goldSleep + `}]}`,
			&oldAssignments{}},
		{&DeliverRequest{ExecutorID: "exec-3"}, `{"executor_id":"exec-3"}`, &oldDeliverRequest{}},
		{&DeliverRequest{ExecutorID: "exec-3", WantWork: true, MaxNew: 4, Results: []TaggedResult{
			{EPR: "falkon-instance-1", Result: res, RunDur: 1234}, {EPR: "falkon-instance-1", Result: ok}}},
			`{"executor_id":"exec-3","results":[{"epr":"falkon-instance-1","result":` + goldResult + `,"run_dur":1234},{"epr":"falkon-instance-1","result":` + goldOK + `,"run_dur":0}],"want_work":true,"max_new":4}`,
			&oldDeliverRequest{}},
		{&DeliverReply{Assignments: []Assignment{{EPR: "falkon-instance-1", Task: sleep}}},
			`{"assignments":[{"epr":"falkon-instance-1","task":` + goldSleep + `}]}`, &oldAssignments{}},
		{&WorkAvailable{Queued: 17}, `{"queued":17}`, &oldWorkAvailable{}},
		{&ResultsNotify{EPR: "falkon-instance-1", Results: []task.Result{res, ok}},
			`{"epr":"falkon-instance-1","results":[` + goldResult + `,` + goldOK + `]}`, &oldResultsNotify{}},
		{&ResultsNotify{EPR: "e", Results: []task.Result{}}, `{"epr":"e","results":[]}`, &oldResultsNotify{}},
	} {
		// Old peer's bytes, new decoder: the fast path takes them.
		got := reflect.New(reflect.TypeOf(tc.msg).Elem()).Interface().(bodyMsg)
		decodeFast(t, got, []byte(tc.golden))
		if !reflect.DeepEqual(got, tc.msg) {
			t.Errorf("DecodeJSON(%s)\n got %+v\nwant %+v", tc.golden, got, tc.msg)
		}
		// New encoder's bytes: none of these strings holds <, > or &, so they
		// are the old bytes exactly...
		enc := tc.msg.AppendJSON(nil)
		if string(enc) != tc.golden {
			t.Errorf("AppendJSON(%+v)\n got %s\nwant %s", tc.msg, enc, tc.golden)
		}
		// ...and the old peer's structs read them back to the same message.
		if err := json.Unmarshal(enc, tc.old); err != nil {
			t.Errorf("old decode of %s: %v", enc, err)
			continue
		}
		if back, _ := json.Marshal(tc.old); string(back) != tc.golden {
			t.Errorf("old peer read %s as %s", enc, back)
		}
	}
}

// Four fields that no receiver read have left the messages: a result's
// overhead_dur, the register reply's ok, the create reply's recovered and the
// deregister request's reason. A peer that still sends one is not cut off. Its
// Deliver is no longer canonical, so it decodes through the encoding/json
// fallback, which drops the unknown key; the other three were encoding/json's
// already. And a reader of the old shape reads what is sent now.
func TestUnreadFieldsWireCompat(t *testing.T) {
	const oldDeliver = `{"executor_id":"exec-3","results":[{"epr":"e","result":{"id":7,"executor":"exec-3"},"run_dur":1234,"overhead_dur":56}],"want_work":true}`
	before := CodecFallbacks.Value()
	var del DeliverRequest
	if err := del.DecodeJSON([]byte(oldDeliver)); err != nil {
		t.Fatal(err)
	}
	want := DeliverRequest{ExecutorID: "exec-3", WantWork: true,
		Results: []TaggedResult{{EPR: "e", Result: task.Result{ID: 7, ExecutorID: "exec-3"}, RunDur: 1234}}}
	if !reflect.DeepEqual(del, want) {
		t.Errorf("old executor's Deliver read as %+v, want %+v", del, want)
	}
	if n := CodecFallbacks.Value() - before; n != 1 {
		t.Errorf("%d fallbacks, want 1", n)
	}
	var old oldDeliverRequest
	if err := json.Unmarshal(want.AppendJSON(nil), &old); err != nil || len(old.Results) != 1 ||
		old.Results[0].RunDur != 1234 || old.Results[0].OverheadDur != 0 || old.Results[0].Result.ID != 7 {
		t.Errorf("old dispatcher read the new Deliver as %+v (%v)", old, err)
	}

	for _, tc := range []struct {
		old  string
		msg  any // a pointer to the zero value
		want any
		now  string // what the message encodes to now
		back any    // the old shape, read from now
	}{
		{`{"ok":true,"dispatcher_epoch":1700000000000000000}`, new(RegisterReply),
			&RegisterReply{DispatcherEpoch: 1700000000000000000}, `{"dispatcher_epoch":1700000000000000000}`,
			&struct {
				OK              bool  `json:"ok"`
				DispatcherEpoch int64 `json:"dispatcher_epoch,omitempty"`
			}{DispatcherEpoch: 1700000000000000000}},
		// An HA cluster scoped an EPR while EPRs were a per-process sequence;
		// a minted EPR is unique, so the scope went and its field drops.
		{`{"epr":"falkon-instance-1","recovered":true,"cluster":"ha:x"}`, new(CreateInstanceReply),
			&CreateInstanceReply{EPR: "falkon-instance-1"}, `{"epr":"falkon-instance-1"}`,
			&struct {
				EPR       string `json:"epr"`
				Recovered bool   `json:"recovered,omitempty"`
				Cluster   string `json:"cluster,omitempty"`
			}{EPR: "falkon-instance-1"}},
		{`{"client":"c","epr":"falkon-instance-1","cluster":"ha:x","tenant":"t"}`, new(CreateInstanceRequest),
			&CreateInstanceRequest{ClientName: "c", EPR: "falkon-instance-1", Tenant: "t"}, `{"client":"c","epr":"falkon-instance-1","tenant":"t"}`,
			&struct {
				ClientName string `json:"client,omitempty"`
				EPR        string `json:"epr,omitempty"`
				Cluster    string `json:"cluster,omitempty"`
				Tenant     string `json:"tenant,omitempty"`
			}{ClientName: "c", EPR: "falkon-instance-1", Tenant: "t"}},
		{`{"executor_id":"exec-3","reason":"idle release"}`, new(DeregisterRequest),
			&DeregisterRequest{ExecutorID: "exec-3"}, `{"executor_id":"exec-3"}`,
			&struct {
				ExecutorID string `json:"executor_id"`
				Reason     string `json:"reason,omitempty"`
			}{ExecutorID: "exec-3"}},
	} {
		if err := json.Unmarshal([]byte(tc.old), tc.msg); err != nil || !reflect.DeepEqual(tc.msg, tc.want) {
			t.Errorf("%s read as %+v (%v), want %+v", tc.old, tc.msg, err, tc.want)
		}
		enc, _ := json.Marshal(tc.want)
		if string(enc) != tc.now {
			t.Errorf("Marshal(%+v) = %s, want %s", tc.want, enc, tc.now)
		}
		got := reflect.New(reflect.TypeOf(tc.back).Elem()).Interface()
		if err := json.Unmarshal(enc, got); err != nil || !reflect.DeepEqual(got, tc.back) {
			t.Errorf("old reader read %s as %+v (%v), want %+v", enc, got, err, tc.back)
		}
	}
}

// A leaf from before the capacity hint was a slot count piggy-backs a hint
// on the submit acknowledgments of an attached parent, and pushes queue depths
// in its hints. Nothing reads either any more: the acknowledgment decodes,
// through the encoding/json fallback (its layout is no longer canonical), to
// the fields that are left, and the hint to its slot count and freshness.
func TestOldLeafCapacityWireCompat(t *testing.T) {
	const oldHint = `{"queued":5,"outstanding":4,"idle_slots":3,"executors":8,"seq":12,"epoch":1700000000000000000}`
	before := CodecFallbacks.Value()
	var rep SubmitReply
	if err := rep.DecodeJSON([]byte(`{"accepted":2,"deduped":1,"capacity":` + oldHint + `,"retry_after_ms":40}`)); err != nil {
		t.Fatal(err)
	}
	if want := (SubmitReply{Accepted: 2, Deduped: 1, RetryAfterMillis: 40}); rep != want {
		t.Errorf("old leaf's acknowledgment read as %+v, want %+v", rep, want)
	}
	if n := CodecFallbacks.Value() - before; n != 1 {
		t.Errorf("%d fallbacks, want 1", n)
	}
	var h CapacityHint
	if err := json.Unmarshal([]byte(oldHint), &h); err != nil {
		t.Fatal(err)
	}
	if want := (CapacityHint{Executors: 8, Seq: 12, Epoch: 1700000000000000000}); h != want {
		t.Errorf("old leaf's hint read as %+v, want %+v", h, want)
	}
	// And the other way: an old parent reads a new leaf's hint as a leaf with
	// those slots and nothing queued.
	var old oldCapacityHint
	enc, _ := json.Marshal(h)
	if err := json.Unmarshal(enc, &old); err != nil || old != (oldCapacityHint{Executors: 8, Seq: 12, Epoch: 1700000000000000000}) {
		t.Errorf("old parent read %s as %+v (%v)", enc, old, err)
	}
}

// The register request with the capability an executor announces since the
// work grant: without it the bytes are what they always were, an old
// dispatcher reads the new request as the old one, and a new dispatcher reads
// an old request as "does not accept grants". (The grant itself is a
// GetWorkReply body, pinned above, under a method name old executors ignore;
// WorkAvailable is pinned above too.) An old executor also labelled its
// provisioner allocation, which nothing read and the request no longer
// carries: the request is decoded by encoding/json, so one that still sends
// the label registers as if it had not.
func TestRegisterRequestWireCompat(t *testing.T) {
	type oldRegisterRequest struct {
		ExecutorID string `json:"executor_id"`
		Slots      int    `json:"slots"`
		Allocation string `json:"allocation,omitempty"`
	}
	for _, tc := range []struct {
		msg    RegisterRequest
		golden string
	}{
		{RegisterRequest{ExecutorID: "exec-3", Slots: 1}, `{"executor_id":"exec-3","slots":1}`},
		{RegisterRequest{ExecutorID: "exec-3", Slots: 1, AcceptsGrants: true}, `{"executor_id":"exec-3","slots":1,"accepts_grants":true}`},
	} {
		enc, err := json.Marshal(tc.msg)
		if err != nil || string(enc) != tc.golden {
			t.Errorf("Marshal(%+v) = %s (%v), want %s", tc.msg, enc, err, tc.golden)
		}
		var old oldRegisterRequest
		if err := json.Unmarshal(enc, &old); err != nil || old != (oldRegisterRequest{ExecutorID: tc.msg.ExecutorID, Slots: tc.msg.Slots}) {
			t.Errorf("old dispatcher read %s as %+v (%v)", enc, old, err)
		}
		oldBytes, _ := json.Marshal(old)
		var back RegisterRequest
		if err := json.Unmarshal(oldBytes, &back); err != nil || back.AcceptsGrants {
			t.Errorf("new dispatcher read the old request %s as %+v (%v)", oldBytes, back, err)
		}
	}
	labelled, _ := json.Marshal(oldRegisterRequest{ExecutorID: "exec-3", Slots: 4, Allocation: "alloc-7"})
	var back RegisterRequest
	if err := json.Unmarshal(labelled, &back); err != nil || back != (RegisterRequest{ExecutorID: "exec-3", Slots: 4}) {
		t.Errorf("new dispatcher read the labelled request %s as %+v (%v)", labelled, back, err)
	}
}
