package forward_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// What a message is decoded into is reused scratch (DESIGN.md §9, "Scratch"),
// and the rule that makes that safe — whoever keeps a result past its handler
// copies it — is held here the way the codec tests hold theirs (disturb), one
// layer up: every piece of scratch is overwritten at the moment it is
// recycled, and every result must still come back once, saying what its own
// task printed, who ran it and when. Under -race a goroutine still reading a
// recycled slice is also a reported race. This file runs in both modes.

// scribbling turns the overwriting on for the rest of the test.
func scribbling(t *testing.T) {
	t.Helper()
	fproto.Scribble = scribble
	t.Cleanup(func() { fproto.Scribble = nil }) // runs last: after whatever the test started has stopped
}

func scribble(scratch any) {
	junk := task.Result{ID: 1<<63 + 7, ExitCode: 99, Stdout: "scribbled", Err: "scribbled", ExecutorID: "scribbled",
		QueuedAt: -1, DispatchedAt: -2, StartedAt: -3, FinishedAt: -4, Attempts: -5}
	switch s := scratch.(type) {
	case []task.Result:
		for i := range s {
			s[i] = junk
		}
	case []fproto.TaggedResult:
		for i := range s {
			s[i] = fproto.TaggedResult{EPR: "scribbled", Result: junk, RunDur: -6}
		}
	case []fproto.Assignment:
		for i := range s {
			s[i] = fproto.Assignment{EPR: "scribbled", Task: task.Task{ID: junk.ID, Engine: task.EngineFunc, Command: "scribbled"}}
		}
	case []fproto.Relay:
		for i := range s {
			s[i] = fproto.Relay{EPR: "scribbled", Task: &scribbledTask}
		}
	case []wal.CompleteRec:
		for i := range s {
			s[i] = wal.CompleteRec{EPR: "scribbled", Result: junk}
		}
	case []obs.Event:
		for i := range s {
			s[i] = obs.Event{Kind: obs.EvFailed, Task: junk.ID, EPR: "scribbled", Executor: "scribbled"}
		}
	}
}

// scribbledTask is what a scribbled grant hands out in place of a task.
var scribbledTask = task.Relay([]task.Task{{ID: 1<<63 + 7, Engine: task.EngineFunc, Command: "scribbled"}})[0]

// echoTasks are n tasks that each print an argument no other task has.
func echoTasks(first, n int) []task.Task {
	ts := make([]task.Task, n)
	for i := range ts {
		id := task.ID(first + i)
		ts[i] = task.Task{ID: id, Engine: task.EngineFunc, Command: "echo", Args: []string{fmt.Sprintf("out-%d", id)}}
	}
	return ts
}

// echoExec starts an executor that runs them, with slots of its own to batch in.
func echoExec(t *testing.T, id, addr string) *executor.Executor {
	t.Helper()
	return startExec(t, executor.Options{ID: id, DispatcherAddr: addr, Slots: 2, Funcs: map[string]executor.Func{
		"echo": func(t task.Task) (string, int, error) { return t.Args[0], 0, nil },
	}})
}

// checkEchoes requires exactly the results of tasks first..first+n-1, each its own.
func checkEchoes(t *testing.T, rs []task.Result, first, n int) {
	t.Helper()
	seen := make(map[task.ID]bool, n)
	for _, r := range rs {
		switch {
		case seen[r.ID] || int(r.ID) < first || int(r.ID) >= first+n:
			t.Fatalf("result %d arrived twice, or was never submitted: %+v", r.ID, r)
		case r.Failed() || r.Stdout != fmt.Sprintf("out-%d", r.ID) || r.Stderr != "":
			t.Fatalf("result %d is not what its task printed: %+v", r.ID, r)
		case len(r.ExecutorID) < 5 || r.ExecutorID[:5] != "echo-":
			t.Fatalf("result %d names executor %q", r.ID, r.ExecutorID)
		case r.QueuedAt < 0 || r.DispatchedAt < r.QueuedAt || r.StartedAt < r.DispatchedAt || r.FinishedAt < r.StartedAt || r.Attempts < 1:
			t.Fatalf("result %d has another's stamps: %+v", r.ID, r)
		}
		seen[r.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("%d results, want %d", len(seen), n)
	}
}

// A detached instance: results are parked in the instance's buffer, copied
// out of the Deliver request they arrived in, until a reattach pushes them.
func TestScratchDetachedBuffer(t *testing.T) {
	scribbling(t)
	const n = 3000
	d, epr, _ := runDetached(t, t.TempDir(), n)
	sink := dialSink(t, d.Addr())
	defer sink.Close()
	if err := sink.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{EPR: epr}, nil); err != nil {
		t.Fatal(err)
	}
	checkEchoes(t, sink.take(), 1, n) // pushed ahead of the reattach's reply
}

// runDetached runs n echo tasks for an instance no connection is attached to,
// journaled in dir, and returns the dispatcher that ran them, the instance
// and the executor. The instance is detached for certain by a restart: the
// journal brings it back with its tasks and without its client.
func runDetached(t *testing.T, dir string, n int) (*dispatch.Dispatcher, string, *executor.Executor) {
	t.Helper()
	d1 := startLeaf(t, "127.0.0.1:0", dispatch.Options{JournalDir: dir})
	cli, err := wsrpc.Dial(d1.Addr(), wsrpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var inst fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "scratch"}, &inst); err != nil {
		t.Fatal(err)
	}
	const bundle = 64
	tasks := echoTasks(1, n)
	for i := 0; i < n; i += bundle {
		if err := cli.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: inst.EPR, Tasks: tasks[i:min(i+bundle, n)]}, nil); err != nil {
			t.Fatal(err)
		}
	}
	d1.Abort() // every submit was acknowledged, so every task is in the journal

	d2 := startLeaf(t, "127.0.0.1:0", dispatch.Options{JournalDir: dir})
	ex := echoExec(t, "echo-0", d2.Addr())
	if !within(time.Minute, func() bool { return d2.Stats().Completed == int64(n) }) {
		t.Fatalf("completed %d of %d", d2.Stats().Completed, n)
	}
	return d2, inst.EPR, ex
}

// Push mode with a client that does not read: past the 4,096 its results
// channel holds, a push's results wait on a goroutine of their own while the
// read loop decodes the next push into the same ResultsNotify.
func TestScratchClientSpill(t *testing.T) {
	scribbling(t)
	d := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
	echoExec(t, "echo-0", d.Addr())
	echoExec(t, "echo-1", d.Addr())
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	const n = 9000
	if err := c.Submit(echoTasks(1, n)); err != nil {
		t.Fatal(err)
	}
	if !within(time.Minute, func() bool { return d.Stats().Completed == n }) {
		t.Fatalf("completed %d of %d", d.Stats().Completed, n)
	}
	time.Sleep(50 * time.Millisecond) // the last pushes reach the client, and spill
	rs, err := c.WaitN(n, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	checkEchoes(t, rs, 1, n)
	if dup := c.DuplicatesDropped(); dup != 0 {
		t.Errorf("%d results reached the client twice", dup)
	}
}

// dieOnPush kills the first connection a dispatcher accepted at its first
// write once armed: the client's, with a results push on its way. fired is
// closed when it does.
type dieOnPush struct {
	accepted atomic.Int32
	armed    atomic.Bool
	once     sync.Once
	fired    chan struct{}
}

func (f *dieOnPush) DupNotify() bool { return false }

func (f *dieOnPush) WrapConn(c net.Conn) net.Conn {
	if f.accepted.Add(1) != 1 {
		return c
	}
	return &dyingConn{Conn: c, f: f}
}

type dyingConn struct {
	net.Conn
	f *dieOnPush
}

func (c *dyingConn) Write(p []byte) (int, error) {
	if c.f.armed.Load() {
		c.Conn.Close()
		c.f.once.Do(func() { close(c.f.fired) })
		return 0, errors.New("injected: connection died mid-push")
	}
	return c.Conn.Write(p)
}

// A push that fails puts its run of results — a slice of the handler's
// scratch — back in the instance's buffer, which the reattach flushes. The
// client can have every result before it counts its reconnect (the reattach
// flushes the buffer ahead of its reply), so what the test waits for at the
// end is the failed push and the reconnect themselves.
func TestScratchFailedPushRebuffered(t *testing.T) {
	scribbling(t)
	faults := &dieOnPush{fired: make(chan struct{})}
	d := startLeaf(t, "127.0.0.1:0", dispatch.Options{JournalDir: t.TempDir(), Faults: faults})
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	const n = 2000
	if err := c.Submit(echoTasks(1, n)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the Submit replies are out of the cork flusher
	faults.armed.Store(true)
	echoExec(t, "echo-0", d.Addr())
	rs, err := c.WaitN(n, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	checkEchoes(t, rs, 1, n)
	select {
	case <-faults.fired:
	case <-time.After(time.Minute):
		t.Fatal("no push was attempted on the armed connection")
	}
	if !within(time.Minute, func() bool {
		return c.Reconnects() > 0 && d.Metrics().Counter("falkon_notify_errors_total").Value() > 0
	}) {
		t.Errorf("no push failed: nothing was re-buffered (reconnects %d)", c.Reconnects())
	}
}

// A journaled run: the complete records are gathered in an array the
// dispatcher reuses from one Deliver to the next, and the results a restart
// recovers are read back from them.
func TestScratchJournalRecovery(t *testing.T) {
	scribbling(t)
	dir := t.TempDir()
	const n = 2000
	d2, epr, ex := runDetached(t, dir, n)
	ex.Stop()
	d2.Close()

	d3 := startLeaf(t, "127.0.0.1:0", dispatch.Options{JournalDir: dir})
	sink := dialSink(t, d3.Addr())
	defer sink.Close()
	// A re-attach names the instance it asks for; an unknown one is an error.
	var inst fproto.CreateInstanceReply
	if err := sink.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{EPR: epr}, &inst); err != nil || inst.EPR != epr {
		t.Fatalf("reattach: %+v, %v", inst, err)
	}
	checkEchoes(t, sink.take(), 1, n) // pushed ahead of the reattach's reply
}

// A tree of two leaves: every result passes through a leaf's scratch, the
// link's pair of buffers and the root's, every grant through the root's
// scratch and the link's.
func TestScratchTreeOfTwoLeaves(t *testing.T) {
	scribbling(t)
	a := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
	b := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
	echoExec(t, "echo-a", a.Addr())
	echoExec(t, "echo-b", b.Addr())
	_, c := startRoot(t, client.Options{BundleSize: 64}, a, b)
	const n = 4000
	go func() {
		if err := c.Submit(echoTasks(1, n)); err != nil {
			t.Error(err)
		}
	}()
	rs, err := c.WaitN(n, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	checkEchoes(t, rs, 1, n)
}

// resultSink is a raw client connection that keeps what is pushed to it ({8}):
// the results, as a test reads them instead of through a client.Client, which
// would drop a second copy before the test saw it.
type resultSink struct {
	*wsrpc.Client
	mu      sync.Mutex
	results []task.Result
}

// dialSink connects a resultSink to addr; the caller closes it.
func dialSink(t *testing.T, addr string) *resultSink {
	t.Helper()
	s := new(resultSink)
	cli, err := wsrpc.Dial(addr, wsrpc.ClientOptions{OnNotify: func(method string, body json.RawMessage) {
		var rn fproto.ResultsNotify
		if method != fproto.NotifyResults || rn.DecodeJSON(body) != nil {
			return
		}
		s.mu.Lock()
		s.results = append(s.results, rn.Results...)
		s.mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Client = cli
	return s
}

// take removes and returns what has been pushed so far.
func (s *resultSink) take() []task.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.results
	s.results = nil
	return rs
}
