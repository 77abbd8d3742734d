package forward_test

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// wireLog keeps what every connection a dispatcher accepts reads and writes.
type wireLog struct {
	mu    sync.Mutex
	conns []*loggedConn
}

func (*wireLog) DupNotify() bool { return false }

func (w *wireLog) WrapConn(c net.Conn) net.Conn {
	lc := &loggedConn{Conn: c}
	w.mu.Lock()
	w.conns = append(w.conns, lc)
	w.mu.Unlock()
	return lc
}

// bodies is the body of every frame with the given method that was read
// (in) or written (out) on the connections logged so far.
func (w *wireLog) bodies(method string, in bool) []json.RawMessage {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []json.RawMessage
	for _, c := range w.conns {
		c.mu.Lock()
		stream := c.out
		if in {
			stream = c.in
		}
		// A frame is a 4-byte length and its JSON envelope.
		for len(stream) >= 4 && uint64(len(stream)-4) >= uint64(binary.BigEndian.Uint32(stream)) {
			n := 4 + int(binary.BigEndian.Uint32(stream))
			var f struct {
				M string          `json:"m"`
				B json.RawMessage `json:"b"`
			}
			if json.Unmarshal(stream[4:n], &f) == nil && f.M == method {
				out = append(out, f.B)
			}
			stream = stream[n:]
		}
		c.mu.Unlock()
	}
	return out
}

type loggedConn struct {
	net.Conn
	mu      sync.Mutex
	in, out []byte
}

func (c *loggedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in = append(c.in, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *loggedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// Results leave out what their receiver sets itself (DESIGN.md §9, "Relay"): an
// executor's Deliver names neither the executor nor the trace, and a leaf's
// push to its root carries no queue or dispatch stamp, attempt count or trace.
// The client still gets every result as it did when both hops carried them:
// with the trace it was submitted with, one attempt, the leaf's executor, and
// stamps in order; and no body on the way was outside the canonical layout.
func TestResultsOmitWhatTheirReceiverSets(t *testing.T) {
	fallbacks := fproto.CodecFallbacks.Value()
	wire := &wireLog{}
	leaf := startLeaf(t, "127.0.0.1:0", dispatch.Options{Faults: wire})
	startExec(t, executor.Options{ID: "lean-exec", DispatcherAddr: leaf.Addr(), Slots: 2})
	_, c := startRoot(t, client.Options{BundleSize: 16}, leaf)
	var gen task.IDGen
	ts := task.Batch(&gen, 200, 0)
	for i := range ts {
		ts[i].Trace = 1<<40 + uint64(ts[i].ID)
	}
	if err := c.Submit(ts); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(len(ts), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Trace != 1<<40+uint64(r.ID) || r.Attempts != 1 || r.ExecutorID != "lean-exec" || r.Failed() ||
			r.QueuedAt < 0 || r.DispatchedAt < r.QueuedAt || r.StartedAt < r.DispatchedAt || r.FinishedAt < r.StartedAt || r.FinishedAt == 0 {
			t.Fatalf("result %+v: not what the task was submitted with, ran once, by lean-exec, in order", r)
		}
	}

	absent := func(what string, fields map[string]json.RawMessage, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if _, ok := fields[k]; ok {
				t.Fatalf("%s carries %q: %v", what, k, fields)
			}
		}
	}
	var delivered, pushed int
	for _, b := range wire.bodies(fproto.MethodDeliver, true) {
		var req struct {
			Results []struct {
				Result map[string]json.RawMessage `json:"result"`
			} `json:"results"`
		}
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		for _, tr := range req.Results {
			absent("an executor's result", tr.Result, "executor", "trace")
			delivered++
		}
	}
	for _, b := range wire.bodies(fproto.NotifyResults, false) {
		var push struct {
			Results []map[string]json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(b, &push); err != nil {
			t.Fatal(err)
		}
		for _, r := range push.Results {
			absent("a leaf's result push", r, "queued_at", "dispatched_at", "attempts", "trace")
			if _, ok := r["executor"]; !ok {
				t.Fatalf("a leaf's result push does not say who ran the task: %v", r)
			}
			pushed++
		}
	}
	if delivered != len(ts) || pushed != len(ts) {
		t.Fatalf("the leaf read %d results delivered and pushed %d, want %d each", delivered, pushed, len(ts))
	}
	// Client, root, leaf and executor share this process's counter.
	if n := fproto.CodecFallbacks.Value() - fallbacks; n != 0 {
		t.Errorf("%d bodies in the tree went to encoding/json", n)
	}
}
