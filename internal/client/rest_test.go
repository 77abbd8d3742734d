//go:build !race

package client_test

import (
	"encoding/json"
	"runtime"
	"strconv"
	"testing"

	"falkon/internal/client"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// owedTasks is how many tasks the owed-bytes test leaves awaiting results.
const owedTasks = 100_000

// What a client holds per task it awaits, beyond the caller's own slice — the
// live heap after a collection, less the heap before the submit, ÷ owedTasks —
// read 101.3–101.4 at -cpu 1, 2 and 4 for tasks of one argument in bundles of
// 64, which are 86–87 bytes on the wire. A task is held as it was sent: its
// bytes and a comma in the bundle's array (presized from its first task, in a
// malloc size class ~8 % over), a 4-byte end offset, and its ID as a bit of
// the owed set. The ceiling is what it was set to, the highest reading (98.6)
// plus 15 %, while each task was kept as a task.Relayed (a 48-byte head, and
// its bytes less its ID's and its trace's digits); while the client kept a
// task.Task copy of every task in a map the row read 166.2.
const owedBytesCeiling = 113

// accepting is a dispatcher that accepts every submit and runs nothing.
func accepting(t *testing.T) string {
	srv := wsrpc.NewServer(wsrpc.ServerOptions{Logf: t.Logf})
	srv.RegisterFast(fproto.MethodCreateInstance, func(*wsrpc.Peer, json.RawMessage) (any, error) {
		return fproto.CreateInstanceReply{EPR: "falkon-instance-1"}, nil
	})
	srv.RegisterFast(fproto.MethodSubmit, func(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
		var req struct{ Tasks []json.RawMessage }
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return fproto.SubmitReply{Accepted: len(req.Tasks)}, nil
	})
	srv.RegisterFast(fproto.MethodDestroyInstance, func(*wsrpc.Peer, json.RawMessage) (any, error) { return struct{}{}, nil })
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestBytesPerOwedTask submits owedTasks tasks that never finish through a
// client, and weighs what it keeps of them.
func TestBytesPerOwedTask(t *testing.T) {
	c, err := client.Connect(client.Options{DispatcherAddr: accepting(t), BundleSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	batch := func(n int) []task.Task {
		ts := task.Batch(&gen, n, 0)
		for i := range ts {
			ts[i].Args = []string{strconv.FormatUint(uint64(ts[i].ID)|1<<60, 16)} // as the dispatcher's at-rest test
		}
		return ts
	}
	if err := c.Submit(batch(4096)); err != nil { // buffers and pools reach steady state
		t.Fatal(err)
	}
	ts := batch(owedTasks)
	base := liveHeap()
	if err := c.Submit(ts); err != nil {
		t.Fatal(err)
	}
	per := float64(int64(liveHeap())-int64(base)) / owedTasks
	wire := 0
	for i := range ts {
		wire += len(ts[i].AppendJSON(nil))
	}
	if owed, _ := c.Holds(); owed != 4096+owedTasks {
		t.Fatalf("the client awaits %d tasks, want %d", owed, 4096+owedTasks)
	}
	t.Logf("a task is %.1f bytes on the wire", float64(wire)/owedTasks)
	t.Logf("budget: %s bytes per owed task %.1f <= %d", t.Name(), per, owedBytesCeiling)
	if per > owedBytesCeiling {
		t.Errorf("%.1f bytes per owed task, budget %d", per, owedBytesCeiling)
	}
}

// liveHeap is the heap in use once a collection has run: two, so that what
// sync.Pools dropped at the first is gone at the second.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
