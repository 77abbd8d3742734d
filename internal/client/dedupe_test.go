package client_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// A reconnecting client drops a result it has already delivered, and counts
// it, wherever in a push the redelivery sits: the filter runs in place, in the
// array every push is decoded into, so what it keeps must close up over what
// it drops and nothing of the push before may show through.
func TestRedeliveredResultsAreDroppedInPlace(t *testing.T) {
	peers := make(chan *wsrpc.Peer, 1)
	srv := wsrpc.NewServer(wsrpc.ServerOptions{Logf: t.Logf})
	srv.RegisterFast(fproto.MethodCreateInstance, func(p *wsrpc.Peer, _ json.RawMessage) (any, error) {
		peers <- p
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
	defer srv.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := <-peers
	// A result is delivered only for a task the client awaits.
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 11, 0)); err != nil {
		t.Fatal(err)
	}

	push := func(ids ...task.ID) {
		t.Helper()
		n := fproto.ResultsNotify{EPR: "falkon-instance-1"}
		for _, id := range ids {
			n.Results = append(n.Results, task.Result{ID: id, Stdout: fmt.Sprintf("out-%d", id), ExecutorID: "e0"})
		}
		if err := p.Notify(fproto.NotifyResults, n); err != nil {
			t.Fatal(err)
		}
	}
	push(1, 2, 3, 4, 5, 6, 7, 8)
	push(2, 9, 3, 3, 10, 1) // redeliveries at the head, in the middle, twice over, at the tail
	push(10, 9)             // nothing but redeliveries
	push(12, 11)            // a task never submitted, then the last one owed
	rs, err := c.WaitN(11, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if want := task.ID(i + 1); r.ID != want || r.Stdout != fmt.Sprintf("out-%d", want) {
			t.Fatalf("result %d of the stream is %+v, want task %d's", i, r, want)
		}
	}
	if got := c.DuplicatesDropped(); got != 7 {
		t.Errorf("DuplicatesDropped = %d, want 7", got)
	}
	select {
	case r := <-c.Results():
		t.Errorf("a twelfth result: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
}
