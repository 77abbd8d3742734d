package forward_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// TestForwarderCloseWhileLeavesPushCapacity is the regression test for a
// Close that held the forwarder's mutex while it waited for a leaf
// connection's read loop — which was itself waiting for that mutex to absorb
// a capacity hint. Executors registering and deregistering force a push
// each, so every Close below races a stream of them; each must return.
func TestForwarderCloseWhileLeavesPushCapacity(t *testing.T) {
	var addrs []string
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for i := 0; i < 2; i++ {
		d := dispatch.New(dispatch.Options{})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		addrs = append(addrs, d.Addr())
		cli, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := cli.Call(fproto.MethodRegister, fproto.RegisterRequest{ExecutorID: "churn", Slots: 1}, nil); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if err := cli.Call(fproto.MethodDeregister, fproto.DeregisterRequest{ExecutorID: "churn"}, nil); err != nil {
					t.Errorf("deregister: %v", err)
					return
				}
			}
		}()
	}
	defer churn.Wait()
	defer close(stop)

	for i := 0; i < 200; i++ {
		f := dispatch.New(dispatch.Options{Leaves: addrs})
		if err := f.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			f.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("Close %d of 200 never returned", i+1)
		}
	}
}

// A tree shut down from the outside in — client, executors, root, leaves —
// has every leaf push its root a capacity hint as its executor leaves, so the
// root's Close races the link absorbing it. (A root once held a mutex across
// Close that the link wanted for the hint, and one close in about a hundred
// hung in this order.) Each of 100 rounds runs a bundle through a fresh tree
// first; every close must return.
func TestRootClosesAfterItsExecutors(t *testing.T) {
	rounds := 100
	if testing.Short() {
		rounds = 10
	}
	for round := 1; round <= rounds; round++ {
		var leaves []*dispatch.Dispatcher
		var addrs []string
		var execs []*executor.Executor
		for i := 0; i < 2; i++ {
			d := dispatch.New(dispatch.Options{})
			if err := d.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			ex, err := executor.Start(executor.Options{ID: fmt.Sprintf("close-e%d", i), DispatcherAddr: d.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			leaves, addrs, execs = append(leaves, d), append(addrs, d.Addr()), append(execs, ex)
		}
		f := dispatch.New(dispatch.Options{Leaves: addrs})
		if err := f.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		c, err := client.Connect(client.Options{DispatcherAddr: f.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		var gen task.IDGen
		if err := c.Submit(task.Batch(&gen, 16, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(16, 10*time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		closeWithin(t, round, "client", func() { c.Close() })
		for _, ex := range execs {
			closeWithin(t, round, "executor", ex.Stop)
		}
		closeWithin(t, round, "root", func() { f.Close() })
		for _, d := range leaves {
			closeWithin(t, round, "leaf", func() { d.Close() })
		}
	}
}

// closeWithin fails the test if stop does not return within 10 s.
func closeWithin(t *testing.T, round int, what string, stop func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		stop()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("round %d: closing the %s never returned", round, what)
	}
}
