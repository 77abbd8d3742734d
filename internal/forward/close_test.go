package forward_test

import (
	"sync"
	"testing"
	"time"

	"falkon/internal/dispatch"
	"falkon/internal/forward"
	"falkon/internal/fproto"
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
		f, err := forward.New(forward.Options{Dispatchers: addrs})
		if err != nil {
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
