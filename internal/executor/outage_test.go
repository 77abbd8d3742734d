package executor_test

import (
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
)

// An executor outlives one dispatcher connection: after a drop it redials
// with backoff, and it stops only once one outage outlasts ReconnectTimeout.

func TestOutagePastReconnectTimeoutStops(t *testing.T) {
	d := startDispatcher(t)
	const bound = 300 * time.Millisecond
	ex, err := executor.Start(executor.Options{ID: "orphan", DispatcherAddr: d.Addr(), ReconnectTimeout: bound, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	lost := time.Now()
	d.Close() // and nothing listens on its address again
	select {
	case <-ex.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("executor still running 10 s after its dispatcher closed, with ReconnectTimeout %v", bound)
	}
	if el := time.Since(lost); el < bound {
		t.Fatalf("executor stopped %v after its dispatcher closed, before the %v bound", el, bound)
	}
}

func TestRestartedDispatcherGetsTheExecutorBack(t *testing.T) {
	d1 := startDispatcher(t)
	addr := d1.Addr()
	ex, err := executor.Start(executor.Options{ID: "survivor", DispatcherAddr: addr, ReconnectTimeout: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	d1.Close()
	d2 := startDispatcherOn(t, addr)
	deadline := time.Now().Add(5 * time.Second)
	for d2.Stats().TotalExecutors != 1 {
		select {
		case <-ex.Done():
			t.Fatal("executor stopped instead of registering with the restarted dispatcher")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("executor never registered with the dispatcher restarted on its address")
		}
		time.Sleep(10 * time.Millisecond)
	}

	c, err := client.Connect(client.Options{DispatcherAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 1, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Failed() || rs[0].ExecutorID != "survivor" {
		t.Fatalf("result %+v, want a success run by the executor that redialed", rs[0])
	}
}

// startDispatcherOn brings up a dispatcher on a given address.
func startDispatcherOn(t *testing.T, addr string) *dispatch.Dispatcher {
	t.Helper()
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}
