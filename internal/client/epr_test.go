package client_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
)

// held lets a client's first dial through and holds each later one until
// release: the client's redial waits while another client connects.
type held struct {
	mu      sync.Mutex
	dials   int
	release chan struct{}
}

func (h *held) WrapConn(nc net.Conn) net.Conn {
	h.mu.Lock()
	h.dials++
	first := h.dials == 1
	h.mu.Unlock()
	if !first {
		<-h.release
	}
	return nc
}

func (*held) DupNotify() bool { return false }

// A dispatcher without a journal is aborted and restarted at the same
// address, and a new client creates an instance there before the old client
// redials. The new client's EPR is no name the old client held, so the old
// client's reattach is refused and it lands on a fresh instance of its own:
// each client gets its own ten results, once. (While EPRs were a per-process
// sequence, both clients held the new incarnation's first name, the old
// client's reattach took the new client's instance, and the new client got
// none of its results.)
func TestInstanceNameOutlivesAJournallessRestart(t *testing.T) {
	start := func(addr string) *dispatch.Dispatcher {
		d := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d.Listen(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	d := start("127.0.0.1:0")
	addr := d.Addr()
	gate := &held{release: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(gate.release) }) }
	defer open()
	old, err := client.Connect(client.Options{DispatcherAddr: addr, Name: "old", BundleSize: 10, Faults: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	const n = 10
	var oldGen, newGen task.IDGen
	if err := old.Submit(task.Batch(&oldGen, n, 0)); err != nil { // queued: no executor yet
		t.Fatal(err)
	}
	oldEPR := old.EPR()

	d.Abort()
	d = start(addr)
	fresh, err := client.Connect(client.Options{DispatcherAddr: addr, Name: "new", BundleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Submit(task.Batch(&newGen, n, 0)); err != nil { // the same IDs as the old client's
		t.Fatal(err)
	}
	open()
	waitUntil(t, "the old client resubmits what it awaits", func() bool { return old.Resubmitted() == n })
	if got := old.EPR(); got == oldEPR || got == fresh.EPR() {
		t.Fatalf("the old client is on instance %q after the restart; it held %q, the new client holds %q", got, oldEPR, fresh.EPR())
	}
	if st := d.Stats(); st.Instances != 2 || st.Queued != 2*n {
		t.Fatalf("the restarted dispatcher holds %d instances and %d queued tasks, want 2 and %d", st.Instances, st.Queued, 2*n)
	}

	ex, err := executor.Start(executor.Options{ID: "e0", DispatcherAddr: addr, SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	for _, c := range []*client.Client{fresh, old} {
		rs, err := c.WaitN(n, 10*time.Second)
		if err != nil {
			t.Fatalf("the client on %q: %v", c.EPR(), err)
		}
		seen := map[task.ID]bool{}
		for _, r := range rs {
			if seen[r.ID] {
				t.Fatalf("the client on %q got task %v twice", c.EPR(), r.ID)
			}
			seen[r.ID] = true
		}
	}
}
