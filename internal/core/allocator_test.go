package core_test

import (
	"io"
	"net"
	"testing"
	"time"

	"falkon/internal/core"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/provision"
	"falkon/internal/task"
)

// End-to-end: dynamic provisioning against a live dispatcher with the
// LocalAllocator and distributed idle release — a miniature of §4.6.
func TestDynamicProvisioningEndToEnd(t *testing.T) {
	sys, err := core.Start(core.Config{
		SleepScale: 0.001,
		BundleSize: 16,
		Provisioning: &core.ProvisioningConfig{
			MaxExecutors: 4,
			Acquisition:  provision.AllAtOnce(),
			Release:      provision.ReleaseDistributed,
			IdleTimeout:  150 * time.Millisecond,
			PollInterval: 20 * time.Millisecond,
			StartupDelay: 20 * time.Millisecond, // miniature LRM queue wait
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var gen task.IDGen
	if err := sys.Submit(task.Batch(&gen, 64, time.Second)); err != nil {
		t.Fatal(err)
	}
	rs, err := sys.WaitN(64, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 64 {
		t.Fatalf("results = %d", len(rs))
	}
	// After the queue drains, distributed idle release should shrink the
	// pool to zero.
	deadline := time.Now().Add(20 * time.Second)
	for sys.Stats().TotalExecutors != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("executors never idle-released: %+v", sys.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sys.Provisioner().Allocations() == 0 {
		t.Fatal("no allocations recorded")
	}
}

func listenDispatcher(t *testing.T) *dispatch.Dispatcher {
	t.Helper()
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestLocalAllocatorCancelBeforeStartup(t *testing.T) {
	d := listenDispatcher(t)
	alloc := &core.LocalAllocator{
		Template:     executor.Options{DispatcherAddr: d.Addr()},
		StartupDelay: 10 * time.Second, // long enough that cancel wins
	}
	id, err := alloc.Allocate(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, pending := alloc.Counts(); pending != 3 {
		t.Fatalf("pending = %d", pending)
	}
	if err := alloc.Deallocate(id); err != nil {
		t.Fatal(err)
	}
	alive, pending := alloc.Counts()
	if alive != 0 || pending != 0 {
		t.Fatalf("after cancel: alive=%d pending=%d", alive, pending)
	}
	if st := d.Stats(); st.TotalExecutors != 0 {
		t.Fatalf("executors registered despite cancel: %+v", st)
	}
}

// An executor that was still inside executor.Start when its allocation was
// deallocated has to be stopped when Start returns: with no idle timeout
// (centralized release) nothing else ever would, and Deallocate — the
// provisioner's poll goroutine with it — would wait on it for ever.
func TestLocalAllocatorDeallocateDuringStart(t *testing.T) {
	d := listenDispatcher(t)
	// The executor dials this listener; its connection reaches the dispatcher
	// only once the test relays it, which holds Start open until then.
	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	alloc := &core.LocalAllocator{Template: executor.Options{DispatcherAddr: front.Addr().String()}}
	id, err := alloc.Allocate(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	held, err := front.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	deallocated := make(chan error, 1)
	go func() { deallocated <- alloc.Deallocate(id) }()
	// Deallocate cannot finish while Start is held, and nothing shows from
	// outside that it has begun: the pause only makes it likely that it has,
	// which is the order that used to hang. The other order passes as well.
	select {
	case err := <-deallocated:
		t.Fatalf("Deallocate returned (%v) with a start still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	back, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	go io.Copy(back, held)
	go io.Copy(held, back)

	select {
	case err := <-deallocated:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Deallocate still waiting on an executor that registered after it ran")
	}
	if alive, pending := alloc.Counts(); alive != 0 || pending != 0 {
		t.Fatalf("after deallocate: alive=%d pending=%d, want 0, 0", alive, pending)
	}
}

func TestLocalAllocatorDeallocateUnknown(t *testing.T) {
	alloc := &core.LocalAllocator{}
	if err := alloc.Deallocate("nope"); err == nil {
		t.Fatal("unknown allocation accepted")
	}
}

func TestLocalAllocatorRejectsBadSize(t *testing.T) {
	alloc := &core.LocalAllocator{}
	if _, err := alloc.Allocate(0, 0); err == nil {
		t.Fatal("zero-size allocation accepted")
	}
}
