package client_test

import (
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
)

// startDispatcher boots a dispatcher with n executors.
func startDispatcher(t *testing.T, n int) *dispatch.Dispatcher {
	t.Helper()
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	for i := 0; i < n; i++ {
		ex, err := executor.Start(executor.Options{
			ID:             "e" + string(rune('0'+i)),
			DispatcherAddr: d.Addr(),
			SleepScale:     0.001,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
	}
	return d
}

func TestConnectFailsOnBadAddress(t *testing.T) {
	if _, err := client.Connect(client.Options{DispatcherAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("connect to closed port succeeded")
	}
}

func TestBundlingSplitsSubmissions(t *testing.T) {
	d := startDispatcher(t, 2)
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	// 20 tasks with bundle 7: bundles of 7, 7, 6 — all must arrive.
	if err := c.Submit(task.Batch(&gen, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if got := c.Submitted(); got != 20 {
		t.Fatalf("submitted = %d", got)
	}
	rs, err := c.WaitN(20, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 20 {
		t.Fatalf("results = %d", len(rs))
	}
}

func TestSubmitEmptyIsNoop(t *testing.T) {
	d := startDispatcher(t, 1)
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Submit(nil); err != nil {
		t.Fatal(err)
	}
	if c.Submitted() != 0 {
		t.Fatal("submitted nonzero")
	}
}

func TestWaitNTimeout(t *testing.T) {
	// No executors: results never arrive.
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 1, 0)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.WaitN(1, 100*time.Millisecond)
	if err == nil {
		t.Fatal("WaitN returned without results")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not fire promptly")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	d := startDispatcher(t, 1)
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	d := startDispatcher(t, 1)
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 1, 0)); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// A reconnecting client keeps state for the tasks in flight only: once every
// result of 10,000 tasks is in, its maps hold nothing.
func TestReconnectClientStateIsInFlightOnly(t *testing.T) {
	d := startDispatcher(t, 2)
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 500, Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 10000
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := c.MapEntries(); got != 0 {
		t.Fatalf("after %d tasks the client's maps hold %d entries, want 0", n, got)
	}
	if got := c.DuplicatesDropped(); got != 0 {
		t.Fatalf("%d results dropped as duplicates in a run without redelivery", got)
	}
}

func TestLargeResultVolumeThroughBufferedChannel(t *testing.T) {
	// More results than the channel buffer (4096): the overflow spill path
	// must not drop or deadlock.
	d := startDispatcher(t, 4)
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 6000
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(n, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool, n)
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate %v", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("unique results = %d", len(seen))
	}
}
