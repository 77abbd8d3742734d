package dispatch_test

// Reconnect edge-case tests: a client redialing while a submit batch is
// mid-flight, an executor re-registering while its dispatched tasks are
// still outstanding, and a dispatcher aborted while snapshot compaction
// is active. Each must preserve exactly-once delivery and leave a journal
// that recovers cleanly.

import (
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/faultinj"
	"falkon/internal/task"
	"falkon/internal/wal"
)

// TestClientRedialMidSubmitBatch crashes the dispatcher while a bundled
// Submit call is partway through its bundles. The call must ride out the
// outage: wait for the reconnect, resume from the interrupted bundle, and
// end with exactly one copy of every task enqueued (the journal dedupes
// the bundles that were durable before the crash).
func TestClientRedialMidSubmitBatch(t *testing.T) {
	dir := t.TempDir()
	d1 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()

	// Injected write latency stretches the submit loop so the crash below
	// reliably lands between bundles, not after the last one.
	inj := faultinj.New(faultinj.Spec{Seed: 11, LatencyP: 1, Latency: 4 * time.Millisecond}, nil, t.Logf)
	c, err := client.Connect(client.Options{
		DispatcherAddr: addr,
		BundleSize:     10,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 400
	var gen task.IDGen
	tasks := task.Batch(&gen, n, 0)
	errCh := make(chan error, 1)
	go func() { errCh <- c.Submit(tasks) }()

	// Wait until a prefix of the bundles is durably accepted, then model
	// kill -9 with the submit still in flight.
	deadline := time.Now().Add(10 * time.Second)
	for d1.Stats().Queued < n/4 {
		if time.Now().After(deadline) {
			t.Fatal("submit never reached the dispatcher")
		}
		time.Sleep(time.Millisecond)
	}
	d1.Abort()

	d2 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })

	if err := <-errCh; err != nil {
		t.Fatalf("submit did not survive the redial: %v", err)
	}
	if got := c.Reconnects(); got == 0 {
		t.Fatal("client never reconnected — crash landed outside the submit window")
	}
	// The recovered queue must hold exactly one copy of every task: the
	// pre-crash prefix via the journal, the rest via the resumed bundles.
	if st := d2.Stats(); st.Queued != n {
		t.Fatalf("recovered dispatcher queues %d tasks, want %d", st.Queued, n)
	}

	ex, err := executor.Start(executor.Options{ID: "exec-0", DispatcherAddr: addr, SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	rs, err := c.WaitN(n, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool, n)
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate result for %v", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d unique results, want %d", len(seen), n)
	}
}

// TestExecutorReregisterRacingDispatchedTasks injects connection drops on
// the executor's transport so it keeps losing its registration while tasks
// dispatched over the dead connection are still outstanding. The replay
// timer must redeliver those tasks to the re-registered executor, and the
// client must still see each result exactly once.
func TestExecutorReregisterRacingDispatchedTasks(t *testing.T) {
	d := dispatch.New(dispatch.Options{
		ReplayTimeout: 250 * time.Millisecond,
		MaxRetries:    50,
		Logf:          t.Logf,
	})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	inj := faultinj.New(faultinj.Spec{Seed: 5, DropP: 0.05}, nil, t.Logf)
	ex, err := executor.Start(executor.Options{
		ID:               "exec-flaky",
		DispatcherAddr:   d.Addr(),
		SleepScale:       0.001,
		Slots:            2,
		ReconnectTimeout: 30 * time.Second,
		Faults:           inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), BundleSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 300
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.WaitN(n, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool, n)
	for _, r := range rs {
		if r.Failed() {
			t.Fatalf("task %v failed: %+v", r.ID, r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate result for %v", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d unique results, want %d", len(seen), n)
	}
	if inj.Counts()["drop"] == 0 {
		t.Fatal("no connection drops injected — the re-register race never ran")
	}
}

// TestAbortDuringSnapshotCompaction runs a journaling dispatcher with an
// aggressively small snapshot interval so compaction is active essentially
// all the time, then aborts it repeatedly mid-workload. Every restart must
// recover from whatever mix of snapshot and tail segments the abort left
// behind, and the finished journal must replay to zero pending work.
func TestAbortDuringSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := func() dispatch.Options {
		return dispatch.Options{JournalDir: dir, SnapshotEvery: 4, Logf: t.Logf}
	}
	d := dispatch.New(opts())
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := d.Addr()

	ex, err := executor.Start(executor.Options{
		ID:               "exec-0",
		DispatcherAddr:   addr,
		SleepScale:       0.001,
		ReconnectTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{DispatcherAddr: addr, BundleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 200
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	// Three abort/restart cycles at different workload depths; with
	// SnapshotEvery=4 each one lands on or next to an in-flight compaction.
	var all []task.Result
	for _, take := range []int{n / 8, n / 8, n / 8} {
		rs, err := c.WaitN(take, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rs...)
		d.Abort()
		d = dispatch.New(opts())
		if err := d.Listen(addr); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := c.WaitN(n-len(all), 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, rest...)

	seen := make(map[task.ID]bool, n)
	for _, r := range all {
		if r.Failed() {
			t.Fatalf("task %v failed: %+v", r.ID, r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate result for %v", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != n {
		t.Fatalf("delivered %d unique results, want %d", len(seen), n)
	}

	c.Close()
	ex.Stop()
	d.Close() // seals the journal

	st, j, _, err := wal.Recover(dir, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncOff}})
	if err != nil {
		t.Fatalf("sealed journal does not recover: %v", err)
	}
	defer j.Close()
	if len(st.Pending) != 0 {
		t.Fatalf("finished workload left %d pending tasks in the journal", len(st.Pending))
	}
}
