package dispatch_test

// Crash-recovery tests for the journaling dispatcher: kill a dispatcher
// mid-workload (Abort models kill -9 — no flush, no drain), restart it on
// the same journal directory, and require every submitted task to be
// delivered exactly once through the reconnecting client.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wal"
)

func TestCrashRecoveryExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	d1 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := d1.Addr()

	ex, err := executor.Start(executor.Options{
		ID:               "exec-0",
		DispatcherAddr:   addr,
		SleepScale:       0.001,
		Reconnect:        true,
		ReconnectTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{
		DispatcherAddr: addr,
		BundleSize:     25,
		Reconnect:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 200
	var gen task.IDGen
	tasks := task.Batch(&gen, n, 50*time.Millisecond) // ~50µs each scaled
	if err := c.Submit(tasks); err != nil {
		t.Fatal(err)
	}

	// Take a partial batch so the crash lands mid-workload, then model
	// kill -9: no drain, no journal flush beyond what already committed.
	first, err := c.WaitN(n/4, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d1.Abort()

	// Restart on the same journal directory and the same address; the
	// executor and client both reconnect on their own.
	d2 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })

	rest, err := c.WaitN(n-len(first), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[task.ID]bool, n)
	for _, r := range append(first, rest...) {
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
	if c.Reconnects() == 0 {
		t.Fatal("client never reconnected — crash landed after the workload finished")
	}
	st := d2.Stats()
	if !st.Journal {
		t.Fatal("recovered dispatcher does not report journaling")
	}
	if st.RecoveredTasks == 0 {
		t.Fatal("recovered dispatcher replayed no tasks")
	}
}

func TestJournaledSubmitDedupe(t *testing.T) {
	dir := t.TempDir()
	d := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr(), Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// No executor yet: the first submission stays queued (live), so an
	// identical resubmission must be absorbed without double-enqueueing.
	const n = 50
	var gen task.IDGen
	tasks := task.Batch(&gen, n, 0)
	if err := c.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	if got := c.Deduped(); got != n {
		t.Fatalf("dispatcher deduped %d resubmitted tasks, want %d", got, n)
	}
	if st := d.Stats(); st.Queued != n {
		t.Fatalf("queued %d tasks after duplicate submit, want %d", st.Queued, n)
	}

	ex, err := executor.Start(executor.Options{ID: "exec-0", DispatcherAddr: d.Addr(), SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	results, err := c.WaitN(n, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool, n)
	for _, r := range results {
		if seen[r.ID] {
			t.Fatalf("duplicate result for %v", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestGracefulCloseLeavesNoPending(t *testing.T) {
	dir := t.TempDir()
	d := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ex, err := executor.Start(executor.Options{ID: "exec-0", DispatcherAddr: d.Addr(), SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}

	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 40, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(40, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Close()
	ex.Stop()
	d.Close() // seals the journal

	// A sealed journal of a finished workload must replay to zero pending
	// work: every accept is matched by a complete (or destroy).
	st, j, _, err := wal.Recover(dir, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(st.Pending) != 0 {
		t.Fatalf("graceful shutdown left %d pending tasks in the journal", len(st.Pending))
	}
}

// brokenDisk is the real filesystem until broken is set; from then on every
// write to a journal file fails.
type brokenDisk struct {
	wal.FS
	broken atomic.Bool
}

func (fs *brokenDisk) Create(name string, excl bool) (wal.File, error) {
	f, err := fs.FS.Create(name, excl)
	return brokenFile{f, fs}, err
}

type brokenFile struct {
	wal.File
	fs *brokenDisk
}

func (f brokenFile) Write(p []byte) (int, error) {
	if f.fs.broken.Load() {
		return 0, errors.New("disk gone")
	}
	return f.File.Write(p)
}

// TestDestroyOnFailedJournalIsRefused: once the journal has failed closed a
// destroy cannot be recorded, so it must not be acknowledged — a restart
// would bring the instance and its queued tasks back.
func TestDestroyOnFailedJournalIsRefused(t *testing.T) {
	disk := &brokenDisk{FS: wal.OS}
	d := dispatch.New(dispatch.Options{JournalDir: t.TempDir(), JournalFS: disk, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := wsrpcDial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var created fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "t"}, &created); err != nil {
		t.Fatal(err)
	}
	disk.broken.Store(true)
	// The first record to hit the disk fails its commit and the journal with it.
	submit := fproto.SubmitRequest{EPR: created.EPR, Tasks: []task.Task{task.Sleep(1, 0)}}
	if err := cli.Call(fproto.MethodSubmit, &submit, new(fproto.SubmitReply)); err == nil {
		t.Fatal("submit acknowledged though its accept record could not be written")
	}
	err = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: created.EPR}, nil)
	if err == nil {
		t.Fatal("destroy acknowledged though the journal takes no records")
	}
	t.Logf("destroy refused: %v", err)
}
