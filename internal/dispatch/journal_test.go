package dispatch_test

// Crash-recovery tests for the journaling dispatcher: kill a dispatcher
// mid-workload (Abort models kill -9 — no flush, no drain), restart it on
// the same journal directory, and require every submitted task to be
// delivered exactly once through the reconnecting client.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
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
		ReconnectTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{
		DispatcherAddr: addr,
		BundleSize:     25,
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

	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
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

// A delivery's complete record is advisory: nobody waits on it, and it rides
// the next waited commit. With no later submit to ride, it is written once
// the journal's advisory bound (5 ms, DESIGN.md §10) has passed, so a crash
// well after the last result finds every task complete.
func TestCompletesWrittenWithoutLaterSubmit(t *testing.T) {
	dir := t.TempDir()
	d := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ex, err := executor.Start(executor.Options{ID: "exec-0", DispatcherAddr: d.Addr(), SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	c, err := client.Connect(client.Options{DispatcherAddr: d.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 100
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // fifty times the bound: a loaded host's delay included
	d.Abort()

	st, j, _, err := wal.Recover(dir, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(st.Pending) != 0 {
		t.Fatalf("%d of %d completed tasks pending after a crash past the bound", len(st.Pending), n)
	}
	if len(st.Instances) != 1 || len(st.Instances[0].Results) != n {
		t.Fatalf("instances = %d, want one holding %d results", len(st.Instances), n)
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

// TestFailedJournalStopsDispatcher: a dispatcher whose journal fails stops
// itself. The submit whose accept record could not be written is not
// answered — an error reply would read as a refusal of tasks the dispatcher
// had queued — and a dispatcher restarted on the same directory gives a
// reconnecting client exactly one result per task it submitted.
func TestFailedJournalStopsDispatcher(t *testing.T) {
	dir := t.TempDir()
	disk := &brokenDisk{FS: wal.OS}
	d1 := dispatch.New(dispatch.Options{JournalDir: dir, JournalFS: disk, Logf: t.Logf})
	if err := d1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d1.Close() })
	addr := d1.Addr()
	cli, err := wsrpcDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var created fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "t"}, &created); err != nil {
		t.Fatal(err)
	}
	c, err := client.Connect(client.Options{DispatcherAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	disk.broken.Store(true)
	submit := fproto.SubmitRequest{EPR: created.EPR, Tasks: []task.Task{task.Sleep(1, 0), task.Sleep(2, 0)}}
	err = cli.Call(fproto.MethodSubmit, &submit, new(fproto.SubmitReply))
	var remote *wsrpc.RemoteError
	if err == nil || errors.As(err, &remote) {
		t.Fatalf("submit on a failed journal answered %v, want a dropped connection", err)
	}
	select {
	case <-d1.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher still running 5 s after its journal failed")
	}

	// The client's submit waits out the outage and lands on the restarted
	// dispatcher, which recovers the client's instance.
	const n = 20
	var gen task.IDGen
	submitted := make(chan error, 1)
	go func() { submitted <- c.Submit(task.Batch(&gen, n, 0)) }()
	d2 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	ex, err := executor.Start(executor.Options{ID: "exec-0", DispatcherAddr: addr, SleepScale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	results, err := c.WaitN(n, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[task.ID]bool, n)
	for _, r := range results {
		if r.Failed() || seen[r.ID] {
			t.Fatalf("result %+v failed or repeated", r)
		}
		seen[r.ID] = true
	}
	select {
	case r := <-c.Results():
		t.Fatalf("result for %v beyond the %d tasks submitted", r.ID, n)
	case <-time.After(100 * time.Millisecond):
	}
}

// A journal written while a client could poll for its results instead of
// being pushed them: a snapshot and a segment whose instances carry "notify",
// true or false, and results buffered for them. Each record is as that
// dispatcher's encoders wrote it (a false "notify" it left out; here it is
// spelled out, which decodes the same). It recovers, and a reattach to each
// instance is pushed its buffered results, once.
const pollEraSnapshot = `{"next_epr":1,` +
	`"counters":{"Submitted":3,"Completed":2,"Failed":0,"Retried":0,"Dispatched":3,"Duplicates":0,"CacheHits":0,"CacheMisses":0},` +
	`"instances":[{"epr":"falkon-instance-1","name":"poller","notify":false,"tenant":"default","submitted":3,` +
	`"results":[{"id":1,"stdout":"out-1","executor":"x","attempts":1},{"id":2,"stdout":"out-2","executor":"x","attempts":1}]}],` +
	`"pending":[{"epr":"falkon-instance-1","task":{"id":3,"command":"sleep"},"attempts":1,"tenant":"default"}]}`

var pollEraSegment = []struct {
	kind wal.Kind
	body string
}{
	{wal.KindInstance, `{"epr":"falkon-instance-2","name":"poller-2","notify":false,"tenant":"default"}`},
	{wal.KindInstance, `{"epr":"falkon-instance-3","name":"pusher","notify":true,"tenant":"default"}`},
	{wal.KindAccept, `{"epr":"falkon-instance-2","tasks":[{"id":10,"command":"sleep"},{"id":11,"command":"sleep"}],"tenant":"default"}`},
	{wal.KindAccept, `{"epr":"falkon-instance-3","tasks":[{"id":20,"command":"sleep"}],"tenant":"default"}`},
	{wal.KindDispatchBatch, `{"exec":"x","tasks":[{"epr":"falkon-instance-2","id":10},{"epr":"falkon-instance-2","id":11},{"epr":"falkon-instance-3","id":20}]}`},
	{wal.KindCompleteBatch, `{"results":[` +
		`{"epr":"falkon-instance-1","result":{"id":3,"stdout":"out-3","executor":"x","attempts":1}},` +
		`{"epr":"falkon-instance-2","result":{"id":10,"stdout":"out-10","executor":"x","attempts":1}},` +
		`{"epr":"falkon-instance-3","result":{"id":20,"stdout":"out-20","executor":"x","attempts":1}}]}`},
}

// walFrame frames body as a journal record of kind: its length and CRC-32C,
// then the kind byte and the body.
func walFrame(dst []byte, kind wal.Kind, body string) []byte {
	payload := append([]byte{byte(kind)}, body...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(dst, payload...)
}

func TestPollEraJournalRecoversAndPushes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-00000001.snap"), walFrame(nil, wal.KindSnapshot, pollEraSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for _, r := range pollEraSegment {
		seg = walFrame(seg, r.kind, r.body)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	d := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.Stats(); st.Instances != 3 || st.Queued != 1 || st.RecoveredTasks != 1 {
		t.Fatalf("recovered %d instances and %d queued tasks (%d recovered), want 3 and 1 (task 11)", st.Instances, st.Queued, st.RecoveredTasks)
	}
	for _, want := range []struct {
		epr     string
		results []task.ID
		owed    int // still owed once the buffer is pushed
	}{
		{"falkon-instance-1", []task.ID{1, 2, 3}, 0},
		{"falkon-instance-2", []task.ID{10}, 1},
		{"falkon-instance-3", []task.ID{20}, 0},
	} {
		if buffered, _ := d.Owes(want.epr); buffered != len(want.results) {
			t.Fatalf("%s buffers %d results, want %d", want.epr, buffered, len(want.results))
		}
		sink := dialSink(t, d.Addr())
		defer sink.Close()
		if err := sink.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{EPR: want.epr}, nil); err != nil {
			t.Fatalf("reattach %s: %v", want.epr, err)
		}
		got := sink.take() // pushed ahead of the reattach's reply
		if len(got) != len(want.results) {
			t.Fatalf("%s was pushed %+v, want results %v", want.epr, got, want.results)
		}
		for i, r := range got {
			if r.ID != want.results[i] || r.Stdout != fmt.Sprintf("out-%d", r.ID) {
				t.Fatalf("%s was pushed %+v, want results %v", want.epr, got, want.results)
			}
		}
		if buffered, owed := d.Owes(want.epr); buffered != 0 || owed != want.owed {
			t.Fatalf("%s buffers %d results and owes %d after the reattach, want 0 and %d", want.epr, buffered, owed, want.owed)
		}
	}
}

// A journal written while EPRs were a per-process sequence: a snapshot that
// carries the sequence ("next_epr") and instances named falkon-instance-N,
// and a segment that creates one more and destroys one, as that dispatcher's
// encoders wrote them. It recovers, each live instance reattaches by its old
// EPR — sent by a client of that time, with the HA cluster ID it echoed — and
// is pushed its buffered results; the destroyed one is refused. A fresh
// create is minted a random name, which a restart on the journal recovers.
const sequenceEraSnapshot = `{"next_epr":2,` +
	`"counters":{"Submitted":2,"Completed":1,"Failed":0,"Retried":0,"Dispatched":2,"Duplicates":0,"CacheHits":0,"CacheMisses":0},` +
	`"instances":[{"epr":"falkon-instance-1","name":"first","tenant":"default","submitted":2,` +
	`"results":[{"id":1,"stdout":"out-1","executor":"x","attempts":1}]},` +
	`{"epr":"falkon-instance-2","name":"second","tenant":"default"}],` +
	`"pending":[{"epr":"falkon-instance-1","task":{"id":2,"command":"sleep"},"attempts":1,"tenant":"default"}]}`

var sequenceEraSegment = []struct {
	kind wal.Kind
	body string
}{
	{wal.KindInstance, `{"epr":"falkon-instance-3","name":"third","tenant":"default"}`},
	{wal.KindDestroy, `{"epr":"falkon-instance-2"}`},
	{wal.KindAccept, `{"epr":"falkon-instance-3","tasks":[{"id":5,"command":"sleep"}],"tenant":"default"}`},
	{wal.KindDispatchBatch, `{"exec":"x","tasks":[{"epr":"falkon-instance-3","id":5}]}`},
	{wal.KindCompleteBatch, `{"results":[` +
		`{"epr":"falkon-instance-1","result":{"id":2,"stdout":"out-2","executor":"x","attempts":1}},` +
		`{"epr":"falkon-instance-3","result":{"id":5,"stdout":"out-5","executor":"x","attempts":1}}]}`},
}

func TestSequenceEraJournalRecoversAndReattaches(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-00000001.snap"), walFrame(nil, wal.KindSnapshot, sequenceEraSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	var seg []byte
	for _, r := range sequenceEraSegment {
		seg = walFrame(seg, r.kind, r.body)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	d := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Instances != 2 || st.Queued != 0 {
		d.Close()
		t.Fatalf("recovered %d instances and %d queued tasks, want 2 and none", st.Instances, st.Queued)
	}
	reattach := func(epr string) ([]task.ID, error) {
		sink := dialSink(t, d.Addr())
		defer sink.Close()
		old := json.RawMessage(`{"client":"old","epr":"` + epr + `","cluster":"ha:/var/lib/falkon/lease"}`)
		var reply fproto.CreateInstanceReply
		if err := sink.Call(fproto.MethodCreateInstance, old, &reply); err != nil {
			return nil, err
		}
		if reply.EPR != epr {
			t.Errorf("reattach to %s answered %q", epr, reply.EPR)
		}
		var ids []task.ID
		for _, r := range sink.take() { // pushed ahead of the reattach's reply
			if r.Stdout != fmt.Sprintf("out-%d", r.ID) {
				t.Errorf("%s was pushed %+v", epr, r)
			}
			ids = append(ids, r.ID)
		}
		return ids, nil
	}
	for _, want := range []struct {
		epr     string
		results []task.ID
	}{
		{"falkon-instance-1", []task.ID{1, 2}},
		{"falkon-instance-3", []task.ID{5}},
	} {
		got, err := reattach(want.epr)
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want.results) {
			t.Errorf("reattach to %s was pushed %v (%v), want %v", want.epr, got, err, want.results)
		}
	}
	if _, err := reattach("falkon-instance-2"); err == nil {
		t.Error("a reattach to the destroyed falkon-instance-2 was accepted")
	}

	sink := dialSink(t, d.Addr())
	var fresh fproto.CreateInstanceReply
	err := sink.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "new"}, &fresh)
	sink.Close()
	if err != nil || len(fresh.EPR) != 16 || strings.Trim(fresh.EPR, "0123456789abcdef") != "" {
		t.Fatalf("a fresh create was minted %q (%v), want 16 hex digits", fresh.EPR, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if st := d.Stats(); st.Instances != 3 {
		t.Fatalf("a restart recovered %d instances, want the two old ones and %s", st.Instances, fresh.EPR)
	}
	if _, err := reattach(fresh.EPR); err != nil {
		t.Fatalf("reattach to %s after a restart: %v", fresh.EPR, err)
	}
}
