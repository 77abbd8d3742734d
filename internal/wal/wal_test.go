package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"falkon/internal/task"
)

func testOpts() Options {
	return Options{Sync: SyncPolicy{Mode: SyncOff}} // tests don't need fsync
}

func mustRecover(t *testing.T, dir string, opts Options) (*State, *Journal, RecoveryInfo) {
	t.Helper()
	st, j, info, err := Recover(dir, opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return st, j, info
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		mode SyncMode
		bad  bool
	}{
		{"group", SyncGroup, false},
		{"", SyncGroup, false},
		{"off", SyncOff, false},
		// An fsync timer no test or script set, which a standby ignored.
		{"100ms", 0, true},
		{"1s", 0, true},
		{"-5ms", 0, true},
		{"banana", 0, true},
	}
	for _, c := range cases {
		p, err := ParseSyncPolicy(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", c.in, err)
			continue
		}
		if p.Mode != c.mode {
			t.Errorf("ParseSyncPolicy(%q) = %+v, want mode %v", c.in, p, c.mode)
		}
	}
}

// TestJournalRoundTrip covers the full cycle: append lifecycle records,
// close, recover, and check the rebuilt state.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, j, _ := mustRecover(t, dir, testOpts())
	if len(st.Instances) != 0 || len(st.Pending) != 0 {
		t.Fatalf("fresh dir not empty: %+v", st)
	}

	epr := "falkon-instance-1"
	if err := j.Append(KindInstance, InstanceRec{EPR: epr, Name: "cli", Notify: true}); err != nil {
		t.Fatal(err)
	}
	tasks := []task.Task{{ID: 1, Args: []string{"a"}}, {ID: 2, Args: []string{"b"}}, {ID: 3, Args: []string{"c"}}}
	h, err := j.AppendWait(KindAccept, AcceptRec{EPR: epr, Tasks: tasks})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("AppendWait: %v", err)
	}
	j.Append(KindDispatch, DispatchRec{EPR: epr, ID: 1, Exec: "x1"})
	j.Append(KindComplete, CompleteRec{EPR: epr, Result: task.Result{ID: 1, Stdout: "done"}})
	j.Append(KindDispatch, DispatchRec{EPR: epr, ID: 2, Exec: "x1"})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, j2, info := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Instances) != 1 {
		t.Fatalf("instances = %d, want 1", len(st.Instances))
	}
	in := st.Instances[0]
	if in.EPR != epr || in.Name != "cli" || in.Submitted != 3 {
		t.Errorf("instance = %+v", in)
	}
	if len(in.Results) != 1 || in.Results[0].ID != 1 || in.Results[0].Stdout != "done" {
		t.Errorf("results = %+v", in.Results)
	}
	// Task 1 completed; 2 (outstanding at crash) and 3 (queued) are pending.
	if len(st.Pending) != 2 {
		t.Fatalf("pending = %+v, want 2", st.Pending)
	}
	if st.Pending[0].Task.ID != 2 || st.Pending[0].Attempts != 1 {
		t.Errorf("pending[0] = %+v, want id 2 attempts 1", st.Pending[0])
	}
	if st.Pending[1].Task.ID != 3 || st.Pending[1].Attempts != 0 {
		t.Errorf("pending[1] = %+v, want id 3 attempts 0", st.Pending[1])
	}
	if st.Counters.Submitted != 3 || st.Counters.Completed != 1 || st.Counters.Dispatched != 2 {
		t.Errorf("counters = %+v", st.Counters)
	}
	if info.Records != 5 {
		t.Errorf("replayed %d records, want 5", info.Records)
	}
}

// TestAcceptDedupe: replaying a resubmitted bundle must not duplicate
// pending tasks — the journal-level guarantee behind idempotent resubmit.
func TestAcceptDedupe(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	epr := "falkon-instance-1"
	j.Append(KindInstance, InstanceRec{EPR: epr})
	bundle := AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 7}, {ID: 8}}}
	j.Append(KindAccept, bundle)
	j.Append(KindAccept, bundle) // client retried after a lost ack
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Pending) != 2 {
		t.Fatalf("pending = %+v, want 2 (dedupe failed)", st.Pending)
	}
	if st.Counters.Submitted != 2 || st.Instances[0].Submitted != 2 {
		t.Errorf("submitted = %d/%d, want 2/2", st.Counters.Submitted, st.Instances[0].Submitted)
	}
}

// TestReacceptAfterComplete: an accept record for an ID that already
// completed is a legitimate re-run (client resubmitted after losing the
// result) and must re-enter the pending set.
func TestReacceptAfterComplete(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	epr := "falkon-instance-1"
	j.Append(KindInstance, InstanceRec{EPR: epr})
	j.Append(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 5}}})
	j.Append(KindComplete, CompleteRec{EPR: epr, Result: task.Result{ID: 5}})
	j.Append(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 5}}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Pending) != 1 || st.Pending[0].Task.ID != 5 {
		t.Fatalf("pending = %+v, want re-accepted task 5", st.Pending)
	}
	if st.Counters.Completed != 1 || st.Counters.Submitted != 2 {
		t.Errorf("counters = %+v", st.Counters)
	}
}

// TestDestroyDropsPending: destroying an instance tombstones its tasks.
func TestDestroyDropsPending(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	j.Append(KindInstance, InstanceRec{EPR: "falkon-instance-1"})
	j.Append(KindInstance, InstanceRec{EPR: "falkon-instance-2"})
	j.Append(KindAccept, AcceptRec{EPR: "falkon-instance-1", Tasks: []task.Task{{ID: 1}}})
	j.Append(KindAccept, AcceptRec{EPR: "falkon-instance-2", Tasks: []task.Task{{ID: 2}}})
	j.Append(KindDestroy, DestroyRec{EPR: "falkon-instance-1"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Instances) != 1 || st.Instances[0].EPR != "falkon-instance-2" {
		t.Fatalf("instances = %+v", st.Instances)
	}
	if len(st.Pending) != 1 || st.Pending[0].Task.ID != 2 {
		t.Fatalf("pending = %+v", st.Pending)
	}
}

// TestTornTail: appending garbage to the live segment must not break
// recovery of the valid prefix, and must never fabricate records.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	epr := "falkon-instance-1"
	j.Append(KindInstance, InstanceRec{EPR: epr})
	j.Append(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 1}}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(1))
	for _, tail := range [][]byte{
		{0x01},                         // lone torn byte
		{0xff, 0xff, 0xff, 0x7f, 0, 0}, // absurd length, short header
		bytes.Repeat([]byte{0xaa}, 64), // plausible-length garbage
	} {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, append(data, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		st, j2, _ := mustRecover(t, dir, testOpts())
		j2.Close()
		if len(st.Pending) != 1 || st.Pending[0].Task.ID != 1 {
			t.Fatalf("tail %x: pending = %+v", tail, st.Pending)
		}
		// restore the clean segment for the next round
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTruncationProperty: truncating the segment at EVERY byte offset
// yields a strict prefix of the original record stream — never a panic,
// never a fabricated record.
func TestTruncationProperty(t *testing.T) {
	var buf []byte
	for i := 0; i < 8; i++ {
		body := AcceptRec{EPR: "falkon-instance-1", Tasks: []task.Task{{ID: task.ID(i + 1)}}}
		var err error
		buf, err = marshalRecord(buf, KindAccept, body)
		if err != nil {
			t.Fatal(err)
		}
	}
	want := decodeAll(buf)
	if len(want) != 8 {
		t.Fatalf("ground truth decoded %d records, want 8", len(want))
	}
	for cut := 0; cut <= len(buf); cut++ {
		got := decodeAll(buf[:cut])
		if len(got) > len(want) {
			t.Fatalf("cut %d: decoded %d > %d records", cut, len(got), len(want))
		}
		for i, rec := range got {
			if rec.kind != want[i].kind || !bytes.Equal(rec.body, want[i].body) {
				t.Fatalf("cut %d: record %d mismatch", cut, i)
			}
		}
	}
}

// TestBitFlipProperty: flipping any single bit yields a (possibly shorter)
// prefix of the original stream up to the flipped record — the CRC rejects
// the damaged record, and decode stops there.
func TestBitFlipProperty(t *testing.T) {
	var buf []byte
	for i := 0; i < 4; i++ {
		var err error
		buf, err = marshalRecord(buf, KindDispatch, DispatchRec{EPR: "falkon-instance-1", ID: task.ID(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := decodeAll(buf)
	for pos := 0; pos < len(buf); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), buf...)
			mut[pos] ^= 1 << bit
			got := decodeAll(mut)
			// Every decoded record must match the original stream prefix,
			// except a record whose length header grew may swallow
			// later bytes — but then its CRC fails, so it is rejected.
			for i, rec := range got {
				if i >= len(want) {
					t.Fatalf("pos %d bit %d: fabricated record %d", pos, bit, i)
				}
				if rec.kind != want[i].kind || !bytes.Equal(rec.body, want[i].body) {
					t.Fatalf("pos %d bit %d: record %d corrupted but accepted", pos, bit, i)
				}
			}
		}
	}
}

// appendRecord frames one record with a ready-made body onto dst.
func appendRecord(dst []byte, kind Kind, body []byte) []byte {
	dst, start := beginRecord(dst, kind)
	return sealRecord(append(dst, body...), start)
}

func decodeAll(buf []byte) []rawRecord {
	var out []rawRecord
	for {
		rec, rest, ok := nextRecord(buf)
		if !ok {
			return out
		}
		out = append(out, rawRecord{kind: rec.kind, body: append([]byte(nil), rec.body...)})
		buf = rest
	}
}

// TestSnapshotCompaction: rotate + snapshot prunes old segments, and
// recovery folds snapshot + tail.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	epr := "falkon-instance-1"
	j.Append(KindInstance, InstanceRec{EPR: epr})
	j.Append(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 1}, {ID: 2}}})

	cut, err := j.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	// Simulate the dispatcher capturing state at the cut: task 1 pending,
	// task 2 pending, instance live.
	snap := &State{
		Instances: []Instance{{EPR: epr, Submitted: 2}},
		Pending:   []Pending{{EPR: epr, Task: task.Relayed{ID: 1}}, {EPR: epr, Task: task.Relayed{ID: 2}}},
	}
	snap.Counters.Submitted = 2
	if err := j.WriteSnapshot(cut, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Errorf("segment 1 not pruned after snapshot")
	}

	// Post-snapshot tail: complete task 1.
	j.Append(KindComplete, CompleteRec{EPR: epr, Result: task.Result{ID: 1}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, j2, info := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if info.SnapshotIndex != cut {
		t.Errorf("recovered from snapshot %d, want %d", info.SnapshotIndex, cut)
	}
	if len(st.Pending) != 1 || st.Pending[0].Task.ID != 2 {
		t.Fatalf("pending = %+v, want just task 2", st.Pending)
	}
	if st.Counters.Completed != 1 || st.Counters.Submitted != 2 {
		t.Errorf("counters = %+v", st.Counters)
	}
	if len(st.Instances) != 1 || len(st.Instances[0].Results) != 1 {
		t.Fatalf("instances = %+v", st.Instances)
	}
}

// TestCorruptSnapshotFallsBack: a damaged newest snapshot falls back to an
// older one plus the segments it still covers.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	epr := "falkon-instance-1"
	j.Append(KindInstance, InstanceRec{EPR: epr})
	j.Append(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 1}}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Fake a newer corrupt snapshot. Its boundary (99) exceeds every
	// segment, so if recovery trusted it the state would be empty.
	if err := os.WriteFile(filepath.Join(dir, snapName(99)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Pending) != 1 {
		t.Fatalf("pending = %+v, want task 1 recovered despite corrupt snapshot", st.Pending)
	}
}

// TestGroupCommitConcurrent: many goroutines AppendWait concurrently; all
// must become durable, and the group committer should need far fewer
// fsyncs than appends. The disk takes a millisecond to fsync, as a real one
// does: with a disk that returns at once, on one P each goroutine's append
// can meet an idle committer, and the amortizing group commit is for is not
// tested: on an ext4 disk whose fsync of a few bytes took microseconds it read
// 200 fsyncs for 200 appends in some -cpu 1 runs (2 of 5 before commits
// became numbers, 10 of 10 in one census after).
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, Options{Sync: SyncPolicy{Mode: SyncGroup}, FS: slowSyncFS{OS}})
	j.Append(KindInstance, InstanceRec{EPR: "falkon-instance-1"})
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h, err := j.AppendWait(KindAccept, AcceptRec{EPR: "falkon-instance-1", Tasks: []task.Task{{ID: task.ID(id + 1)}}})
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if err := h.Wait(); err != nil {
				t.Errorf("wait: %v", err)
			}
		}(i)
	}
	wg.Wait()
	appends, fsyncs := j.Appends(), j.Fsyncs()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if appends != n+1 {
		t.Errorf("appends = %d, want %d", appends, n+1)
	}
	if fsyncs >= n {
		t.Errorf("fsyncs = %d for %d appends: group commit not amortizing", fsyncs, n)
	}
	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Pending) != n {
		t.Fatalf("recovered %d pending, want %d", len(st.Pending), n)
	}
}

// slowSyncFS is the real filesystem with every fsync taking a millisecond.
type slowSyncFS struct{ FS }

type slowSyncFile struct{ File }

func (f slowSyncFile) Sync() error {
	time.Sleep(time.Millisecond)
	return f.File.Sync()
}

func (fs slowSyncFS) Create(name string, excl bool) (File, error) {
	f, err := fs.FS.Create(name, excl)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f}, nil
}

// TestSegmentRotationBySize: small segment cap forces rotation; recovery
// replays across segments.
func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 256
	_, j, _ := mustRecover(t, dir, opts)
	epr := "falkon-instance-1"
	j.Append(KindInstance, InstanceRec{EPR: epr})
	for i := 0; i < 50; i++ {
		h, _ := j.AppendWait(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: task.ID(i + 1)}}})
		h.Wait() // force a commit per record so size-triggered rotation fires
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := sortedIndexed(OS, dir, "seg-", ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("segments = %v, want rotation to have split them", segs)
	}
	st, j2, info := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Pending) != 50 {
		t.Fatalf("recovered %d pending across %d segments, want 50", len(st.Pending), info.Segments)
	}
}

// TestAbortDropsBufferedBatch: Abort models kill -9 — records still in the
// append buffer are lost, previously committed records survive, and the
// journal never writes after Abort.
func TestAbortDropsBufferedBatch(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	epr := "falkon-instance-1"
	h, err := j.AppendWait(KindInstance, InstanceRec{EPR: epr})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil { // first record is committed for sure
		t.Fatal(err)
	}
	j.Abort()
	if err := j.Append(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 1}}}); err == nil {
		t.Error("Append after Abort succeeded")
	}
	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Instances) != 1 {
		t.Fatalf("committed instance record lost: %+v", st.Instances)
	}
	if len(st.Pending) != 0 {
		t.Fatalf("pending = %+v, want none", st.Pending)
	}
}

// BenchmarkWALAppend is one journaled task's share of the append path, written
// both ways: "per-task" is the record mix journals held before records
// followed the protocol (an accept per 64 tasks, a DispatchRec and a
// CompleteRec per task, each boxed into Append's any), "per-grant" what the
// dispatcher writes now (the same accept, one dispatch and one complete
// record per 16 tasks — the median grant of direct-bulk — through the typed
// entry points). One iteration is one task.
func BenchmarkWALAppend(b *testing.B) {
	const epr, exec, bundle, grant = "falkon-instance-1", "exec-0", 64, 16
	tasks := make([]task.Task, bundle)
	refs := make([]TaskRef, bundle)
	results := make([]task.Result, bundle)
	done := make([]Finalized, bundle)
	for i := range tasks {
		id := task.ID(1000 + i)
		tasks[i] = task.Task{ID: id, Engine: task.EngineSleep, Args: []string{"0123456789abcdef"}}
		refs[i] = TaskRef{EPR: epr, ID: id}
		results[i] = task.Result{ID: id, ExecutorID: exec, QueuedAt: 1e6, DispatchedAt: 2e6, StartedAt: 3e6, FinishedAt: 4e6, Attempts: 1}
		done[i] = Finalized{EPR: epr, Result: results[i].AppendJSON(nil)}
	}
	relayed := task.Relay(tasks)
	for _, mode := range []string{"per-task", "per-grant"} {
		b.Run(mode, func(b *testing.B) {
			_, j, _, err := Recover(b.TempDir(), Options{Sync: SyncPolicy{Mode: SyncOff}})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			j.Append(KindInstance, InstanceRec{EPR: epr})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at := i % bundle
				if at == 0 {
					if _, err = j.AppendAccept(epr, "", relayed, nil); err != nil {
						b.Fatal(err)
					}
				}
				switch {
				case mode == "per-task":
					j.Append(KindDispatch, DispatchRec{EPR: epr, ID: refs[at].ID, Exec: exec})
					err = j.Append(KindComplete, CompleteRec{EPR: epr, Result: results[at]})
				case at%grant == 0:
					j.AppendDispatches(&DispatchBatchRec{Exec: exec, Tasks: refs[at : at+grant]})
					err = j.AppendCompletes(done[at : at+grant])
				}
				if err != nil {
					b.Fatal(err)
				}
				if at == bundle-1 {
					// A handler returns to its connection between messages;
					// without this a loop on one P starves the committer and
					// times the growth of an unbounded buffer instead.
					runtime.Gosched()
				}
			}
		})
	}
}

func BenchmarkWALAppendWaitGroupCommit(b *testing.B) {
	dir := b.TempDir()
	_, j, _, err := Recover(dir, Options{Sync: SyncPolicy{Mode: SyncGroup}})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	j.Append(KindInstance, InstanceRec{EPR: "falkon-instance-1"})
	rec := AcceptRec{EPR: "falkon-instance-1", Tasks: []task.Task{{ID: 42}}}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h, err := j.AppendWait(KindAccept, rec)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
