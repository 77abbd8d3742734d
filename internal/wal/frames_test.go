package wal

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/task"
)

// feedStandby wires a leader journal's Mirror hook into a standby journal
// the way the replication source + standby pair does: the batch (which
// aliases the committer's buffer) is appended whole, and its barrier waited.
func feedStandby(t *testing.T, sj *Journal, records *int) func(batch []byte) {
	t.Helper()
	return func(batch []byte) {
		n, h, err := sj.AppendFrames(batch)
		if err == nil {
			err = h.Wait()
		}
		if err != nil {
			t.Errorf("standby append: %v", err)
		}
		*records += n
	}
}

// baseline installs st as the standby journal's new baseline, as a standby
// does on attach.
func baseline(t *testing.T, j *Journal, st *State) {
	t.Helper()
	cut, err := j.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := j.WriteSnapshot(cut, st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
}

// TestAppendFramesRoundTrip drives a leader journal with the Mirror hook
// feeding a standby journal, then recovers both directories and asserts the
// standby rebuilt the identical state — the invariant a promoted standby
// relies on.
func TestAppendFramesRoundTrip(t *testing.T) {
	leaderDir, standbyDir := t.TempDir(), t.TempDir()
	_, sj, _ := mustRecover(t, standbyDir, Options{})
	baseline(t, sj, &State{})

	var streamed int
	_, j, _, err := Recover(leaderDir, Options{Mirror: feedStandby(t, sj, &streamed)})
	if err != nil {
		t.Fatalf("Recover leader: %v", err)
	}

	const epr = "falkon-instance-1"
	mustWait(t, j, KindInstance, InstanceRec{EPR: epr})
	mustWait(t, j, KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{
		task.Sleep(1, 0), task.Sleep(2, time.Millisecond), task.Sleep(3, 0),
	}})
	if err := j.Append(KindDispatch, DispatchRec{EPR: epr, ID: 1, Exec: "e1"}); err != nil {
		t.Fatalf("append dispatch: %v", err)
	}
	mustWait(t, j, KindComplete, CompleteRec{EPR: epr, Result: task.Result{ID: 1, ExecutorID: "e1"}})
	if err := j.Close(); err != nil {
		t.Fatalf("close leader: %v", err)
	}
	if err := sj.Close(); err != nil {
		t.Fatalf("close standby: %v", err)
	}
	if streamed != 4 {
		t.Fatalf("standby appended %d records, want 4", streamed)
	}

	lst, lj, _ := mustRecover(t, leaderDir, Options{})
	lj.Close()
	sst, sj2, _ := mustRecover(t, standbyDir, Options{})
	sj2.Close()
	if !reflect.DeepEqual(lst, sst) {
		t.Fatalf("recovered states differ:\nleader:  %+v\nstandby: %+v", lst, sst)
	}
	if len(sst.Pending) != 2 || len(sst.Instances) != 1 {
		t.Fatalf("standby state = %+v, want 2 pending + 1 instance", sst)
	}
}

// TestRebaselineOverExisting asserts a re-baseline (stream gap: the standby
// fell behind the source's ring) lands the new snapshot above the old files
// and prunes them, leaving exactly the new state recoverable.
func TestRebaselineOverExisting(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, Options{})
	baseline(t, j, &State{NextEPR: 1})
	frame := appendRecord(nil, KindInstance, []byte(`{"epr":"falkon-instance-1"}`))
	if _, h, err := j.AppendFrames(frame); err != nil || h.Wait() != nil {
		t.Fatalf("AppendFrames: %v", err)
	}

	// New leader incarnation: a fresh cut with a different state.
	next := &State{NextEPR: 9, Instances: []Instance{{EPR: "falkon-instance-9"}}}
	baseline(t, j, next)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, j2, info := mustRecover(t, dir, Options{})
	j2.Close()
	if !reflect.DeepEqual(st, next) {
		t.Fatalf("recovered %+v, want %+v", st, next)
	}
	if info.Records != 0 {
		t.Fatalf("replayed %d records from pruned history, want 0", info.Records)
	}
}

// TestAppendFramesRotation streams enough to roll segments and verifies the
// multi-segment tail replays in order.
func TestAppendFramesRotation(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, Options{SegmentBytes: 256})
	baseline(t, j, &State{})
	spans := [][]byte{appendRecord(nil, KindInstance, []byte(`{"epr":"falkon-instance-1"}`))}
	for i := 1; i <= 40; i++ {
		f, err := marshalRecord(nil, KindAccept, AcceptRec{
			EPR: "falkon-instance-1", Tasks: []task.Task{task.Sleep(task.ID(i), 0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, f)
	}
	for i, span := range spans {
		// One span per commit, so size-triggered rotation fires.
		n, h, err := j.AppendFrames(span)
		if err == nil {
			err = h.Wait()
		}
		if err != nil || n != 1 {
			t.Fatalf("AppendFrames %d: n=%d err=%v", i, n, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, j2, info := mustRecover(t, dir, Options{})
	j2.Close()
	if info.Segments < 2 {
		t.Fatalf("replayed %d segments, want rotation (>= 2)", info.Segments)
	}
	if len(st.Pending) != 40 {
		t.Fatalf("recovered %d pending, want 40", len(st.Pending))
	}
	for i, p := range st.Pending {
		if p.Task.ID != task.ID(i+1) {
			t.Fatalf("pending[%d] = task %v, want %d", i, p.Task.ID, i+1)
		}
	}
}

// TestAppendFramesRefusesDamage: a truncated span and a corrupt span are
// refused whole — not even their intact leading record is buffered.
func TestAppendFramesRefusesDamage(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	good := appendRecord(nil, KindInstance, []byte(`{"epr":"falkon-instance-1"}`))
	var span []byte
	span = appendRecord(span, KindAccept, []byte(`{"epr":"falkon-instance-1","tasks":[{"id":1}]}`))
	span = appendRecord(span, KindAccept, []byte(`{"epr":"falkon-instance-1","tasks":[{"id":2}]}`))
	corrupt := append([]byte(nil), span...)
	corrupt[len(corrupt)-3] ^= 0xFF

	if n, h, err := j.AppendFrames(good); err != nil || n != 1 || h.Wait() != nil {
		t.Fatalf("AppendFrames(good): n=%d err=%v", n, err)
	}
	appends := j.Appends()
	for name, bad := range map[string][]byte{"truncated": span[:len(span)-1], "corrupt": corrupt} {
		if n, _, err := j.AppendFrames(bad); err == nil || n != 0 {
			t.Fatalf("AppendFrames(%s) = %d, %v; want refusal", name, n, err)
		}
	}
	if got := j.Appends(); got != appends {
		t.Fatalf("appends %d -> %d across refused spans", appends, got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, j2, info := mustRecover(t, dir, testOpts())
	j2.Close()
	if info.Records != 1 || len(st.Pending) != 0 {
		t.Fatalf("recovered %d records, %d pending; want only the good span", info.Records, len(st.Pending))
	}
}

// failOnceFS fails the first segment Write after armed is set.
type failOnceFS struct {
	FS
	armed atomic.Bool
}

var errDisk = errors.New("disk write failed")

func (fs *failOnceFS) Create(name string, excl bool) (File, error) {
	f, err := fs.FS.Create(name, excl)
	return failOnceFile{f, fs}, err
}

type failOnceFile struct {
	File
	fs *failOnceFS
}

func (f failOnceFile) Write(p []byte) (int, error) {
	if f.fs.armed.CompareAndSwap(true, false) {
		// A torn write: half the batch reaches the file.
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errDisk
	}
	return f.File.Write(p)
}

// TestAppendFramesAfterFailedWrite: a failed segment write fails the journal
// closed, so the next span is refused with that error instead of landing
// behind the torn record, where recovery would never reach it.
func TestAppendFramesAfterFailedWrite(t *testing.T) {
	dir := t.TempDir()
	fs := &failOnceFS{FS: OS}
	_, j, _ := mustRecover(t, dir, Options{FS: fs, Sync: SyncPolicy{Mode: SyncOff}})
	first := appendRecord(nil, KindInstance, []byte(`{"epr":"falkon-instance-1"}`))
	if _, h, err := j.AppendFrames(first); err != nil || h.Wait() != nil {
		t.Fatalf("AppendFrames(first): %v", err)
	}
	fs.armed.Store(true)
	torn := appendRecord(nil, KindInstance, []byte(`{"epr":"falkon-instance-2"}`))
	_, h, err := j.AppendFrames(torn)
	if err != nil {
		t.Fatalf("AppendFrames(torn): %v", err)
	}
	if err := h.Wait(); !errors.Is(err, errDisk) {
		t.Fatalf("torn span's barrier = %v, want %v", err, errDisk)
	}
	next := appendRecord(nil, KindInstance, []byte(`{"epr":"falkon-instance-3"}`))
	if n, _, err := j.AppendFrames(next); !errors.Is(err, errDisk) || n != 0 {
		t.Fatalf("AppendFrames after failed write = %d, %v; want %v", n, err, errDisk)
	}
	j.Close()

	st, j2, _ := mustRecover(t, dir, testOpts())
	j2.Close()
	if len(st.Instances) != 1 || st.Instances[0].EPR != "falkon-instance-1" {
		t.Fatalf("recovered instances %+v, want only the first", st.Instances)
	}
}

// TestNextFrame exercises the exported frame splitter against framed and
// damaged buffers.
func TestNextFrame(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, KindAccept, []byte(`{"epr":"x"}`))
	buf = appendRecord(buf, KindComplete, []byte(`{"epr":"y"}`))
	if got := CountFrames(buf); got != 2 {
		t.Fatalf("CountFrames = %d, want 2", got)
	}
	f1, rest, ok := NextFrame(buf)
	if !ok || len(f1)+len(rest) != len(buf) {
		t.Fatalf("NextFrame split wrong: ok=%v len(f1)=%d len(rest)=%d", ok, len(f1), len(rest))
	}
	// A frame must round-trip through the record decoder.
	rec, _, ok := nextRecord(f1)
	if !ok || rec.kind != KindAccept {
		t.Fatalf("frame did not decode: ok=%v kind=%v", ok, rec.kind)
	}
	// Corruption is rejected, truncation yields no frame.
	bad := append([]byte(nil), buf...)
	bad[headerSize+2] ^= 0xFF
	if _, _, ok := NextFrame(bad); ok {
		t.Fatal("NextFrame accepted corrupt payload")
	}
	if _, _, ok := NextFrame(buf[:headerSize+1]); ok {
		t.Fatal("NextFrame accepted truncated buffer")
	}
	if got := CountFrames(nil); got != 0 {
		t.Fatalf("CountFrames(nil) = %d, want 0", got)
	}
}

func mustWait(t *testing.T, j *Journal, kind Kind, v any) {
	t.Helper()
	h, err := j.AppendWait(kind, v)
	if err != nil {
		t.Fatalf("append %v: %v", kind, err)
	}
	if err := h.Wait(); err != nil {
		t.Fatalf("wait %v: %v", kind, err)
	}
}
