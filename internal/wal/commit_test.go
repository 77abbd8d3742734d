package wal

import (
	"sync/atomic"
	"testing"
	"time"

	"falkon/internal/task"
)

// The durability contract of an advisory record (DESIGN.md §10, "Group
// commit"): nobody waits on it, so it wakes no committer; it rides the next
// waited commit, or is written alone once advisoryBound has passed or the
// buffer holds advisoryBytes; and a crash before then loses that tail only.

// writesFS is the real filesystem, counting the writes to segments (the files
// it creates exclusively).
type writesFS struct {
	FS
	writes *atomic.Int64
}

type writesFile struct {
	File
	writes *atomic.Int64
}

func (f writesFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	return f.File.Write(p)
}

func (fs writesFS) Create(name string, excl bool) (File, error) {
	f, err := fs.FS.Create(name, excl)
	if err != nil || !excl {
		return f, err
	}
	return writesFile{f, fs.writes}, nil
}

// countedJournal opens a journal in a fresh directory whose segment writes
// are counted, with advisoryBound set to bound for the test's length.
func countedJournal(t *testing.T, bound time.Duration) (string, *Journal, *atomic.Int64) {
	t.Helper()
	was := advisoryBound
	advisoryBound = bound
	t.Cleanup(func() { advisoryBound = was })
	writes := new(atomic.Int64)
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, Options{Sync: SyncPolicy{Mode: SyncOff}, FS: writesFS{OS, writes}})
	return dir, j, writes
}

// waitWrites polls until the journal has written want times or within is up,
// and returns how long it took.
func waitWrites(t *testing.T, writes *atomic.Int64, want int64, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for writes.Load() < want {
		if time.Since(start) > within {
			t.Fatalf("%d segment writes after %v, want %d", writes.Load(), within, want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start)
}

// acceptOne makes instance epr and its task 1 durable, one waited commit each.
func acceptOne(t *testing.T, j *Journal, epr string) {
	t.Helper()
	for _, rec := range []struct {
		kind Kind
		v    any
	}{{KindInstance, InstanceRec{EPR: epr}}, {KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 1}}}}} {
		h, err := j.AppendWait(rec.kind, rec.v)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// An advisory record appended alone, with nothing after it, is written within
// the bound: a grant with no later submit still reaches the disk.
func TestAdvisoryRecordWrittenWithinBound(t *testing.T) {
	dir, j, writes := countedJournal(t, advisoryBound)
	const epr = "falkon-instance-1"
	acceptOne(t, j, epr)
	before := writes.Load()
	if err := j.AppendDispatches(&DispatchBatchRec{Exec: "exec-0", Tasks: []TaskRef{{EPR: epr, ID: 1}}}); err != nil {
		t.Fatal(err)
	}
	// The bound, and a loaded host's scheduling delay on top of it.
	took := waitWrites(t, writes, before+1, advisoryBound+time.Second)
	t.Logf("advisory record written %v after its append (bound %v)", took, advisoryBound)
	j.Abort()
	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Pending) != 1 || st.Pending[0].Attempts != 1 {
		t.Fatalf("pending = %+v, want task 1 with the written grant's attempt", st.Pending)
	}
}

// N advisory records and one waited one make one write: the advisory ones
// ride the commit the waited one asks for.
func TestAdvisoryRecordsRideWaitedCommit(t *testing.T) {
	_, j, writes := countedJournal(t, time.Hour)
	defer j.Close()
	const epr = "falkon-instance-1"
	acceptOne(t, j, epr)
	before := writes.Load()
	const n = 100
	for i := range n {
		ref := []TaskRef{{EPR: epr, ID: task.ID(i + 2)}}
		if err := j.AppendDispatches(&DispatchBatchRec{Exec: "exec-0", Tasks: ref}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // time enough for a committer that was woken to write
	if w := writes.Load() - before; w != 0 {
		t.Fatalf("%d writes for %d advisory records alone, want 0", w, n)
	}
	h, err := j.AppendWait(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 500}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if w := writes.Load() - before; w != 1 {
		t.Fatalf("%d writes for %d advisory records and a waited one, want 1", w, n)
	}
}

// Advisory records past advisoryBytes are written with no waiter and long
// before the bound.
func TestAdvisoryRecordsPastBytesWritten(t *testing.T) {
	_, j, writes := countedJournal(t, time.Hour)
	defer j.Close()
	const epr = "falkon-instance-1"
	acceptOne(t, j, epr)
	before := writes.Load()
	out := task.Result{ID: 1, Stdout: string(make([]byte, 4096))}
	fin := []Finalized{{EPR: epr, Result: out.AppendJSON(nil)}}
	for bytes := 0; bytes <= advisoryBytes; bytes += len(fin[0].Result) {
		if err := j.AppendCompletes(fin); err != nil {
			t.Fatal(err)
		}
	}
	waitWrites(t, writes, before+1, 10*time.Second)
}

// Abort before the bound loses the advisory tail and nothing before it: the
// task whose complete record was only buffered is pending again, as a task
// whose result was lost with its dispatcher is.
func TestAbortBeforeBoundLosesOnlyAdvisoryTail(t *testing.T) {
	dir, j, writes := countedJournal(t, time.Hour)
	const epr = "falkon-instance-1"
	acceptOne(t, j, epr)
	before := writes.Load()
	if err := j.AppendDispatches(&DispatchBatchRec{Exec: "exec-0", Tasks: []TaskRef{{EPR: epr, ID: 1}}}); err != nil {
		t.Fatal(err)
	}
	r := task.Result{ID: 1, ExecutorID: "exec-0", Attempts: 1}
	if err := j.AppendCompletes([]Finalized{{EPR: epr, Result: r.AppendJSON(nil)}}); err != nil {
		t.Fatal(err)
	}
	j.Abort()
	if w := writes.Load() - before; w != 0 {
		t.Fatalf("%d writes of the advisory tail before the bound", w)
	}
	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Instances) != 1 || len(st.Instances[0].Results) != 0 {
		t.Fatalf("instances = %+v, want the instance with no result", st.Instances)
	}
	if len(st.Pending) != 1 || st.Pending[0].Task.ID != 1 || st.Pending[0].Attempts != 0 {
		t.Fatalf("pending = %+v, want task 1 as accepted", st.Pending)
	}
}

// A waited commit allocates nothing: its barrier is a commit number under the
// journal's lock, not an object made per commit.
func TestWaitedCommitAllocatesNothing(t *testing.T) {
	_, j, _ := countedJournal(t, advisoryBound)
	defer j.Close()
	tasks := task.Relay([]task.Task{{ID: 1, Args: []string{"0123456789abcdef"}}})
	commit := func() {
		h, err := j.AppendAccept("falkon-instance-1", "", tasks, nil)
		if err == nil {
			err = h.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	commit() // the two append buffers reach their size
	commit()
	if n := testing.AllocsPerRun(200, commit); n != 0 {
		t.Fatalf("%.2f objects per waited commit, want 0", n)
	}
}
