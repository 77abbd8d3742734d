package dispatch_test

// The journal moves in the protocol's units (DESIGN.md §10): one accept
// record per Submit, one dispatch record per grant, one complete record per
// Deliver — and a snapshot cadence that still counts tasks.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// An exact count: over a clean run the journal holds one record for the
// instance, one per Submit, one per grant and one per Deliver, whatever
// number of tasks each carried. A dispatcher that went back to a record per
// task would write twice the task count more.
func TestJournalRecordsFollowTheProtocol(t *testing.T) {
	const n = 4096
	d, c, _ := startSystem(t, dispatch.Options{JournalDir: t.TempDir()}, client.Options{BundleSize: 64}, 1, executor.Options{})
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(n, time.Minute); err != nil {
		t.Fatal(err)
	}
	var submits, delivers, grants, appends int64
	read := func() bool {
		s := d.Metrics().Snapshot()
		calls := func(method string) int64 { return s.Counters[obs.Labeled("wsrpc_calls_total", "method", method)] }
		submits, delivers = calls(fproto.MethodSubmit), calls(fproto.MethodDeliver)
		grants = int64(s.Histograms["falkon_dispatch_grant_tasks"].Count)
		appends = s.Counters["falkon_wal_appends_total"]
		return appends == 1+submits+grants+delivers
	}
	// wsrpc counts a call when its handler has returned, and the last Deliver
	// pushes the results WaitN saw from inside its handler: give it a moment.
	for tries := 0; !read() && tries < 100; tries++ {
		time.Sleep(time.Millisecond)
	}
	if want := 1 + submits + grants + delivers; appends != want {
		t.Fatalf("journal holds %d records, want %d = 1 instance + %d submits + %d grants + %d delivers", appends, want, submits, grants, delivers)
	}
	if submits != n/64 || grants == 0 || delivers == 0 || grants > n/4 || delivers > n/4 {
		t.Fatalf("%d submits, %d grants and %d delivers for %d tasks: the run did not batch, so the count above proves nothing", submits, grants, delivers, n)
	}
	if st := d.Stats(); st.JournalAppends != appends || st.Dispatched != n || st.Completed != n {
		t.Fatalf("stats %+v, want %d journal appends and %d tasks dispatched and completed", st, appends, n)
	}
}

// -snapshot-every counts task transitions (a dispatch, a completion), not
// records: waves of SnapshotEvery/2 tasks each bring exactly one snapshot, as
// they did when every transition was a record of its own. Counted in records
// the eight waves below would not reach the first.
func TestSnapshotCadenceCountsTasks(t *testing.T) {
	const every, waves = 1024, 8
	d, c, _ := startSystem(t, dispatch.Options{JournalDir: t.TempDir(), SnapshotEvery: every}, client.Options{BundleSize: 64}, 1, executor.Options{})
	snapshots := func() int64 { return d.Metrics().Snapshot().Counters["falkon_wal_snapshots_total"] }
	var gen task.IDGen
	for wave := int64(1); wave <= waves; wave++ {
		if err := c.Submit(task.Batch(&gen, every/2, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitN(every/2, time.Minute); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the wave's snapshot", func() bool { return snapshots() >= wave })
		if got := snapshots(); got != wave {
			t.Fatalf("%d snapshots after %d waves of %d tasks at SnapshotEvery %d, want one per wave", got, wave, every/2, every)
		}
	}
	if appends := d.Stats().JournalAppends; appends >= every {
		t.Fatalf("%d records journaled: too many for this test to tell records from tasks", appends)
	}
}

// The dispatch record earns its place: it is what carries a task's attempt
// count across a crash. A task allowed one retry is granted, the dispatcher
// dies, the recovered dispatcher grants it again and that executor is lost —
// which makes two attempts, so it is finalized "retries exhausted". Without
// the record the recovered dispatcher would count one and run it a third time.
func TestAttemptsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	d1 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cli, err := wsrpcDial(d1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var inst fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{}, &inst); err != nil {
		t.Fatal(err)
	}
	var gen task.IDGen
	tasks := task.Batch(&gen, 1, 0)
	tasks[0].MaxRetries = 1
	if err := cli.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: inst.EPR, Tasks: tasks}, nil); err != nil {
		t.Fatal(err)
	}
	pull := func(x *rawExec) {
		t.Helper()
		var work fproto.GetWorkReply
		if err := x.cli.Call(fproto.MethodGetWork, fproto.GetWorkRequest{ExecutorID: x.id, Max: 1}, &work); err != nil {
			t.Fatal(err)
		}
		if len(work.Assignments) != 1 || work.Assignments[0].Task.ID != tasks[0].ID {
			t.Fatalf("executor %s was granted %+v, want the task", x.id, work.Assignments)
		}
	}
	pull(dialRawExec(t, d1.Addr(), "first", 1, false))
	// The dispatch record is appended without a durability wait. A second
	// instance's creation does wait, and goes through the same appender
	// behind it: once it returns, the grant is in the journal's file.
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{}, nil); err != nil {
		t.Fatal(err)
	}
	d1.Abort()

	d2 := dispatch.New(dispatch.Options{JournalDir: dir, Logf: t.Logf})
	if err := d2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if st := d2.Stats(); st.Queued != 1 || st.Dispatched != 1 {
		t.Fatalf("recovered %d queued tasks and %d dispatches, want 1 and 1", st.Queued, st.Dispatched)
	}
	second := dialRawExec(t, d2.Addr(), "second", 1, false)
	pull(second)
	second.cli.Close() // lost with the task's second attempt

	// The client reattaches; the result, buffered or not yet finalized, is
	// pushed to it.
	cli2 := dialSink(t, d2.Addr())
	defer cli2.Close()
	if err := cli2.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{EPR: inst.EPR}, nil); err != nil {
		t.Fatal(err)
	}
	got := cli2.await(t, 1, 3*time.Second, func(int) string {
		st := d2.Stats()
		return fmt.Sprintf("no result after the second attempt was lost (queued %d, retried %d): the task is waiting to run a third time", st.Queued, st.Retried)
	})
	if r := got[0]; len(got) != 1 || !r.Failed() || !strings.HasPrefix(r.Err, "retries exhausted") || r.Attempts != 2 {
		t.Fatalf("result %+v, want retries exhausted after 2 attempts", r)
	}
}
