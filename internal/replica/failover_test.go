package replica_test

// In-process HA acceptance tests: a leader dispatcher streams its journal
// to a standby mirror, the leader is killed (Abort models kill -9), and the
// standby's mirror is promoted into a new dispatcher that must hold the
// same live set and finish the workload exactly once.

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/replica"
	"falkon/internal/task"
	"falkon/internal/wal"
)

// startLeader boots a journaling dispatcher with replication enabled.
func startLeader(t *testing.T, dir, addr string, term uint64) *dispatch.Dispatcher {
	t.Helper()
	d := dispatch.New(dispatch.Options{
		JournalDir:  dir,
		Replication: &dispatch.ReplicationOptions{Term: term, Mode: replica.ModeQuorum},
		Logf:        t.Logf,
	})
	if err := d.Listen(addr); err != nil {
		t.Fatal(err)
	}
	return d
}

// waitStandbyCaughtUp polls until the leader reports exactly one standby
// with zero lag (fully acked), returning the stream end it caught up to.
func waitStandbyCaughtUp(t *testing.T, d *dispatch.Dispatcher) int64 {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		rs := d.Stats().Replication
		if rs != nil && len(rs.Standbys) == 1 && rs.Standbys[0].Lag == 0 {
			return rs.End
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("standby never caught up: %+v", d.Stats().Replication)
	return 0
}

// waitStandbyAttached polls until the leader reports one attached standby.
func waitStandbyAttached(t *testing.T, d *dispatch.Dispatcher) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		rs := d.Stats().Replication
		if rs != nil && len(rs.Standbys) == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("standby never attached")
}

// reserveAddr grabs a free listen address and releases it for reuse. The
// tiny reuse race is acceptable in tests.
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// recoverState replays a journal directory read-only (for comparison).
func recoverState(t *testing.T, dir string) *wal.State {
	t.Helper()
	st, j, _, err := wal.Recover(dir, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	return st
}

// TestStandbyReplaysLeaderLiveSet kills a quorum-replicated leader holding
// a live (queued, undispatched) task set and requires the standby's mirror
// to replay to the exact same state as the leader's own journal.
func TestStandbyReplaysLeaderLiveSet(t *testing.T) {
	ldir, mdir := t.TempDir(), t.TempDir()
	leader := startLeader(t, ldir, "127.0.0.1:0", 1)
	addr := leader.Addr()

	sb, err := replica.StartStandby(replica.StandbyOptions{
		ID:     "sb-1",
		Leader: func() (string, error) { return addr, nil },
		Dir:    mdir,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attach before any state exists so the baseline is empty and both
	// journals carry the identical record sequence.
	waitStandbyAttached(t, leader)

	c, err := client.Connect(client.Options{DispatcherAddr: addr, BundleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// No executor: the whole workload stays live. Quorum mode means Submit
	// returning implies the standby durably mirrored every accept.
	const n = 120
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 0)); err != nil {
		t.Fatal(err)
	}
	end := waitStandbyCaughtUp(t, leader)
	if end == 0 {
		t.Fatal("replication stream carried no records")
	}

	rs := leader.Stats().Replication
	if rs.Role != "leader" || rs.Term != 1 || rs.Mode != "quorum" {
		t.Fatalf("leader replication stats: %+v", rs)
	}
	if ss := sb.Stats(); ss.Role != "standby" || ss.Term != 1 {
		t.Fatalf("standby stats: %+v", ss)
	}

	leader.Abort() // kill -9: no drain, no flush
	sb.Stop()

	got := recoverState(t, mdir)
	want := recoverState(t, ldir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("promoted state diverged from leader state:\n mirror: %+v\n leader: %+v", got, want)
	}
	if len(want.Pending) != n {
		t.Fatalf("leader held %d live tasks at death, want %d", len(want.Pending), n)
	}
}

// TestFailoverToPromotedStandby runs the full failover path on a second
// address: client and executor follow their address chains to a dispatcher
// promoted from the standby's mirror, the client reattaches to its instance
// by EPR (the mirror holds it; no other dispatcher could), and the workload
// finishes exactly once.
func TestFailoverToPromotedStandby(t *testing.T) {
	ldir, mdir := t.TempDir(), t.TempDir()
	leader := startLeader(t, ldir, "127.0.0.1:0", 1)
	addrA := leader.Addr()
	addrB := reserveAddr(t)
	chain := fmt.Sprintf("%s,%s", addrA, addrB)

	sb, err := replica.StartStandby(replica.StandbyOptions{
		ID:     "sb-1",
		Leader: func() (string, error) { return addrA, nil },
		Dir:    mdir,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStandbyAttached(t, leader)

	ex, err := executor.Start(executor.Options{
		ID:               "exec-0",
		DispatcherAddr:   chain,
		SleepScale:       0.001,
		ReconnectTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{DispatcherAddr: chain, BundleSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	eprBefore := c.EPR()

	const n = 200
	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, n, 40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	first, err := c.WaitN(n/4, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the leader mid-workload and promote the standby's mirror on the
	// chain's fallback address at the next term.
	leader.Abort()
	sb.Stop()
	promoted := startLeader(t, mdir, addrB, 2)
	t.Cleanup(func() { promoted.Close() })

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
		t.Fatal("client never failed over")
	}
	if got := c.EPR(); got != eprBefore {
		t.Fatalf("failover abandoned the instance: EPR %q -> %q (the promoted mirror holds it, so the reattach should find it)", eprBefore, got)
	}
	st := promoted.Stats()
	if st.RecoveredTasks == 0 {
		t.Fatal("promoted dispatcher replayed no tasks from the mirror")
	}
	if st.Replication == nil || st.Replication.Term != 2 {
		t.Fatalf("promoted dispatcher replication stats: %+v", st.Replication)
	}
}
