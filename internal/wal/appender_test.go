package wal

// Per-shard appender tests: concurrent appenders feed one group-commit
// committer, and recovery must see every task's records in per-task order
// (accept before dispatch before complete) no matter how the committer
// interleaved the appender buffers.

import (
	"fmt"
	"sync"
	"testing"

	"falkon/internal/task"
)

func TestShardedAppendersRecoverExactly(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())

	const shards, perShard = 4, 25
	epr := "falkon-instance-1"
	// Control record through the default appender (the dispatcher's
	// create-instance path) while task records race on shard appenders.
	if h, err := j.AppendWait(KindInstance, InstanceRec{EPR: epr}); err != nil {
		t.Fatal(err)
	} else if err := h.Wait(); err != nil {
		t.Fatal(err)
	}

	apps := j.Appenders(shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			a := apps[s]
			for i := 0; i < perShard; i++ {
				id := task.ID(s*1000 + i + 1)
				h, err := a.AppendWait(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: id}}})
				if err != nil {
					t.Errorf("shard %d accept: %v", s, err)
					return
				}
				if err := h.Wait(); err != nil {
					t.Errorf("shard %d accept wait: %v", s, err)
					return
				}
				a.Append(KindDispatch, DispatchRec{EPR: epr, ID: id, Exec: fmt.Sprintf("x%d", s)})
				if i%2 == 0 {
					a.Append(KindComplete, CompleteRec{EPR: epr, Result: task.Result{ID: id}})
				}
			}
		}(s)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	if len(st.Instances) != 1 {
		t.Fatalf("instances = %d, want 1 (control record lost among shard appends)", len(st.Instances))
	}
	// Even-indexed tasks completed; odd-indexed were dispatched and remain
	// pending with one attempt on the clock.
	wantDone := shards * ((perShard + 1) / 2)
	wantPending := shards*perShard - wantDone
	if got := len(st.Instances[0].Results); got != wantDone {
		t.Fatalf("recovered %d results, want %d", got, wantDone)
	}
	if got := len(st.Pending); got != wantPending {
		t.Fatalf("recovered %d pending, want %d", got, wantPending)
	}
	for _, p := range st.Pending {
		if p.Attempts != 1 {
			t.Fatalf("pending task %d has %d attempts, want 1 (dispatch record lost or reordered)", p.Task.ID, p.Attempts)
		}
	}
	if st.Counters.Submitted != int64(shards*perShard) || st.Counters.Completed != int64(wantDone) {
		t.Fatalf("counters = %+v", st.Counters)
	}
}

// TestAppenderFIFOWithinShard pins the per-appender ordering contract the
// dispatcher's accept<dispatch<complete sequencing relies on: records pushed
// through one appender replay in push order even when other appenders commit
// in the same batches.
func TestAppenderFIFOWithinShard(t *testing.T) {
	dir := t.TempDir()
	_, j, _ := mustRecover(t, dir, testOpts())
	apps := j.Appenders(2)
	epr := "falkon-instance-1"
	j.Append(KindInstance, InstanceRec{EPR: epr})

	// Shard 0 runs task 1 through its whole life; shard 1 interleaves
	// appends the committer batches alongside.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			apps[1].Append(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: task.ID(2000 + i)}}})
		}
	}()
	apps[0].Append(KindAccept, AcceptRec{EPR: epr, Tasks: []task.Task{{ID: 1}}})
	apps[0].Append(KindDispatch, DispatchRec{EPR: epr, ID: 1, Exec: "x0"})
	apps[0].Append(KindComplete, CompleteRec{EPR: epr, Result: task.Result{ID: 1, Stdout: "ok"}})
	<-done
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, j2, _ := mustRecover(t, dir, testOpts())
	defer j2.Close()
	rs := st.Instances[0].Results
	if len(rs) != 1 || rs[0].ID != 1 || rs[0].Stdout != "ok" {
		t.Fatalf("task 1 lifecycle did not replay in order: results = %+v", rs)
	}
	if len(st.Pending) != 100 {
		t.Fatalf("pending = %d, want the 100 shard-1 accepts", len(st.Pending))
	}
}
