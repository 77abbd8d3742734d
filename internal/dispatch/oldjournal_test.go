package dispatch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"falkon/internal/wal"
)

// TestRecoversJournalWrittenWithShards recovers testdata/journal-shards4, a
// journal written by the falkon-dispatcher binary of commit d2d2f3d run with
// -shards 4 and killed mid-workload (24 sleep tasks, 9 finished, 3 of the rest
// dispatched; its accept, dispatch and complete records carry "shard":1..3),
// and requires what that commit's own dispatcher held after recovering it
// (journal-shards4.recovered.json): the same pending tasks with the same
// attempt counts, the same buffered results, the same counters.
func TestRecoversJournalWrittenWithShards(t *testing.T) {
	dir := t.TempDir()
	seg, err := os.ReadFile("testdata/journal-shards4/seg-00000001.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var want wal.State
	b, err := os.ReadFile("testdata/journal-shards4.recovered.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}

	d := New(Options{JournalDir: dir, Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.imu.Lock()
	d.mu.Lock()
	got, buffered := d.captureLocked()
	d.mu.Unlock()
	d.imu.Unlock()
	decodeBuffered(got, buffered)

	byID := func(p []wal.Pending) {
		sort.Slice(p, func(i, j int) bool { return p[i].Task.ID < p[j].Task.ID })
	}
	byID(got.Pending)
	byID(want.Pending)
	if len(want.Pending) != 15 || len(want.Instances) != 1 || len(want.Instances[0].Results) != 9 {
		t.Fatalf("testdata holds %d pending tasks and %d instances, want 15 and 1 with 9 results", len(want.Pending), len(want.Instances))
	}
	if !reflect.DeepEqual(got, &want) {
		gb, _ := json.MarshalIndent(got, "", "  ")
		t.Fatalf("recovered state differs from what the writing commit recovered; got\n%s", gb)
	}
	if st := d.Stats(); st.Queued != 15 || st.RecoveredTasks != 15 {
		t.Fatalf("queued %d, recovered %d, want 15 and 15", st.Queued, st.RecoveredTasks)
	}
}
