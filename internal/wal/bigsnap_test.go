//go:build !race

package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// A snapshot longer than a segment's record may be — what a dispatcher with
// about half a million tasks queued writes — is read back whole: its file
// bounds it, not maxRecord. (Until they parted, a snapshot past 64 MiB was
// written, found unreadable at recovery, and the segments it had pruned were
// gone.)
func TestSnapshotPastMaxRecordRecovers(t *testing.T) {
	dir := t.TempDir()
	name := bytes.Repeat([]byte("x"), maxRecord)
	body := `{"next_epr":7,"counters":{},"instances":[{"epr":"falkon-instance-7","name":"` + string(name) + `"}]}`
	name = nil
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), appendRaw(nil, KindSnapshot, body), 0o644); err != nil {
		t.Fatal(err)
	}
	body = ""
	st, j, info := mustRecover(t, dir, testOpts())
	defer j.Close()
	if info.SnapshotIndex != 1 || len(st.Instances) != 1 || st.Instances[0].EPR != "falkon-instance-7" || len(st.Instances[0].Name) != maxRecord {
		t.Fatalf("recovered snapshot %d, %d instances; want the 64 MiB snapshot", info.SnapshotIndex, len(st.Instances))
	}
}
