package wal

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// RecoveryInfo summarizes what Recover rebuilt, for logs and stats.
type RecoveryInfo struct {
	// SnapshotIndex is the boundary of the snapshot that seeded recovery
	// (0 when recovery started from an empty state).
	SnapshotIndex uint64
	// Segments is how many journal segments were replayed.
	Segments int
	// Records is how many valid records the tail replay folded in.
	Records int
	// Pending and Results count recovered work: tasks to re-queue and
	// finalized results awaiting redelivery.
	Pending int
	Results int
}

// Recover rebuilds dispatcher state from dir and opens a journal appending
// after everything on disk. It loads the newest readable snapshot, replays
// every segment at or above its boundary in ascending order, and stops each
// segment's replay at the first torn or corrupt record. An empty or missing
// directory yields a fresh empty state.
func Recover(dir string, opts Options) (*State, *Journal, RecoveryInfo, error) {
	var info RecoveryInfo
	r := newReplayer()
	fsys := opts.FS
	if fsys == nil {
		fsys = OS
	}

	segs, err := sortedIndexed(fsys, dir, "seg-", ".wal")
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, info, fmt.Errorf("wal: recover: %w", err)
	}
	snaps, _ := sortedIndexed(fsys, dir, "snap-", ".snap")

	// Newest readable snapshot wins; a corrupt snapshot falls back to the
	// next older one (its segments are only pruned after a newer snapshot
	// is durable, so the fallback chain is intact).
	var base uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		st, ok := readSnapshot(fsys, filepath.Join(dir, snapName(snaps[i])))
		if ok {
			r.load(st)
			base = snaps[i]
			info.SnapshotIndex = snaps[i]
			break
		}
		if opts.Logf != nil {
			opts.Logf("wal: snapshot %d unreadable, falling back", snaps[i])
		}
	}

	next := base
	for _, idx := range segs {
		if idx < base {
			continue // covered by the snapshot
		}
		n, err := replaySegment(fsys, filepath.Join(dir, segName(idx)), r)
		if err != nil {
			return nil, nil, info, err
		}
		info.Segments++
		info.Records += n
		if idx >= next {
			next = idx + 1
		}
	}
	if len(segs) == 0 && base == 0 {
		next = 1 // fresh directory: start at segment 1
	} else if next == base {
		next = base + 1 // snapshot exists but its segments are gone
	}

	st := r.state()
	info.Pending = len(st.Pending)
	for _, in := range st.Instances {
		info.Results += len(in.Results)
	}

	j, err := open(dir, next, opts)
	if err != nil {
		return nil, nil, info, err
	}
	opts.Metrics.Counter("falkon_wal_replayed_records_total").Add(int64(info.Records))
	return st, j, info, nil
}

// readSnapshot decodes one snapshot file. ok=false on any damage: snapshot
// reads follow the same rule as segment replay — prove it or skip it.
func readSnapshot(fsys FS, path string) (*State, bool) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return nil, false
	}
	frame, _, ok := splitFrame(buf, math.MaxUint32)
	if !ok || Kind(frame[headerSize]) != KindSnapshot {
		return nil, false
	}
	var st State
	if st.UnmarshalJSON(frame[headerSize+1:]) != nil {
		return nil, false
	}
	return &st, true
}

// replaySegment folds one segment's valid prefix into r and reports how
// many records it held.
func replaySegment(fsys FS, path string, r *replayer) (int, error) {
	buf, err := fsys.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: recover: %w", err)
	}
	n := 0
	for {
		rec, rest, ok := nextRecord(buf)
		if !ok {
			return n, nil // clean end, torn tail, or corruption: stop here
		}
		r.apply(rec)
		buf = rest
		n++
	}
}
