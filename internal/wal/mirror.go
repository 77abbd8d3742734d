package wal

import (
	"fmt"
	"path/filepath"
	"sync"
)

// MirrorOptions configures a standby's mirror journal.
type MirrorOptions struct {
	// Sync selects the fsync policy for mirrored appends (default group:
	// every appended batch is fsynced before the append returns, so the
	// standby's ack — sent after Append returns — always means durable).
	Sync SyncPolicy
	// SegmentBytes rotates mirror segments past this size (default 16 MiB).
	SegmentBytes int64
	// FS is the filesystem the mirror writes through (default the real OS).
	FS FS
	// Logf receives mirror logs; nil silences them.
	Logf func(format string, args ...any)
}

// Mirror is the standby side of WAL replication: a directory of segments
// and snapshots laid out exactly like a leader's journal dir, fed by
// streamed frames instead of local appends. A promoted standby runs the
// ordinary Recover over the mirror directory — the mirror's only job is to
// keep the directory recoverable at every instant.
//
// Reset installs a new baseline snapshot (the leader's consistent cut) and
// Append extends the stream behind it. Both keep the snapshot-boundary
// invariant Recover relies on: the baseline snapshot is written at an index
// above every pre-existing file *before* anything older is pruned, so a
// crash mid-reset still recovers — to either the old state or the new one,
// never to a mix.
type Mirror struct {
	dir  string
	fs   FS
	opts MirrorOptions

	mu       sync.Mutex
	seg      File
	segIndex uint64
	segSize  int64
	pos      int64 // records appended since the baseline (term-scoped position)
	closed   bool
}

// OpenMirror opens (or creates) a mirror journal directory. The mirror
// starts without a segment: the first Reset installs the baseline and opens
// one. Appending before a Reset is an error — a standby always attaches
// before it streams.
func OpenMirror(dir string, opts MirrorOptions) (*Mirror, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mirror: %w", err)
	}
	return &Mirror{dir: dir, fs: opts.FS, opts: opts}, nil
}

func (m *Mirror) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// Reset installs st as the mirror's new baseline at stream position pos:
// the leader's state as of the attach cut, with every subsequent streamed
// record applying on top. Ordering is crash-safe: the new snapshot lands at
// an index above every existing file and only then are the old files
// pruned, so Recover always finds either the old journal or the complete
// new baseline.
func (m *Mirror) Reset(st *State, pos int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("wal: mirror closed")
	}
	// Choose a boundary above everything on disk (and above the segment we
	// may currently have open).
	var max uint64
	if segs, err := sortedIndexed(m.fs, m.dir, "seg-", ".wal"); err == nil && len(segs) > 0 {
		max = segs[len(segs)-1]
	}
	if snaps, err := sortedIndexed(m.fs, m.dir, "snap-", ".snap"); err == nil && len(snaps) > 0 && snaps[len(snaps)-1] > max {
		max = snaps[len(snaps)-1]
	}
	if m.segIndex > max {
		max = m.segIndex
	}
	boundary := max + 1

	if err := installSnapshot(m.fs, m.dir, m.opts.Sync, boundary, st); err != nil {
		return fmt.Errorf("wal: mirror: %w", err)
	}
	// The new baseline is durable: retire the old segment and prune
	// everything it superseded.
	if m.seg != nil {
		m.seg.Close()
		m.seg = nil
	}
	prune(m.fs, m.dir, boundary)
	seg, err := m.fs.Create(filepath.Join(m.dir, segName(boundary)), true)
	if err != nil {
		return fmt.Errorf("wal: mirror segment: %w", err)
	}
	m.seg, m.segIndex, m.segSize = seg, boundary, 0
	m.pos = pos
	m.logf("wal: mirror baseline at snap-%08d, stream pos %d", boundary, pos)
	return nil
}

// Append writes one streamed batch of framed records (already CRC-framed by
// the leader) and advances the mirror's stream position by records. Under
// the default group-sync policy the batch is fsynced before Append returns,
// so the position the standby acks afterward is durable.
func (m *Mirror) Append(frames []byte, records int) error {
	if len(frames) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("wal: mirror closed")
	}
	if m.seg == nil {
		return fmt.Errorf("wal: mirror append before baseline")
	}
	if _, err := m.seg.Write(frames); err != nil {
		return fmt.Errorf("wal: mirror append: %w", err)
	}
	if m.opts.Sync.Mode == SyncGroup {
		if err := m.seg.Sync(); err != nil {
			return fmt.Errorf("wal: mirror sync: %w", err)
		}
	}
	m.segSize += int64(len(frames))
	m.pos += int64(records)
	if m.segSize >= m.opts.SegmentBytes {
		// Roll to the next segment without a snapshot: Recover replays every
		// segment at or above the baseline boundary in index order, so a
		// multi-segment tail is fine.
		next := m.segIndex + 1
		seg, err := m.fs.Create(filepath.Join(m.dir, segName(next)), true)
		if err != nil {
			return fmt.Errorf("wal: mirror rotate: %w", err)
		}
		m.seg.Close()
		m.seg, m.segIndex, m.segSize = seg, next, 0
	}
	return nil
}

// Pos reports the mirror's stream position: the count of records applied on
// top of the baseline. This is the position the standby acks to the leader.
func (m *Mirror) Pos() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pos
}

// Close seals the mirror. The directory stays recoverable.
func (m *Mirror) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.seg != nil {
		if m.opts.Sync.Mode != SyncOff {
			m.seg.Sync()
		}
		err := m.seg.Close()
		m.seg = nil
		return err
	}
	return nil
}
