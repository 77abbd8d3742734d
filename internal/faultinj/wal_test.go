package faultinj

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"falkon/internal/task"
	"falkon/internal/wal"
)

// TestWALSurvivesDiskFaults drives a journal through a fault-injecting FS
// across several seeds and checks the durability contract holds under
// disk failure: every append acknowledged before the first sticky error
// is recoverable, and OnError fires exactly once. Segments are small, so
// commits switch segments by size, and every third accept is acknowledged
// by an explicit Rotate instead of its handle: the faults land on the flushes
// that switch segments too.
func TestWALSurvivesDiskFaults(t *testing.T) {
	const epr = "falkon-instance-1"
	const seeds = 32
	rotations, segments := 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		dir := filepath.Join(t.TempDir(), "wal")
		inj := New(Spec{Seed: seed, FsyncErrP: 0.2, TornWriteP: 0.1, ENOSPCP: 0.05}, nil, nil)

		var errFires atomic.Int32
		_, j, _, err := wal.Recover(dir, wal.Options{
			FS:           inj.FS(wal.OS),
			SegmentBytes: 128,
			OnError:      func(error) { errFires.Add(1) },
		})
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}

		acked := 0
		h, err := j.AppendWait(wal.KindInstance, wal.InstanceRec{EPR: epr})
		if err == nil {
			err = h.Wait()
		}
		if err == nil {
			for i := 1; i <= 50; i++ {
				rec := wal.AcceptRec{EPR: epr, Tasks: []task.Task{{ID: task.ID(i)}}}
				if i%3 == 0 {
					// Rotate returns once every record appended before it is
					// in a segment below the one it opens: written, and in
					// group mode fsynced, by Rotate's flush or the committer's.
					if err = j.Append(wal.KindAccept, rec); err == nil {
						if _, err = j.Rotate(); err == nil {
							rotations++
						}
					}
				} else {
					var h wal.Handle
					if h, err = j.AppendWait(wal.KindAccept, rec); err == nil {
						err = h.Wait()
					}
				}
				if err != nil {
					break // first sticky error: everything after is refused
				}
				acked++
			}
		}
		j.Close()

		if n := errFires.Load(); n > 1 {
			t.Fatalf("seed %d: OnError fired %d times, want at most once", seed, n)
		}
		if acked < 50 && errFires.Load() == 0 {
			t.Fatalf("seed %d: journal erred after %d acks but OnError never fired", seed, acked)
		}

		// Recovery must replay at least every acknowledged accept — reads
		// go through the plain OS here, as a restarted daemon's would.
		st, j2, info, err := wal.Recover(dir, wal.Options{})
		if err != nil {
			t.Fatalf("seed %d: re-recover: %v", seed, err)
		}
		j2.Abort()
		if len(st.Pending) < acked {
			t.Fatalf("seed %d: recovered %d pending tasks, acked %d accepts", seed, len(st.Pending), acked)
		}
		segments += info.Segments
	}
	// Each seed's journal starts in one segment; every segment beyond those
	// and the explicit rotations was switched to by size.
	if rotations == 0 || segments <= seeds+rotations {
		t.Fatalf("%d explicit rotations, %d segments over %d seeds: the faults never met both kinds of segment switch", rotations, segments, seeds)
	}
}
