package task

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"falkon/internal/jsonwire"
)

// raceBuild is whether the race detector is on (race_test.go): it weighs
// the heap, so a budget on retained bytes is read only without it.
var raceBuild bool

// smallBundlePinCeiling is what one held task of a run of one-task bundles may
// keep alive: one chunk of heads and one of bytes (Scratch), 4,096 bytes
// each. A run of tasks of one 16-byte argument reads 8,026 to 8,030 at -cpu
// 1, 2 and 4: each held task has a heads chunk of its own, and ~96 of the 100
// a bytes chunk of their own too (the test holds every chunkHeads-th, 85, and
// a bytes chunk holds ~89 of these tasks), so the reading sits by design just
// under the ceiling. The same loop holding nothing reads under 40 B a task.
// While every bundle was a slice and a string of exactly their size it read
// −268 to −262: a held task's own ~112 bytes are under what the heap between
// the two readings moves by.
const smallBundlePinCeiling = 8192

// A run of small bundles read through one Scratch is carved from its chunks,
// and a task that outlives the rest keeps at most one chunk of each kind
// alive. Every chunkHeads-th task of 100 chunks' worth of one-task bundles is
// held, so that each held task has a heads chunk of its own, and each must
// still be the bytes it was sent as once every later bundle has been carved
// (under -race too); without the race detector the heap they keep is held
// to smallBundlePinCeiling.
func TestSmallBundlesPinAtMostAChunk(t *testing.T) {
	const every = chunkHeads
	const bundles = 100 * every
	sent := func(dst []byte, i int) []byte {
		return (&Task{ID: ID(i + 1), Command: "sleep", Args: []string{fmt.Sprintf("%016x", i)}}).AppendJSON(dst)
	}
	held := make([][]Relayed, 0, bundles/every)
	body := make([]byte, 0, 256)
	var s Scratch
	var r jsonwire.Reader
	// Twice: what a sync.Pool holds survives one collection in its victim
	// cache. The testing package's matcher for an unanchored -run pattern is
	// ~36 KB of such a pool (regexp's backtracker); read at the first
	// collection and gone by the last, it took ~370 B off each held task.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range bundles {
		body = append(sent(append(body[:0], '['), i), ']')
		r.Reset(body)
		r.Expect(`[`)
		got := ReadRelayed(&r, &s)
		if !r.OK() || len(got) != 1 {
			t.Fatalf("bundle %d read as %d tasks", i, len(got))
		}
		if cap(got) != 1 {
			t.Fatalf("bundle %d has room for %d tasks: appending to it would write the next bundle's", i, cap(got))
		}
		if i%every == every-1 {
			held = append(held, got)
		}
	}
	s = Scratch{}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(held))
	for k, got := range held {
		i := k*every + every - 1
		want := sent(nil, i)
		if g := got[0].AppendJSON(nil); !bytes.Equal(g, want) || got[0].ID != ID(i+1) || got[0].Trace != 0 || got[0].Dataset() != "" {
			t.Fatalf("task %d of %d is %+v, relayed as %s; sent as %s", i+1, bundles, got[0], g, want)
		}
	}
	runtime.KeepAlive(held)
	if raceBuild {
		return
	}
	t.Logf("budget: %s heap bytes per held task %.0f <= %d", t.Name(), per, smallBundlePinCeiling)
	if per > smallBundlePinCeiling {
		t.Errorf("each held task of a run of one-task bundles keeps %.0f B, want at most %d: a chunk of each kind", per, smallBundlePinCeiling)
	}
}
