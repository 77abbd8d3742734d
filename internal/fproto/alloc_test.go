package fproto

import (
	"reflect"
	"testing"

	"falkon/internal/task"
)

// A dispatcher reads a submit's tasks through scratch the connection it came
// in on keeps (task.Scratch, held the way dispatch.handleSubmit holds it).
// Once that scratch has served a bundle as large as any this repository
// sends, 4,096 tasks, every bundle after it past a small bundle's size,
// larger than the 1,024 a fresh scratch is presized to or not, is read in the
// bundle's two objects, and a run of one-task bundles in two objects per 63.
// Nothing drops it between bundles, so this holds under -race too (task's
// TestScratchKeepsUnderTheBufferRule has what does drop it).
func TestDecodeInternedKeepsItsScratch(t *testing.T) {
	var scratch task.Scratch
	var bundle Bundle
	decode := func(req SubmitRequest) float64 {
		body := req.AppendJSON(nil)
		known := func([]byte) string { return req.EPR }
		before := CodecFallbacks.Value()
		allocs := testing.AllocsPerRun(20, func() { _ = bundle.DecodeInterned(body, known, &scratch) })
		if CodecFallbacks.Value() != before {
			t.Fatalf("a %d-task Bundle took the fallback", len(req.Tasks))
		}
		if relayed := (SubmitRequest{EPR: bundle.EPR, Tasks: relayedTasks(bundle.Tasks)}); !reflect.DeepEqual(relayed, req) {
			t.Fatalf("%d tasks relayed as %+v", len(req.Tasks), relayed)
		}
		return allocs
	}
	decode(bundleOf(4096))
	for _, n := range []int{4096, 64, 2048, 4096} {
		if allocs := decode(bundleOf(n)); allocs != 2 {
			t.Errorf("DecodeInterned of a %d-task Bundle after a 4,096-task one allocates %.0f times, want 2", n, allocs)
		}
	}
	oneTaskRun(t, &scratch)
	if allocs := decode(bundleOf(4096)); allocs != 2 {
		t.Errorf("DecodeInterned of a 4,096-task Bundle after one-task ones allocates %.0f times, want 2", allocs)
	}
}

// oneTaskRun decodes 630 one-task submits through s — ten full chunks of
// heads — after as many more have brought its chunks to their full size, and
// requires them to make at most two objects per 63 (task.Scratch: a small
// bundle is carved from the scratch's chunks), and each to relay as sent.
func oneTaskRun(t *testing.T, s *task.Scratch) {
	t.Helper()
	req := bundleOf(1)
	body := req.AppendJSON(nil)
	known := func([]byte) string { return req.EPR }
	var bundle Bundle
	before := CodecFallbacks.Value()
	allocs := testing.AllocsPerRun(1, func() {
		for range 10 * 63 {
			_ = bundle.DecodeInterned(body, known, s)
		}
	})
	if allocs > 2*10 || CodecFallbacks.Value() != before {
		t.Errorf("630 DecodeInterned of a 1-task Bundle through one scratch allocate %.0f times, want at most 20", allocs)
	}
	if relayed := (SubmitRequest{EPR: bundle.EPR, Tasks: relayedTasks(bundle.Tasks)}); !reflect.DeepEqual(relayed, req) {
		t.Fatalf("a 1-task bundle relayed as %+v", relayed)
	}
}
