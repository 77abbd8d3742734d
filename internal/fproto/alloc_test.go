package fproto

import (
	"reflect"
	"testing"

	"falkon/internal/task"
)

// A dispatcher reads a submit's tasks through scratch the connection it came
// in on keeps (task.Scratch, held the way dispatch.handleSubmit holds it).
// Once that scratch has served a bundle as large as any this repository
// sends, 4,096 tasks, every bundle after it, larger than the 1,024 a fresh
// scratch is presized to or not, is read in the bundle's two objects. Nothing
// drops it between bundles, so this holds under -race too (task's
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
	for _, n := range []int{4096, 1, 64, 2048, 4096} {
		if allocs := decode(bundleOf(n)); allocs != 2 {
			t.Errorf("DecodeInterned of a %d-task Bundle after a 4,096-task one allocates %.0f times, want 2", n, allocs)
		}
	}
}
