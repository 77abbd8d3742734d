//go:build !race

package fproto

import (
	"reflect"
	"testing"
)

// The scratch a dispatcher reads a submit's tasks into is kept for bundles as
// large as any this repository sends, 4,096 tasks, so that a dispatcher reads
// one in the bundle's two objects too, past the 1,024 a fresh scratch is
// presized to. (Not under -race, where sync.Pool drops some of what is put
// back.)
func TestDecodeInternedKeepsItsScratch(t *testing.T) {
	req := bundleOf(4096)
	body := req.AppendJSON(nil)
	known := func([]byte) string { return req.EPR }
	var bundle Bundle
	before := CodecFallbacks.Value()
	if allocs := testing.AllocsPerRun(20, func() { _ = bundle.DecodeInterned(body, known) }); allocs != 2 || CodecFallbacks.Value() != before {
		t.Errorf("DecodeInterned of a 4,096-task Bundle allocates %.0f times, want 2", allocs)
	}
	if relayed := (SubmitRequest{EPR: bundle.EPR, Tasks: relayedTasks(bundle.Tasks)}); !reflect.DeepEqual(relayed, req) {
		t.Fatalf("4,096 tasks relayed as %+v", relayed)
	}
}
