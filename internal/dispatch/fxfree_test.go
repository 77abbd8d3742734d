package dispatch

import (
	"runtime"
	"testing"

	"falkon/internal/fproto"
)

// The handlers' scratch is kept for every handler that was in flight at once
// (DESIGN.md §9, "Scratch"): once 64 handlers, a leaf's 64 executors each
// delivering, have given their fx back, the next 64 are served from the free
// list with the arrays they had grown, a collection in between or not. A list
// capped below the load's peak would make the ones past its cap afresh, and
// grow their arrays again, on every burst.
func TestFreeListKeepsEveryHandlerInFlight(t *testing.T) {
	const inFlight = 64
	var l fxFree
	kept := make(map[*fx]bool, inFlight)
	out := make([]*fx, inFlight)
	for i := range out {
		out[i] = l.get()
		out[i].grant = append(out[i].grant, make([]fproto.Relay, 64)...)
		kept[out[i]] = true
	}
	for _, f := range out {
		f.release()
	}
	runtime.GC()
	for i := range inFlight {
		f := l.get()
		if !kept[f] {
			t.Fatalf("handler %d of %d in flight was given a new fx: the free list kept %d", i+1, inFlight, i)
		}
		if cap(f.grant) < 64 {
			t.Fatalf("a kept fx came back with a grant array of %d, want the 64 it grew", cap(f.grant))
		}
		delete(kept, f)
	}
}
