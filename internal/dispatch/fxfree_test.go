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

// A kept fx keeps its records buffer as a connection keeps its read buffer: a
// journaling load whose deliveries each write megabytes of records (64
// results of 32 KiB of output) writes them into the buffer the last one grew,
// and only a buffer over 1 MiB that a handler used under an eighth of is let
// go — the buffer alone, not the fx's other arrays.
func TestReleaseKeepsTheRecordsBufferALoadFills(t *testing.T) {
	var l fxFree
	f := l.get()
	f.grant = append(f.grant, make([]fproto.Relay, 64)...)
	f.enc = append(f.enc, make([]byte, 2<<20)...)
	f.release()
	if f = l.get(); cap(f.enc) < 2<<20 || len(f.enc) != 0 || cap(f.grant) < 64 {
		t.Fatalf("a 2 MiB buffer a handler filled came back with cap %d (len %d), and a grant array of %d", cap(f.enc), len(f.enc), cap(f.grant))
	}
	f.enc = append(f.enc, make([]byte, 100<<10)...)
	f.release()
	if f = l.get(); f.enc != nil || cap(f.grant) < 64 {
		t.Fatalf("a 2 MiB buffer a handler used 100 KiB of came back with cap %d, and a grant array of %d", cap(f.enc), cap(f.grant))
	}
}
