package task

import (
	"runtime"
	"testing"
	"unsafe"

	"falkon/internal/jsonwire"
)

// headsSink keeps the bundles' heads TestRelayedHeadFitsItsSizeClass makes on
// the heap.
var headsSink []Relayed

// A dispatcher's head of a task is 48 bytes, so that a 64-task bundle's heads
// and their 8-byte malloc header fill the 3,200-byte size class, not the
// 4,864-byte one 64-byte heads took; and the retry bound it no longer holds
// is read from Rest with no allocation.
func TestRelayedHeadFitsItsSizeClass(t *testing.T) {
	const bundle, class = 64, 3200
	if size := unsafe.Sizeof(Relayed{}); size != 48 {
		t.Fatalf("task.Relayed is %d bytes, want 48", size)
	}
	if need := bundle*int(unsafe.Sizeof(Relayed{})) + 8; need > class {
		t.Fatalf("a %d-task bundle's heads need %d bytes, over the %d-byte size class", bundle, need, class)
	}
	if !raceBuild {
		// What the heap is charged: the size class, read rather than assumed.
		const n = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			headsSink = make([]Relayed, bundle)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per > class+64 {
			t.Errorf("a %d-task bundle's heads are charged %d bytes, want the %d-byte size class", bundle, per, class)
		}
	}
	var r jsonwire.Reader
	r.Reset([]byte(`[{"id":1,"command":"sleep","args":["0"],"io":{"dataset":"d"},"duration":5,"max_retries":-7,"stage":2,"trace":9}]`))
	r.Expect(`[`)
	got := ReadRelayed(&r, new(Scratch))
	if !r.OK() || len(got) != 1 || got[0].MaxRetries() != -7 || got[0].Dataset() != "d" {
		t.Fatalf("read %+v (reader ok %v)", got, r.OK())
	}
	if allocs := testing.AllocsPerRun(100, func() { got[0].MaxRetries() }); allocs != 0 {
		t.Errorf("MaxRetries allocates %.0f objects, want 0", allocs)
	}
}
