//go:build !race

package obs

import (
	"runtime"
	"testing"
	"time"

	"falkon/internal/task"
)

// restTracers is how many full tracers the at-rest test averages over.
const restTracers = 8

// What a full default tracer holds: its ring of 8,192 32-byte records and a
// string table of a few entries. Measured at 262,500–262,700 bytes; with the
// ring as 72-byte events holding two strings each it was 589,900.
const tracerBytesCeiling = 8192*32 + 4<<10

// TestTracerBytesAtRest fills NewTracer(0)s with events naming four EPRs and
// two executors, as a dispatcher's ring names its clients and executors, and
// weighs them: the live heap after a collection, less the heap before, ÷ the
// number of tracers.
func TestTracerBytesAtRest(t *testing.T) {
	evs := make([]Event, 16)
	eprs, execs := []string{"falkon-instance-1", "falkon-instance-2", "falkon-instance-3", "falkon-instance-4"}, []string{"exec-0", "exec-1"}
	trs := make([]*Tracer, restTracers)
	base := liveHeap()
	for i := range trs {
		trs[i] = NewTracer(0)
		for seq := 0; seq < 8192; seq += len(evs) {
			for j := range evs {
				evs[j] = Event{At: time.Duration(seq + j), Kind: EvDelivered, Trace: uint64(seq), Task: task.ID(seq + j), EPR: eprs[(seq/16)%4], Executor: execs[j%2]}
			}
			trs[i].RecordAll(evs)
		}
	}
	per := float64(int64(liveHeap())-int64(base)) / restTracers
	runtime.KeepAlive(trs)
	// The ring's array is the ceiling's fixed part, so the census
	// (scripts/flakes.sh) reads what is beyond it against the 4 KiB the
	// ceiling leaves: a reading near that is a table or ring that grew.
	t.Logf("budget: %s bytes per full tracer beyond its records %.0f <= %d", t.Name(), per-8192*32, tracerBytesCeiling-8192*32)
	if per > tracerBytesCeiling {
		t.Errorf("a full tracer holds %.0f bytes, budget %d", per, tracerBytesCeiling)
	}
}

// liveHeap is the heap in use once a collection has run.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
