package data

import (
	"sync"
	"time"

	"falkon/internal/task"
)

// Throttle prices staging for LIVE executors against a shared bandwidth
// pool: concurrent stagings divide the tier's aggregate bandwidth, so a
// 128-executor read storm on the shared tier really does slow each task
// down, as in the paper's §4.2 measurements. Plug Cost into
// executor.Options.DataCost (or core.Config.DataCost); it is safe for
// concurrent use across executors in one process.
type Throttle struct {
	// Scale compresses staging durations like the executor's SleepScale
	// (default 1.0).
	Scale float64

	mu       sync.Mutex
	inflight map[string]int // location -> active stagings
}

// NewThrottle returns a throttle with the given time compression.
func NewThrottle(scale float64) *Throttle {
	if scale <= 0 {
		scale = 1.0
	}
	return &Throttle{Scale: scale, inflight: make(map[string]int)}
}

// Cost returns the staging duration for io under current contention. The
// reservation is held for the returned (scaled) duration.
func (t *Throttle) Cost(io task.IOSpec) time.Duration {
	size := io.ReadBytes + io.WriteBytes
	if size <= 0 {
		return 0
	}
	prof, err := ForTask(io.Location, io.WriteBytes > 0)
	if err != nil {
		prof = GPFSRead
	}
	t.mu.Lock()
	t.inflight[io.Location]++
	n := t.inflight[io.Location]
	t.mu.Unlock()

	d := prof.StageTime(size, n)
	scaled := time.Duration(float64(d) * t.Scale)
	// Release the reservation when the staging finishes.
	time.AfterFunc(scaled, func() {
		t.mu.Lock()
		if t.inflight[io.Location] > 0 {
			t.inflight[io.Location]--
		}
		t.mu.Unlock()
	})
	return scaled
}
