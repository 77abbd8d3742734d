package data

import (
	"sync"
	"testing"
	"time"

	"falkon/internal/task"
)

func TestThrottleZeroSizeFree(t *testing.T) {
	th := NewThrottle(1)
	if got := th.Cost(task.IOSpec{}); got != 0 {
		t.Fatalf("cost = %v", got)
	}
}

func TestThrottleContentionSlowsStaging(t *testing.T) {
	th := NewThrottle(1)
	io := task.IOSpec{ReadBytes: 10 << 20, Location: "shared"}
	solo := th.Cost(io)  // inflight becomes 1
	crowd := th.Cost(io) // inflight 2: slower
	if crowd <= solo {
		t.Fatalf("second staging (%v) not slower than first (%v)", crowd, solo)
	}
	if inflight(th, "shared") != 2 {
		t.Fatalf("inflight = %d", inflight(th, "shared"))
	}
}

func TestThrottleReleasesReservations(t *testing.T) {
	th := NewThrottle(0.000001) // compress to microseconds
	io := task.IOSpec{ReadBytes: 1 << 20, Location: "local"}
	th.Cost(io)
	deadline := time.Now().Add(5 * time.Second)
	for inflight(th, "local") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reservation never released: %d", inflight(th, "local"))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestThrottleConcurrentSafety(t *testing.T) {
	th := NewThrottle(0.000001)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				th.Cost(task.IOSpec{ReadBytes: 1 << 10, Location: "shared"})
			}
		}()
	}
	wg.Wait()
}

func TestThrottleUnknownLocationFallsBack(t *testing.T) {
	th := NewThrottle(1)
	if got := th.Cost(task.IOSpec{ReadBytes: 1 << 20, Location: "tape"}); got <= 0 {
		t.Fatalf("fallback cost = %v", got)
	}
}

// inflight reads the stagings th holds on a location.
func inflight(th *Throttle, location string) int {
	th.mu.Lock()
	defer th.mu.Unlock()
	return th.inflight[location]
}
