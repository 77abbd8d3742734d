package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimestampOrder(t *testing.T) {
	e := New(1)
	var got []int
	e.At(3*time.Second, func() { got = append(got, 3) })
	e.At(1*time.Second, func() { got = append(got, 1) })
	e.At(2*time.Second, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3*time.Second {
		t.Fatalf("end = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAmongEqualTimestamps(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-timestamp order = %v, want FIFO", got)
		}
	}
}

func TestEngineEventsScheduleMoreEvents(t *testing.T) {
	e := New(1)
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			e.After(time.Second, step)
		}
	}
	e.After(time.Second, step)
	end := e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end != 5*time.Second {
		t.Fatalf("end = %v, want 5s", end)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.At(10*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*time.Second, func() {})
	})
	e.Run()
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New(1)
	fired := 0
	e.At(1*time.Second, func() { fired++ })
	e.At(10*time.Second, func() { fired++ })
	now := e.RunUntil(5 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if now != 5*time.Second {
		t.Fatalf("now = %v, want 5s", now)
	}
	// Resuming runs the remaining event.
	e.Run()
	if fired != 2 {
		t.Fatalf("after resume fired = %d, want 2", fired)
	}
}

func TestTimerStopCancelsEvent(t *testing.T) {
	e := New(1)
	fired := false
	tm := e.After(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineStopHaltsRun(t *testing.T) {
	e := New(1)
	fired := 0
	e.At(1*time.Second, func() { fired++; e.Stop() })
	e.At(2*time.Second, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt)", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestTickerRunsUntilFalse(t *testing.T) {
	e := New(1)
	ticks := 0
	e.Every(time.Second, func() bool {
		ticks++
		return ticks < 3
	})
	end := e.Run()
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if end != 3*time.Second {
		t.Fatalf("end = %v, want 3s", end)
	}
}

func TestTickerStop(t *testing.T) {
	e := New(1)
	ticks := 0
	var tk *Ticker
	tk = e.Every(time.Second, func() bool {
		ticks++
		if ticks == 2 {
			tk.Stop()
		}
		return true
	})
	e.Run()
	if ticks != 2 {
		t.Fatalf("ticks = %d, want 2", ticks)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		e := New(42)
		var out []time.Duration
		for i := 0; i < 100; i++ {
			d := time.Duration(e.Rand().Int63n(int64(time.Minute)))
			e.At(d, func() { out = append(out, e.Now()) })
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestExpDurationMean(t *testing.T) {
	e := New(9)
	mean := time.Second
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += e.ExpDuration(mean)
	}
	got := sum.Seconds() / n
	if got < 0.95 || got > 1.05 {
		t.Fatalf("empirical mean = %.3fs, want ~1s", got)
	}
	if e.ExpDuration(0) != 0 {
		t.Fatal("ExpDuration(0) != 0")
	}
}

// Property: for any batch of event delays, the engine visits them in sorted
// order and ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := New(3)
		var visited []time.Duration
		var max time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			if at > max {
				max = at
			}
			e.At(at, func() { visited = append(visited, e.Now()) })
		}
		e.Run()
		if len(visited) != len(delays) {
			return false
		}
		for i := 1; i < len(visited); i++ {
			if visited[i] < visited[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerializesJobs(t *testing.T) {
	e := New(1)
	s := NewServer(e, "cpu")
	var done []time.Duration
	for i := 0; i < 4; i++ {
		s.Submit(time.Second, func() { done = append(done, e.Now()) })
	}
	e.Run()
	want := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	if len(done) != len(want) {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done[%d] = %v, want %v", i, done[i], want[i])
		}
	}
}

func TestServerThroughputMatchesServiceRate(t *testing.T) {
	// A server with 1/487 s service time should complete ~487 jobs per
	// virtual second — the paper's dispatcher ceiling.
	e := New(1)
	s := NewServer(e, "dispatcher")
	service := time.Second / 487
	const n = 4870
	for i := 0; i < n; i++ {
		s.Submit(service, nil)
	}
	end := e.Run()
	rate := float64(n) / end.Seconds()
	if rate < 480 || rate > 495 {
		t.Fatalf("rate = %.1f jobs/s, want ~487", rate)
	}
}

func TestServerLateSubmission(t *testing.T) {
	e := New(1)
	s := NewServer(e, "cpu")
	var finished time.Duration
	e.At(10*time.Second, func() {
		s.Submit(2*time.Second, func() { finished = e.Now() })
	})
	e.Run()
	if finished != 12*time.Second {
		t.Fatalf("finished = %v, want 12s", finished)
	}
	if s.QueueLen() != 0 || s.Busy() {
		t.Fatal("server not idle at end")
	}
}
