// Package sim implements a deterministic discrete-event simulation engine
// with a virtual clock. The long-running Falkon experiments — the 2-million
// task endurance run (Figure 8), the 54,000-executor scalability run
// (Figure 9), and the provisioning study on the 18-stage synthetic workload
// (Tables 3–4, Figures 11–13) — execute on this engine so that hours of
// virtual time replay in seconds of wall-clock time, with fully reproducible
// results.
//
// The engine is single-threaded: event callbacks run sequentially in
// timestamp order (FIFO among equal timestamps) and may schedule further
// events. Models built on the engine therefore need no locking.
//
// Beside the engine sits what experiments sample on its clock to regenerate
// the paper's figures: fixed-interval time series (Figure 8's raw
// throughput samples), moving averages (Figure 8's 60-sample smoothing), an
// exact histogram with percentile extraction (Figure 10's overhead
// distribution) and a text plot of a series. The live runtime's bounded
// instruments are obs.Counter, obs.Gauge and obs.Histogram; sim imports no
// falkon package.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // insertion order; breaks timestamp ties FIFO
	fn  func()

	// index is maintained by the heap for cancellation.
	index int
}

// eventHeap orders events by (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now     time.Duration
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

// New returns an engine whose clock starts at zero, with a deterministic
// RNG seeded by seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic RNG stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.events) }

// Timer handles allow cancelling a scheduled event.
type Timer struct {
	e  *Engine
	ev *event
}

// Stop cancels the timer if it has not fired; it reports whether the timer
// was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.index < 0 {
		return false
	}
	heap.Remove(&t.e.events, t.ev.index)
	t.ev = nil
	return true
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: models that do so are buggy.
func (e *Engine) At(at time.Duration, fn func()) *Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.seq++
	ev := &event{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return &Timer{e: e, ev: ev}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until none remain or Stop is called. It returns the
// final virtual time.
func (e *Engine) Run() time.Duration { return e.RunUntil(-1) }

// RunUntil executes events with timestamps <= deadline (deadline < 0 means
// run to exhaustion). The clock never advances past an executed event's
// timestamp; when the deadline cuts execution short the clock is left at the
// deadline.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		next := e.events[0]
		if deadline >= 0 && next.at > deadline {
			e.now = deadline
			return e.now
		}
		heap.Pop(&e.events)
		e.now = next.at
		next.fn()
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Ticker invokes fn every interval until fn returns false or the ticker is
// stopped. The first invocation happens one interval from now.
type Ticker struct {
	timer   *Timer
	stopped bool
}

// Every creates and starts a ticker.
func (e *Engine) Every(interval time.Duration, fn func() bool) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	t := &Ticker{}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		if !fn() {
			t.stopped = true
			return
		}
		t.timer = e.After(interval, tick)
	}
	t.timer = e.After(interval, tick)
	return t
}

// Stop halts the ticker.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

// ExpDuration draws an exponentially distributed duration with the given
// mean. Used for jittered service times.
func (e *Engine) ExpDuration(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(e.rng.ExpFloat64() * float64(mean))
}
