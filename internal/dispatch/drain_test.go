package dispatch

import (
	"testing"
	"time"

	"falkon/internal/task"
)

// enqueueRaw pushes a bare task onto the queue the way a submit would,
// bypassing the transport (tests only).
func enqueueRaw(d *Dispatcher, epr string, t task.Task) {
	d.mu.Lock()
	d.core.Enqueue(0, taskRef{epr: epr, t: &task.Relay([]task.Task{t})[0]})
	d.mu.Unlock()
}

// dropAllQueued empties the queue (tests only).
func dropAllQueued(d *Dispatcher) {
	d.mu.Lock()
	d.core.DropQueued(func(taskRef) bool { return true })
	d.mu.Unlock()
}

func TestDrainEmptySystemReturnsImmediately(t *testing.T) {
	d := New(Options{})
	start := time.Now()
	if !d.Drain(time.Second) {
		t.Fatal("drain of empty system failed")
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("empty drain took %v", el)
	}
}

// TestDrainWakesPromptly: a Drain blocked on a queued task returns soon
// after the core is emptied, with nothing but the core told of it.
func TestDrainWakesPromptly(t *testing.T) {
	d := New(Options{})
	enqueueRaw(d, "x", task.Task{ID: 1})

	done := make(chan bool, 1)
	go func() { done <- d.Drain(10 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // let Drain find the queue non-empty

	start := time.Now()
	dropAllQueued(d)

	select {
	case ok := <-done:
		if !ok {
			t.Fatal("drain reported timeout")
		}
	case <-time.After(time.Second):
		t.Fatal("drain never woke after the system emptied")
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("drain woke after %v, want within 100ms", el)
	}
}

func TestDrainTimesOutWhileWorkRemains(t *testing.T) {
	d := New(Options{})
	enqueueRaw(d, "x", task.Task{ID: 1})
	start := time.Now()
	if d.Drain(50 * time.Millisecond) {
		t.Fatal("drain succeeded with work queued")
	}
	if el := time.Since(start); el < 40*time.Millisecond || el > 2*time.Second {
		t.Fatalf("timed-out drain returned after %v", el)
	}
}

// TestCloseReleasesDrain: Close ends a Drain that is waiting on work no
// executor will run, within one poll interval (plus the same 100 ms
// allowance for scheduling), reporting that the drain did not finish.
func TestCloseReleasesDrain(t *testing.T) {
	d := New(Options{})
	enqueueRaw(d, "x", task.Task{ID: 1})

	done := make(chan bool, 1)
	go func() { done <- d.Drain(10 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // let Drain find the queue non-empty

	d.Close()
	start := time.Now()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("drain reported finished with a task still queued")
		}
	case <-time.After(time.Second):
		t.Fatal("drain still blocked a second after Close")
	}
	if el, bound := time.Since(start), drainPoll+100*time.Millisecond; el > bound {
		t.Fatalf("drain returned %v after Close, want within %v", el, bound)
	}
}
