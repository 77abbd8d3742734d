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

// TestDrainWakesPromptly pins the sync.Cond behaviour: Drain must wake on
// the empty transition itself, not on a poll tick.
func TestDrainWakesPromptly(t *testing.T) {
	d := New(Options{})
	enqueueRaw(d, "x", task.Task{ID: 1})

	done := make(chan bool, 1)
	go func() { done <- d.Drain(10 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // let Drain block on the condition

	start := time.Now()
	dropAllQueued(d)
	d.wakeDrain()

	select {
	case ok := <-done:
		if !ok {
			t.Fatal("drain reported timeout")
		}
	case <-time.After(time.Second):
		t.Fatal("drain never woke after the system emptied")
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("drain woke after %v, want immediate broadcast wake", el)
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
