package dispatch

import (
	"testing"

	"falkon/internal/task"
)

// Taking the buffered results to push them discharges the delivery obligation
// that the instance's owed set records, and leaves the instance holding none.
func TestTakeResultsClearsLive(t *testing.T) {
	in := &instance{epr: "x"}
	in.live.Add(1)
	in.live.Add(2)
	in.live.Add(3) // still running: owed, not buffered
	in.buf = append(in.buf, task.RelayedResult{ID: 1}, task.RelayedResult{ID: 2})
	if got := in.takeResults(); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("takeResults = %v", got)
	}
	if in.buf != nil || in.live.Has(1) || in.live.Has(2) || !in.live.Has(3) || in.live.Len() != 1 {
		t.Fatalf("%d buffered, %d owed; want none buffered and only the running task owed", len(in.buf), in.live.Len())
	}
	if got := in.takeResults(); len(got) != 0 {
		t.Fatalf("second takeResults = %v", got)
	}
}
