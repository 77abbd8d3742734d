package dispatch

import (
	"testing"

	"falkon/internal/task"
)

// Collecting a buffered result discharges the delivery obligation that the
// instance's owed set records.
func TestTakeResultsClearsLive(t *testing.T) {
	in := &instance{epr: "x"}
	in.live.Add(1)
	in.live.Add(2)
	in.buf.Add(task.Result{ID: 1})
	in.buf.Add(task.Result{ID: 2})
	if got := in.takeResults(1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("take(1) = %v", got)
	}
	if in.live.Has(1) || !in.live.Has(2) || in.live.Len() != 1 {
		t.Fatalf("%d owed, want only the uncollected task", in.live.Len())
	}
}
