package dispatch

import (
	"testing"

	"falkon/internal/task"
)

// Collecting a buffered result discharges the delivery obligation that the
// journal's live set records.
func TestTakeResultsClearsLive(t *testing.T) {
	in := &instance{epr: "x", live: map[task.ID]struct{}{1: {}, 2: {}}}
	in.buf.Add(task.Result{ID: 1})
	in.buf.Add(task.Result{ID: 2})
	if got := in.takeResults(1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("take(1) = %v", got)
	}
	if _, ok := in.live[1]; ok || len(in.live) != 1 {
		t.Fatalf("live = %v, want only the uncollected task", in.live)
	}
}
