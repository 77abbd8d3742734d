//go:build !race

// Not under the race detector: the test runs on one goroutine, and its
// million queued tasks weigh ~0.5 GB there against ~0.2 GB without it.

package dispatch

import (
	"encoding/json"
	"testing"

	"falkon/internal/fproto"
	"falkon/internal/task"
)

// Destroying an instance that holds nothing visits no task in the core,
// however long the queue: with 1M tasks of another instance queued, the
// sweep's test is asked of none of them — and of every one when their own
// instance is destroyed.
func TestDestroyingAnIdleInstanceVisitsNoTask(t *testing.T) {
	const queued = 1 << 20
	d := New(Options{Logf: t.Logf})
	busy, idle := &instance{epr: "busy"}, &instance{epr: "idle"}
	d.instances[busy.epr], d.instances[idle.epr] = busy, idle
	one := new(task.Relayed)
	for i := 0; i < queued; i++ {
		d.core.Enqueue(0, taskRef{epr: busy.epr, t: one, inst: busy})
	}
	busy.inFlight = queued

	visits := 0
	defer func(of func(*instance) func(taskRef) bool) { ofInstance = of }(ofInstance)
	ofInstance = func(inst *instance) func(taskRef) bool {
		return func(tr taskRef) bool { visits++; return tr.epr == inst.epr }
	}
	destroy := func(epr string) {
		t.Helper()
		body, _ := json.Marshal(fproto.DestroyInstanceRequest{EPR: epr})
		if _, err := d.handleDestroyInstance(nil, body); err != nil {
			t.Fatal(err)
		}
	}
	destroy(idle.epr)
	if visits != 0 {
		t.Fatalf("destroying an idle instance visited %d tasks, want none", visits)
	}
	destroy(busy.epr)
	if visits != queued || d.core.QueueLen() != 0 {
		t.Fatalf("destroying the instance holding %d queued tasks visited %d and left %d queued", queued, visits, d.core.QueueLen())
	}
}
