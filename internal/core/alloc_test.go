//go:build !race

package core_test

import (
	"runtime"
	"testing"
	"time"

	"falkon/internal/core"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// allocsPerTaskCeiling is the whole runtime's heap allocations per `sleep 0`
// task — client, dispatcher and executor in one process over loopback, at
// bundle 64 — measured at 20.2 to 21.6 when the body codec landed (2-CPU
// box, -cpu 1, 2 and 4), plus about 10 %. With every task-carrying body on
// encoding/json and two metric keys built per call, the commit before
// measured 63 to 65 in the same loop. Lowered by one when the dispatcher's
// notify engine went (its lane worker re-boxed every push: 21.1 -> 19.3 on
// the same box), so that object cannot come back unnoticed.
const allocsPerTaskCeiling = 22.5

// The per-task allocation budget. It is a count, not a timing, so it holds
// on a loaded machine; a change that puts reflection or a per-call string
// back on the Submit → GetWork/Deliver → Results path fails it.
func TestAllocsPerTaskBudget(t *testing.T) {
	sys, err := core.Start(core.Config{Executors: 1, BundleSize: 64, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var gen task.IDGen
	run := func(n int) {
		t.Helper()
		if err := sys.Submit(task.Batch(&gen, n, 0)); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.WaitN(n, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	run(1024) // buffers, pools and per-method instruments reach steady state

	const tasks = 4096
	fallbacks := fproto.CodecFallbacks.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(tasks)
	runtime.ReadMemStats(&m1)
	perTask := float64(m1.Mallocs-m0.Mallocs) / tasks
	t.Logf("%.2f allocations and %.0f bytes per task", perTask, float64(m1.TotalAlloc-m0.TotalAlloc)/tasks)
	if perTask > allocsPerTaskCeiling {
		t.Errorf("%.2f allocations per task, budget %.1f", perTask, allocsPerTaskCeiling)
	}
	if n := fproto.CodecFallbacks.Value() - fallbacks; n != 0 {
		t.Errorf("%d bodies between this repo's own components took the encoding/json fallback", n)
	}
}
