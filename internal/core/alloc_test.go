//go:build !race

package core_test

import (
	"runtime"
	"testing"
	"time"

	"falkon/internal/core"
	"falkon/internal/dispatch"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
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

// journaledAllocsPerTaskCeiling is the same loop with the write-ahead
// journal on: measured 23.7 (-cpu 2) and 22.4 (-cpu 1), i.e. 4.2 to 4.3
// objects per task over plain, plus about 10 %.
const journaledAllocsPerTaskCeiling = 26.0

// The per-task allocation budget of every configuration core.Config can
// ship. It is a count, not a timing, so it holds on a loaded machine; a
// change that puts reflection or a per-call string back on the Submit →
// GetWork/Deliver → Results path fails it. These rows are the only committed
// numbers the secure, fair-share and journaled configurations have.
func TestAllocsPerTaskBudget(t *testing.T) {
	rows := []struct {
		name    string
		ceiling float64
		cfg     core.Config
	}{
		{"plain", allocsPerTaskCeiling, core.Config{}},
		{"secure", allocsPerTaskCeiling, core.Config{
			Security: wsrpc.SecuritySecureConversation, PSK: []byte("budget-psk"),
		}},
		{"fair-share", allocsPerTaskCeiling, core.Config{
			FairShare: true,
			Tenant:    "a",
			Tenants:   []dispatch.TenantSpec{{Name: "a", Weight: 4}, {Name: "b", Weight: 1}},
		}},
		{"journaled", journaledAllocsPerTaskCeiling, core.Config{JournalDir: t.TempDir()}},
	}
	perTask := map[string]float64{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.Executors, cfg.BundleSize, cfg.Logf = 1, 64, t.Logf
			perTask[row.name] = allocsPerTask(t, cfg)
			if got := perTask[row.name]; got > row.ceiling {
				t.Errorf("%.2f allocations per task, budget %.1f", got, row.ceiling)
			}
		})
	}
	// The secure profile seals frames in place and the fair-share pick walks
	// tenant queues that already exist: neither may cost an object per task.
	for _, name := range []string{"secure", "fair-share"} {
		if d := perTask[name] - perTask["plain"]; d > 0.5 {
			t.Errorf("%s costs %.2f allocations per task more than plain (%.2f vs %.2f), want within 0.5",
				name, d, perTask[name], perTask["plain"])
		}
	}
}

// allocsPerTask boots cfg, warms it up and returns the process-wide heap
// allocations per task over a measured batch.
func allocsPerTask(t *testing.T, cfg core.Config) float64 {
	t.Helper()
	sys, err := core.Start(cfg)
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
	if n := fproto.CodecFallbacks.Value() - fallbacks; n != 0 {
		t.Errorf("%d bodies between this repo's own components took the encoding/json fallback", n)
	}
	return perTask
}
