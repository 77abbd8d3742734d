//go:build !race

package core_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"falkon/internal/core"
	"falkon/internal/dispatch"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// allocsPerTaskCeiling is the whole runtime's heap allocations per `sleep 0`
// task — client, dispatcher and executor in one process over loopback, each
// measured batch submitted as one bundle, every task with one 16-byte
// argument of its own as in the repo benchmark — measured 0.13 to 0.14 (plain,
// secure, fair-share and journaled alike, -cpu 1, 2 and 4) since the slice a
// message is decoded into is its receiver's scratch, plus 15 % and 0.04 for a
// batch that met a stall (0.06 to 0.10 since a body handed to Call or Notify is
// state its call site holds; the ceiling was left where it was). The four slices a 64-task round trip used to make
// were 0.11 of the 0.24 to 0.27 before; sched.Core's outstanding record, the
// last object a task had to itself, 1.0 of the 1.23 to 1.25 before that; and
// it was 5.20 to 5.22 before a message's strings and Args slices were
// allocated once per message. The executor finds the queue deep at every pull
// and takes it 64 tasks at a time, so the dozen or so objects a pull costs are
// shared. Per-task dispatch measured 18.15 in this loop at bundle 64, and 63 to
// 65 before the body codec. The write-ahead journal shares the ceiling: its
// records are encoded in place, one per Submit, grant and Deliver, and a
// Submit's durability barrier is a commit number, which allocates nothing.
const allocsPerTaskCeiling = 0.20

// bytesPerTaskCeiling is the same loop's bytes, held on every batch of every
// bulk row: measured 688 to 939 B in 60 runs at -cpu 1, 2 and 4, beside
// BenchmarkBulkRound/plain or not (scripts/flakes.sh; most read 713 to 719, and
// the few above 800 are a connection buffer reaching a new high-water mark,
// such as the client's second cork buffer first carrying a 4,096-task submit,
// 105 B a task), plus 15 %. The journaled row read up to ~1,850 B on a single
// batch, and was held on the lowest of five, while a journal dropped every
// append buffer that held over 1 MiB at its flush: it now keeps it by the rule
// a connection's read buffer is kept by, and makes one over 128 KiB 1 MiB at
// once (at most 825 B in 150 batches, scripts/flakes.sh -n 10 -plain). Until a
// connection owned the scratch a submit is read into, a collection emptied its
// sync.Pool and a single batch read ~1,000 to 2,900, so only the lowest of
// five was held, to 1,320: 716 to 719 measured, plus 10 %. Before that, the lowest of five read 953 to 957 while
// the dispatcher kept each task's whole JSON in a copy of the rest of the
// bundle, in a slice presized to 1,024 tasks and grown by doubling; 1,149 to
// 1,201 before a dispatcher relayed tasks undecoded, once 1,282 (1,255 to
// 1,307 while each outstanding record was a 104-byte share of an 8 KiB chunk;
// 2,098 to 2,120 while Deliver's results, the grant, and their decoded copies
// on the executor and the client were slices made per message, about 170
// bytes per task each). What is left is mostly the price of this loop's
// 4,096-task bundles, not of the task path (scripts/allocs.sh, bytes per
// task): its 4,096 enqueue events, more than a pooled fx keeps, 241; the
// batch, its arguments and the results slice the loop itself builds, 305.
const bytesPerTaskCeiling = 1080

// serialAllocsPerTaskCeiling is the plain system driven the opposite way — one
// task per Submit, one task in flight, read through Results as the repo
// benchmark reads it: its direct-serial and the paper's Fig. 10 case. Nothing is
// bundled, so it is what one unqueued task costs end to end over its six frames
// (two calls and two pushes: Submit, the grant, Deliver, the result). Measured
// 0.04 at -cpu 1, 2 and 4: the dispatcher carves a one-task bundle's head and
// the bytes it relays (DESIGN.md §9, "Relay") from two chunks the connection's
// scratch keeps, a head chunk every 63 tasks and a byte chunk every few dozen,
// and the executor its Args header and bytes from chunks its slot keeps grant
// after grant (§9, "Chunks"). The ceiling, 0.25, is far under one object: the
// count repeats to two decimals, and one object a task coming back — a bundle
// allocated by itself again — must fail. serialBytesPerTaskCeiling
// is its bytes, every batch: 326 to 333 measured (330 to 342 before small
// bundles were carved), this loop's own batch included, under the 368 it had (330 to 335 then, plus 10 %), which stays:
// the 48 bytes of a task's ID and trace digits a dispatcher kept twice until
// it wrote them again from its numbers fail it.
//
// History of the row, newest first: 2.01 to 2.08 objects while every bundle
// was a slice and a string of its own; 4.00 to 4.06 objects and 330 to 335
// bytes while the executor's decoder made a chunk pair for every grant; 378 to 383 bytes, 4.00 to 4.06 objects,
// while the dispatcher kept each task's whole JSON; 6.00 to 6.07 objects and 399 to 400 bytes
// while the dispatcher decoded every task whole, its command and its Args
// header and bytes included; 17.02 and 946 bytes in this loop (21.02 to
// 21.04 and 1,338 to 1,341 through WaitN, which added a timer's three objects
// and a slice of its own to every task) while every body handed to Call or
// Notify was a struct boxed into an interface, the pushed grant was decoded
// into a fresh value that escaped to the overflow goroutine it almost never
// took, Notifications returned a fresh slice and no holder remembered its last
// message's first element; 26.02 to 26.05 while a message of one result or one
// assignment still brought a slice of its own on every hop but the pushed
// grant's; 27.00 to 27.06 while the outstanding record was an object of its
// own.
const (
	serialAllocsPerTaskCeiling = 0.25
	serialBytesPerTaskCeiling  = 368
)

// The per-task allocation budget of every configuration core.Config can
// ship. It is a count, not a timing, so it holds on a loaded machine; a
// change that puts reflection or a per-call string back on the Submit →
// GetWork/Deliver → Results path fails it. These rows are the only committed
// numbers the secure, fair-share and journaled configurations have.
func TestAllocsPerTaskBudget(t *testing.T) {
	rows := []struct {
		name   string
		cfg    core.Config
		serial bool // one task per Submit, one in flight (batches of 1,024)
	}{
		{name: "plain"},
		{name: "secure", cfg: core.Config{
			PSK: []byte("budget-psk"),
		}},
		{name: "fair-share", cfg: core.Config{
			Tenant:  "a",
			Tenants: []dispatch.TenantSpec{{Name: "a", Weight: 4}, {Name: "b", Weight: 1}},
		}},
		{name: "journaled", cfg: core.Config{JournalDir: t.TempDir()}},
		{name: "serial", serial: true},
	}
	perTask := map[string]float64{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			// One bundle per batch: how deep the executor's pulls find the
			// queue is then the cap, not a race with the submitting client.
			cfg.Executors, cfg.BundleSize, cfg.Logf = 1, 4096, t.Logf
			objects, bytes := allocsPerTask(t, cfg, row.serial)
			perTask[row.name] = objects
			ceiling, byteCeiling := allocsPerTaskCeiling, float64(bytesPerTaskCeiling)
			if row.serial {
				ceiling, byteCeiling = serialAllocsPerTaskCeiling, serialBytesPerTaskCeiling
			}
			within(t, "allocations per task", objects, ceiling)
			// Bytes say what objects cannot: a slice made per message is one
			// object in 64 tasks, and 170 bytes in every one of them. Every
			// batch is held to it: nothing the path keeps is pooled.
			for _, b := range bytes {
				within(t, "bytes per task", b, byteCeiling)
			}
		})
	}
	// The secure profile seals frames in place, the fair-share pick walks
	// tenant queues that already exist and the journal writes its records into
	// a buffer it keeps: none may cost an object per task. (ROADMAP item 5 set
	// the journal 1.5; it came in under the bound the other two already had.)
	for _, name := range []string{"secure", "fair-share", "journaled"} {
		if d := perTask[name] - perTask["plain"]; d > 0.5 {
			t.Errorf("%s costs %.2f allocations per task more than plain (%.2f vs %.2f), want within 0.5",
				name, d, perTask[name], perTask["plain"])
		}
	}
}

// within holds a reading to its ceiling, and logs it in the form
// scripts/flakes.sh collects: "budget: <test> <what> <reading> <= <ceiling>".
func within(t *testing.T, what string, reading, ceiling float64) {
	t.Helper()
	t.Logf("budget: %s %s %.2f <= %.2f", t.Name(), what, reading, ceiling)
	if reading > ceiling {
		t.Errorf("%.2f %s, budget %.2f", reading, what, ceiling)
	}
}

// allocsPerTask boots cfg, warms it up and returns the process-wide heap
// allocations per task over a measured batch, the lowest of the batches
// measured, and the bytes of every batch, on however many Ps the test was
// given (tier 1 runs it with -cpu 1,2,4: the count is the code's, not the
// host's). serial submits a batch one task at a time, each once the one
// before has come back, and makes the batch 1,024. A batch's tasks are built
// at once either way, so what the loop itself allocates is per batch.
func allocsPerTask(t *testing.T, cfg core.Config, serial bool) (objects float64, bytes []float64) {
	t.Helper()
	sys, err := core.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var gen task.IDGen
	run := func(n int) {
		t.Helper()
		ts, each := argued(task.Batch(&gen, n, 0)), n
		if serial {
			each = 1
		}
		for ; len(ts) > 0; ts = ts[each:] {
			if err := sys.Submit(ts[:each]); err != nil {
				t.Fatal(err)
			}
			if serial {
				// As the repo benchmark reads its results: WaitN would add a
				// timer (three objects) and a slice of its own to every task.
				<-sys.Results()
			} else if _, err := sys.WaitN(each, time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	tasks := 4096
	if serial {
		tasks = 1024
	}
	// Buffers, scratch and per-method instruments reach steady state. Each is
	// grown to a batch's size by the first batch it carries, and a
	// connection's two cork buffers and a journal's two append buffers take
	// turns, so four batches of the measured size warm them (one of 1,024
	// left every bulk row's first two batches reading ~1,900 and ~1,100 B).
	for range 4 {
		run(tasks)
	}

	// The lowest of five batches: a stall of the host inside one measured
	// run time holds the executor's ask at 1 for up to 256 tasks, which adds
	// about one object per task to that batch and says nothing of the code.
	fallbacks := fproto.CodecFallbacks.Value()
	objects = math.Inf(1)
	for batch := 0; batch < 5; batch++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(tasks)
		runtime.ReadMemStats(&m1)
		o, b := float64(m1.Mallocs-m0.Mallocs)/float64(tasks), float64(m1.TotalAlloc-m0.TotalAlloc)/float64(tasks)
		t.Logf("%.2f allocations and %.0f bytes per task", o, b)
		objects, bytes = min(objects, o), append(bytes, b)
	}
	if n := fproto.CodecFallbacks.Value() - fallbacks; n != 0 {
		t.Errorf("%d bodies between this repo's own components took the encoding/json fallback", n)
	}
	return objects, bytes
}

// argued gives each task one argument no other task has, 16 bytes as in the
// repo benchmark (and one, as in the paper's `sleep 0`): a task without one
// spares every hop the two objects, a slice and a string, this table is here
// to price. The arguments are cut from one string, so the test itself still
// allocates per batch and not per task.
func argued(ts []task.Task) []task.Task {
	const digits = "0123456789abcdef"
	buf := make([]byte, 0, 16*len(ts))
	for i := range ts {
		for shift := 60; shift >= 0; shift -= 4 {
			buf = append(buf, digits[uint64(ts[i].ID)>>shift&15])
		}
	}
	all, args := string(buf), make([]string, len(ts))
	for i := range ts {
		args[i] = all[16*i : 16*i+16]
		ts[i].Args = args[i : i+1 : i+1]
	}
	return ts
}
