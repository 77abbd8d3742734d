package core_test

import (
	"runtime"
	"testing"

	"falkon/internal/core"
	"falkon/internal/obs"
	"falkon/internal/task"
)

// BenchmarkSerialRound is one unqueued task, end to end, as the repo
// benchmark's direct-serial drives it and on its one P: one Submit of one
// `sleep 0` task with a 16-byte argument of its own, 4 executors of one slot,
// the next Submit once the result has come back through Results. Its
// allocs/op is the benchmark's allocs_per_task (the argument's string is the
// driver's own object there too), and scripts/allocs.sh turns it into the two
// ledgers EXPERIMENTS.md keeps — who allocates, and where the time goes:
//
//	./scripts/allocs.sh -bench BenchmarkSerialRound ./internal/core/
//
// On linux it also reports the read(2) and write(2) calls the process made
// per task, all three connections' both ends included: six frames are six
// writes, and a read beyond the six that take them found nothing.
func BenchmarkSerialRound(b *testing.B) { benchRound(b, 1, true) }

// BenchmarkRoundPs is the same round on the Ps -cpu gives it, alone and as a
// bundle of 64: where the next frame can arrive on another P while a read
// session is deciding to wait, which the repo benchmark's one P never shows.
func BenchmarkRoundPs(b *testing.B) {
	b.Run("serial", func(b *testing.B) { benchRound(b, 1, false) })
	b.Run("bulk64", func(b *testing.B) { benchRound(b, 64, false) })
}

func benchRound(b *testing.B, tasks int, oneP bool) {
	round := startRound(b, tasks, oneP)
	b.ReportAllocs()
	b.ResetTimer()
	r0, w0, counted := obs.Syscalls()
	for i := 0; i < b.N; i++ {
		round()
	}
	if r1, w1, _ := obs.Syscalls(); counted {
		b.ReportMetric(float64(r1-r0)/float64(b.N), "reads/op")
		b.ReportMetric(float64(w1-w0)/float64(b.N), "writes/op")
	}
}

// TestSerialRoundSyscalls holds what BenchmarkSerialRound reports: an unqueued
// task is six frames, each written by a write(2) of its own and read by one
// read(2) — a read session that has read short waits without asking again
// (DESIGN.md §9, "Read session"). Half a read per task is left for the reads
// that do find nothing: a readiness harvested while the read before it was
// already taking its bytes.
func TestSerialRoundSyscalls(t *testing.T) {
	round := startRound(t, 1, true)
	const rounds = 4096
	r0, w0, counted := obs.Syscalls()
	if !counted {
		t.Skip("no /proc/self/io")
	}
	for i := 0; i < rounds; i++ {
		round()
	}
	r1, w1, _ := obs.Syscalls()
	reads, writes := float64(r1-r0)/rounds, float64(w1-w0)/rounds
	t.Logf("%.3f reads and %.3f writes per task", reads, writes)
	// The count is the process's: the odd write of the runtime's own (a log
	// line, a timer's wake-up pipe) is let through, a seventh per task is not.
	if writes < 6 || writes > 6.02 {
		t.Errorf("%.3f write(2) per unqueued task, want 6.000 (one per frame)", writes)
	}
	if reads > 6.5 {
		t.Errorf("%.3f read(2) per unqueued task, want at most 6.5 (one per frame, and few that find nothing)", reads)
	}
}

// startRound boots the repo benchmark's system (on one P for the life of tb,
// if oneP), warms it up and returns the function that submits tasks tasks at
// once and reads their results.
func startRound(tb testing.TB, tasks int, oneP bool) func() {
	if oneP {
		prev := runtime.GOMAXPROCS(1)
		tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	sys, err := core.Start(core.Config{Executors: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sys.Close() })
	var gen task.IDGen
	ts, args := make([]task.Task, tasks), make([]string, tasks)
	round := func() {
		for n := range ts {
			id := gen.Next()
			var tok [16]byte
			for i := range tok {
				tok[i] = "0123456789abcdef"[uint64(id)>>(4*i)&15]
			}
			args[n] = string(tok[:])
			ts[n] = task.Task{ID: id, Engine: task.EngineSleep, Command: "sleep", Args: args[n : n+1], Trace: 1<<62 + uint64(id)}
		}
		if err := sys.Submit(ts); err != nil {
			tb.Fatal(err)
		}
		for range ts {
			<-sys.Results()
		}
	}
	for i := 0; i < 2048; i++ {
		round() // buffers, pools, per-method instruments and the pull sizer settle
	}
	return round
}
