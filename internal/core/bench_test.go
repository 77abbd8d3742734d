package core_test

import (
	"runtime"
	"testing"

	"falkon/internal/core"
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
func BenchmarkSerialRound(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sys, err := core.Start(core.Config{Executors: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	var gen task.IDGen
	ts, args := make([]task.Task, 1), make([]string, 1)
	round := func() {
		id := gen.Next()
		var tok [16]byte
		for i := range tok {
			tok[i] = "0123456789abcdef"[uint64(id)>>(4*i)&15]
		}
		args[0] = string(tok[:])
		ts[0] = task.Task{ID: id, Engine: task.EngineSleep, Command: "sleep", Args: args, Trace: 1<<62 + uint64(id)}
		if err := sys.Submit(ts); err != nil {
			b.Fatal(err)
		}
		<-sys.Results()
	}
	for i := 0; i < 2048; i++ {
		round() // buffers, pools, per-method instruments and the pull sizer settle
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
