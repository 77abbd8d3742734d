package dispatch_test

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"falkon/internal/dispatch"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// What a dispatcher allocates for a result it is delivered and pushes on
// (DESIGN.md §9, "Relay"): a result is read as a head and a view of the frame
// it came in, and spliced into its push from there, so it costs no object and
// no byte of its own, whatever its output; a 64-result Deliver is charged
// three objects for the call. A census of ten runs at -cpu 1,2,4
// (scripts/flakes.sh) read at most 0.047 objects and 3.9 bytes a result on
// every row. Decoded whole, as a result was before it was relayed, one of
// 1 KiB of stdout read 0.22 objects and 1,096 bytes: the ceilings fail that,
// or a string kept per result.
const (
	deliveredAllocsCeiling = 0.25
	deliveredBytesCeiling  = 32
)

// The three rows: results that carry nothing, as the repo benchmark's tasks
// print nothing; results of 1 KiB of stdout, sixteen lines, as real tasks
// print; and the first row at a dispatcher that journals each result too.
func TestAllocsPerDeliveredResult(t *testing.T) {
	kib := strings.Repeat(strings.Repeat("x", 63)+"\n", 16)
	for _, row := range []struct {
		name    string
		stdout  string
		journal bool
	}{{name: "plain"}, {name: "stdout", stdout: kib}, {name: "journaled", journal: true}} {
		t.Run(row.name, func(t *testing.T) {
			opts := dispatch.Options{Logf: t.Logf}
			if row.journal {
				opts.JournalDir = t.TempDir()
			}
			objects, bytes := allocsPerDeliveredResult(t, opts, row.stdout)
			t.Logf("budget: %s objects per delivered result %.4f <= %.2f", t.Name(), objects, float64(deliveredAllocsCeiling))
			t.Logf("budget: %s bytes per delivered result %.1f <= %d", t.Name(), bytes, deliveredBytesCeiling)
			if objects > deliveredAllocsCeiling || bytes > deliveredBytesCeiling {
				t.Errorf("a delivered result costs %.4f objects and %.1f bytes, want at most %.2f and %d",
					objects, bytes, float64(deliveredAllocsCeiling), deliveredBytesCeiling)
			}
		})
	}
}

// deliveredBatch is how many results one Deliver carries: a grant's worth.
const deliveredBatch = 64

// allocsPerDeliveredResult runs a dispatcher with a client that counts the
// results pushed to it and reads nothing else of them, and an executor that
// pulls 64 tasks a round and delivers their results, each with stdout, in
// one call. It returns the process's heap allocations from the Deliver call to
// the push's arrival, per result, over ten rounds after twenty that warm every
// buffer: the lowest objects, and the median bytes. (Whatever else runs in
// the process — the sweeper, a journal's committer and snapshots, a handler
// that finds the dispatcher's free list of scratch empty and grows its own —
// lands in a round now and then, up to 1.6 KB a result of one round in ten.)
func allocsPerDeliveredResult(t *testing.T, opts dispatch.Options, stdout string) (objects, bytes float64) {
	t.Helper()
	d := dispatch.New(opts)
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	pushed := make(chan int, 64)
	cli, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{OnNotify: func(method string, body json.RawMessage) {
		if method == fproto.NotifyResults {
			pushed <- countResults(body)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	var inst fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "budget"}, &inst); err != nil {
		t.Fatal(err)
	}
	ex, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Close() })
	if err := ex.Call(fproto.MethodRegister, fproto.RegisterRequest{ExecutorID: "budget-x", Slots: deliveredBatch}, nil); err != nil {
		t.Fatal(err)
	}

	var gen task.IDGen
	submit := fproto.SubmitRequest{EPR: inst.EPR}
	var submitted fproto.SubmitReply
	pull := fproto.GetWorkRequest{ExecutorID: "budget-x", Max: deliveredBatch}
	var work fproto.GetWorkReply
	deliver := fproto.DeliverRequest{ExecutorID: "budget-x"}
	var ack fproto.DeliverReply
	round := func() (objects, bytes float64) {
		submit.Tasks = task.Batch(&gen, deliveredBatch, 0)
		if err := cli.Call(fproto.MethodSubmit, &submit, &submitted); err != nil || submitted.Accepted != deliveredBatch {
			t.Fatalf("submit: %v, %d accepted", err, submitted.Accepted)
		}
		deliver.Results = deliver.Results[:0]
		for len(deliver.Results) < deliveredBatch {
			if err := ex.Call(fproto.MethodGetWork, &pull, &work); err != nil {
				t.Fatal(err)
			}
			for _, a := range work.Assignments {
				out := stdout
				if out != "" {
					// Each its own, as tasks' outputs are: a decoder shares
					// an output equal to the result before's.
					out = a.Task.ID.String() + out[len(a.Task.ID.String()):]
				}
				deliver.Results = append(deliver.Results, fproto.TaggedResult{EPR: a.EPR, Result: task.Result{ID: a.Task.ID, Stdout: out}})
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := ex.Call(fproto.MethodDeliver, &deliver, &ack); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < deliveredBatch; {
			select {
			case n := <-pushed:
				got += n
			case <-time.After(time.Minute):
				t.Fatalf("%d of %d results pushed", got, deliveredBatch)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / deliveredBatch, float64(m1.TotalAlloc-m0.TotalAlloc) / deliveredBatch
	}
	for range 20 {
		round()
	}
	fallbacks := fproto.CodecFallbacks.Value()
	objects = math.Inf(1)
	var perRound []float64
	for range 10 {
		o, b := round()
		objects, perRound = min(objects, o), append(perRound, b)
	}
	if n := fproto.CodecFallbacks.Value() - fallbacks; n != 0 {
		t.Errorf("%d bodies took the encoding/json fallback", n)
	}
	slices.Sort(perRound)
	return objects, perRound[len(perRound)/2]
}

// countResults counts the results of a push without decoding them: the
// members `{"id":` opens, which a string holds only escaped.
func countResults(body []byte) int { return bytes.Count(body, []byte(`{"id":`)) }
