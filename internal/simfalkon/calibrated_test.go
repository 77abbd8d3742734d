package simfalkon

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"falkon/internal/sim"
)

// TestSingleCoreIsTheCalibratedModel pins the event sequence of the model
// the 487/204/28/12 calibrations were taken on: a seeded run with jitter and
// failure injection (so picks, piggy-backs, requeues and the notify pass all
// take part) must produce, record for record, what it produced when the
// model still ran on the sharding wrapper with one shard (commit d2d2f3d).
func TestSingleCoreIsTheCalibratedModel(t *testing.T) {
	e := sim.New(42)
	p := NoSecurity()
	p.ExecOverheadJitter = 20 * time.Millisecond
	p.FailureProb = 0.05
	m := New(e, p)
	m.KeepRecords = true
	for i := 0; i < 16; i++ {
		m.AddExecutor(0, nil)
	}
	m.SubmitSleepStream(2000, 10*time.Millisecond, 100)
	end := e.Run()
	h := fnv.New64a()
	for _, r := range m.Records {
		fmt.Fprintln(h, r.ID, r.Queued, r.Notified, r.Dispatched, r.Started, r.Finished, r.Exec, r.Attempts, r.Failed)
	}
	const wantDigest, wantEnd, wantRetried = uint64(0x68b67efa5a402438), time.Duration(9010987720), 118
	if got := h.Sum64(); got != wantDigest || end != wantEnd || m.Retried() != wantRetried {
		t.Fatalf("digest %#x, end %d, retried %d; want %#x, %d, %d", got, end, m.Retried(), wantDigest, wantEnd, wantRetried)
	}
}
