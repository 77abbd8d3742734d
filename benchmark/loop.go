package main

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"falkon/internal/task"
)

// noProgressLimit is how long a run may go without a single result before
// the watchdog fails it with whatever was counted.
const noProgressLimit = 60 * time.Second

var errNoProgress = errors.New("no result for 60 s: run abandoned")

// driver feeds a system from one client connection, with one submitting and
// one receiving goroutine, and checks exactly-once delivery: one bit per
// task ID, so a lost, duplicated, unknown or non-zero-exit result is
// counted however many tasks run. A driver outlives the systems it drives
// (set-up is repeated) and hands every task a fresh ID.
type driver struct {
	seed   uint64
	idBase uint64
	epoch  time.Time

	next uint64   // task indexes handed out so far
	seen []uint64 // bit i set: the result of task idBase+i has arrived

	duplicated, unknown, nonZero int64

	// sentAt[i/bundle] is when task i's Submit call began. Per bundle, not
	// per in-flight slot: the closed loop bounds how many tasks are out,
	// not how far apart their IDs are (a straggler can be overtaken by
	// thousands), so no small table indexed by ID is safe.
	bundle   int
	sentAt   []atomic.Int64
	inflight atomic.Int64
	wake     chan struct{}
}

// newDriver sizes the exactly-once table for capacity tasks, submitted in
// bundles of bundle. The seed only shapes generated inputs: the task-ID
// base and a 16-byte Args token per task. IDs and trace IDs keep a fixed
// number of digits whatever the seed, so bytes on the wire do not depend
// on it.
func newDriver(seed uint64, capacity, bundle int) *driver {
	return &driver{
		seed:   seed,
		idBase: 1_000_000_000 + mix64(seed)%900_000_000,
		epoch:  time.Now(),
		seen:   make([]uint64, (capacity+63)/64),
		bundle: bundle,
		sentAt: make([]atomic.Int64, capacity/bundle+1),
		wake:   make(chan struct{}, 1),
	}
}

const traceBase = 1_000_000_000_000_000_000

func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (d *driver) token(idx uint64) string {
	const digits = "0123456789abcdef"
	v := mix64(d.seed ^ mix64(idx))
	var b [16]byte
	for i := range b {
		b[i] = digits[v&15]
		v >>= 4
	}
	return string(b[:])
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

// attempted is every task submitted so far, warm-ups included; failed is
// how many of them did not come back exactly once with exit code 0.
func (d *driver) attempted() int64 { return int64(d.next) }

func (d *driver) failed() int64 {
	arrived := 0
	for _, w := range d.seen {
		arrived += bits.OnesCount64(w)
	}
	lost := d.attempted() - int64(arrived)
	return lost + d.duplicated + d.unknown + d.nonZero
}

// windowStats is what one window saw, from its first Submit to its last
// result.
type windowStats struct {
	tasks   int
	elapsed time.Duration
	cpu     time.Duration
	lat     hist
}

func (w *windowStats) tasksPerSecond() float64 { return float64(w.tasks) / w.elapsed.Seconds() }
func (w *windowStats) cpuMicrosPerTask() float64 {
	return float64(w.cpu.Nanoseconds()) / 1e3 / float64(w.tasks)
}
func (w *windowStats) p50Millis() float64 { return w.lat.quantile(0.50) / 1e6 }
func (w *windowStats) p95Millis() float64 { return w.lat.quantile(0.95) / 1e6 }

// run pushes one window of n tasks through sys in the workload's closed
// loop, from the first Submit to the last result, and returns what it saw.
// tr, when set, records spans and per-stage histograms (the traced window).
func (d *driver) run(sys *system, n int, tr *tracer) (*windowStats, error) {
	w := sys.w
	if w.bundle != d.bundle || n%w.bundle != 0 {
		return nil, fmt.Errorf("window of %d tasks is not a whole number of the driver's bundles of %d", n, d.bundle)
	}
	first, total := d.next, uint64(n)
	if first+total > uint64(len(d.seen))*64 {
		return nil, fmt.Errorf("exactly-once table too small for %d more tasks", total)
	}
	d.next += total
	d.inflight.Store(0)

	ws := &windowStats{tasks: n}
	submitted := make(chan error, 1)
	abort := make(chan struct{})
	go func() { submitted <- d.submitLoop(sys, first, total, tr, abort) }()
	if err := d.receiveLoop(sys, first, ws, tr, submitted); err != nil {
		// The submitter may be stuck inside a call that will never return;
		// it is released if it is only waiting for room, and the process is
		// about to exit with a failure either way.
		close(abort)
		return ws, err
	}
	return ws, nil
}

func (d *driver) submitLoop(sys *system, first, total uint64, tr *tracer, abort <-chan struct{}) error {
	w := sys.w
	tasks := make([]task.Task, w.bundle)
	args := make([][1]string, w.bundle)
	room := int64(w.inflight - w.bundle)
	for off := uint64(0); off < total; off += uint64(w.bundle) {
		for d.inflight.Load() > room {
			select {
			case <-d.wake:
			case <-abort:
				return nil
			}
		}
		t0 := d.now()
		d.sentAt[(first+off)/uint64(w.bundle)].Store(t0)
		for i := range tasks {
			idx := first + off + uint64(i)
			id := d.idBase + idx
			args[i][0] = d.token(idx)
			tasks[i] = task.Task{ID: task.ID(id), Engine: task.EngineSleep, Command: "sleep", Args: args[i][:], Trace: traceBase + id}
		}
		d.inflight.Add(int64(w.bundle))
		if err := sys.cli.Submit(tasks); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		if tr != nil {
			tr.submitDone(off/uint64(w.bundle), t0, d.now())
		}
	}
	return nil
}

func (d *driver) receiveLoop(sys *system, first uint64, ws *windowStats, tr *tracer, submitted <-chan error) error {
	total := uint64(ws.tasks)
	room := int64(sys.w.inflight - sys.w.bundle)
	results := sys.cli.Results()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()

	var got, gotAtTick uint64
	idle := time.Duration(0)
	allSubmitted := false
	start, cpu0 := d.now(), cpuTime()
	for got < total || !allSubmitted {
		select {
		case r := <-results:
			now := d.now()
			idx := uint64(r.ID) - d.idBase
			switch {
			case idx >= first+total:
				d.unknown++
				continue
			case d.seen[idx/64]&(1<<(idx%64)) != 0:
				d.duplicated++
				continue
			}
			d.seen[idx/64] |= 1 << (idx % 64)
			if r.Failed() {
				d.nonZero++
			}
			t0 := d.sentAt[idx/uint64(d.bundle)].Load()
			if d.inflight.Add(-1) == room {
				select {
				case d.wake <- struct{}{}:
				default:
				}
			}
			ws.lat.add(now - t0)
			if tr != nil {
				tr.taskDone(idx-first, uint64(d.bundle), t0, now, r)
			}
			if got++; got == total {
				ws.elapsed, ws.cpu = time.Duration(now-start), cpuTime()-cpu0
			}
		case err := <-submitted:
			if err != nil {
				return err
			}
			allSubmitted = true
		case <-tick.C:
			if got != gotAtTick {
				gotAtTick, idle = got, 0
			} else if idle += time.Second; idle >= noProgressLimit {
				return errNoProgress
			}
		}
	}
	return nil
}

// drain counts results that arrive after everything was answered: each is a
// duplicate or a stranger. It gives late ones a moment to show up.
func (d *driver) drain(sys *system) {
	deadline := time.After(50 * time.Millisecond)
	for {
		select {
		case r := <-sys.cli.Results():
			if idx := uint64(r.ID) - d.idBase; idx < d.next {
				d.duplicated++
			} else {
				d.unknown++
			}
		case <-deadline:
			return
		}
	}
}
