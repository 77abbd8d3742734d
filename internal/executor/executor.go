// Package executor implements the Falkon executor: the lightweight agent
// that registers with a dispatcher, listens for work notifications (the push
// half of the hybrid protocol), pulls tasks — or is handed them in the push
// itself, once a slot has told the dispatcher it is waiting — runs them, and
// delivers results with piggy-backed requests for more work.
//
// Besides the real fork/exec engine, the executor supports synthetic task
// engines (sleep, data, func) so experiments and tests can run without
// process-spawn noise, optionally compressing synthetic durations through
// SleepScale.
package executor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/faultinj"
	"falkon/internal/fproto"
	"falkon/internal/jsonwire"
	"falkon/internal/obs"
	"falkon/internal/sched"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// Func is an in-process task body for EngineFunc tasks, registered by name.
type Func func(t task.Task) (stdout string, exitCode int, err error)

// Options configures an executor.
type Options struct {
	// ID names the executor; it must be unique per dispatcher.
	ID string
	// DispatcherAddr is the dispatcher's wsrpc address, or a comma-separated
	// chain tried in order ("leaf:5001,root:5000"): in a hierarchical tree
	// the executor registers with its leaf and, in Reconnect mode, fails
	// over to the next address in the chain when the leaf stays down.
	DispatcherAddr string
	// Slots is the number of tasks run concurrently (default 1; the paper
	// runs one executor per processor).
	Slots int
	// PSK is the dispatcher's pre-shared key, if it has one.
	PSK []byte
	// IdleTimeout implements the distributed resource release policy: an
	// executor idle this long deregisters and stops (0 = never).
	IdleTimeout time.Duration
	// Prefetch caps the tasks asked for in one work pull (dispatcher->executor
	// bundling). Under the cap the executor sizes each ask itself (see
	// sched.PullSizer); 0, the default, is the protocol cap of 64, and 1 is the
	// paper's per-task dispatch. falkon-executor's -prefetch sets it;
	// ROADMAP item 4 decides whether the cap earns its place.
	Prefetch int
	// SleepScale compresses (or stretches) synthetic sleep durations;
	// default 1.0. core.Config passes it through, so that the examples and
	// falkon-workflow can make logical seconds pass quickly.
	SleepScale float64
	// Funcs registers EngineFunc bodies by Task.Command.
	Funcs map[string]Func
	// DataCost computes synthetic staging time for EngineData tasks; nil
	// means staging is free. core.Config passes it through; the stacking
	// example prices its staging with it.
	DataCost func(io task.IOSpec) time.Duration
	// ExecTimeout bounds EngineExec process run time (0 = none).
	ExecTimeout time.Duration
	// Logf receives executor logs; nil silences them.
	Logf func(format string, args ...any)
	// Metrics receives executor-side instruments (task counts, run/overhead
	// latency, state transitions) plus the wsrpc client's per-method stats.
	// When nil a private registry is created (see Executor.Metrics).
	Metrics *obs.Registry
	// Tracer receives the executor's task-lifecycle events, stamped on the
	// dispatcher's timeline; nil, the default, gathers and records none.
	// falkon-executor passes one only when -debug-addr will serve it, and
	// tests that read an executor's events pass their own.
	Tracer *obs.Tracer

	// Reconnect keeps the executor alive across dispatcher restarts: on a
	// dropped connection it re-registers with jittered exponential backoff
	// instead of stopping. Retries are counted in
	// falkon_register_retries_total.
	Reconnect bool
	// ReconnectTimeout bounds one continuous outage (default 30s).
	ReconnectTimeout time.Duration
	// Backoff tunes the re-register schedule (zero value = backoff.Default).
	Backoff backoff.Policy

	// Faults, when set, injects executor faults (crash mid-task, stall,
	// result-then-die) and transport faults on the dispatcher connection
	// (chaos testing only).
	Faults *faultinj.Injector
	// CrashFunc is what an injected crash calls (default os.Exit). A test
	// substitutes a recorder, since os.Exit would end the test binary.
	CrashFunc func(code int)
}

// Executor is a running executor instance.
type Executor struct {
	opts Options

	// sess owns the dispatcher connection: the address chain, re-register
	// with backoff (the distributed-falkon restart story — executors outlive
	// the dispatcher that recovers from its journal), and the outage bound.
	sess *wsrpc.Session

	// Observability. epoch is the dispatcher's wall-clock epoch (UnixNano)
	// from registration; trace events are stamped relative to it so executor
	// and dispatcher spans share one timeline despite separate clocks. The
	// executor times everything on the monotonic clock (clock), and shift
	// places a reading on that timeline: it is the wall time of a base read as
	// the epoch was exchanged, less the epoch and the base's own reading. Both
	// are atomic because a reconnect re-bases them onto the new dispatcher's
	// epoch while slots are stamping events.
	reg         *obs.Registry
	started     time.Time // clock's zero
	epoch       atomic.Int64
	shift       atomic.Int64
	cDone       *obs.Counter
	cFailed     *obs.Counter
	cBusy       *obs.Counter
	cIdle       *obs.Counter
	cRegRetries *obs.Counter
	gActive     *obs.Gauge
	hRun        *obs.Histogram
	hOverhed    *obs.Histogram

	wake chan struct{}
	// pushed hands grants that rode a work push from the read loop to a
	// waiting slot. The dispatcher pushes only to slots that told it they are
	// waiting, so at most Slots grants are ever unconsumed and the buffer is
	// that deep (onNotify has the read loop wait for nothing all the same).
	// A grant travels in a holder off the free list (DESIGN.md §9, "Scratch"),
	// which the slot puts back once the grant's tasks have run — before the
	// Deliver that can bring the next push — so Slots+1 holders go round: one
	// a slot, and one for the read loop to decode into.
	pushed chan *fproto.GetWorkReply
	free   chan *fproto.GetWorkReply
	// readers are the grant decoders, whose chunks outlive a grant (DESIGN.md
	// §9, "Chunks"): [0] the read loop's, for pushes, and [1+i] slot i's.
	readers []jsonwire.Reader
	stop    chan struct{}
	done    chan struct{}

	mu       sync.Mutex
	active   int
	lastBusy time.Duration // a clock reading
	stopped  bool

	tasksRun int64
}

// Start connects to the dispatcher, registers, and begins serving work.
func Start(opts Options) (*Executor, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("executor: empty id")
	}
	if opts.Slots <= 0 {
		opts.Slots = 1
	}
	if opts.Prefetch <= 0 || opts.Prefetch > maxPull {
		opts.Prefetch = maxPull
	}
	if opts.SleepScale == 0 {
		opts.SleepScale = 1.0
	}
	if opts.ReconnectTimeout <= 0 {
		opts.ReconnectTimeout = 30 * time.Second
	}
	addrs := fproto.SplitAddrs(opts.DispatcherAddr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("executor %s: no dispatcher address", opts.ID)
	}
	e := &Executor{
		opts:    opts,
		wake:    make(chan struct{}, opts.Slots),
		pushed:  make(chan *fproto.GetWorkReply, opts.Slots),
		free:    make(chan *fproto.GetWorkReply, opts.Slots+1),
		readers: make([]jsonwire.Reader, opts.Slots+1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	e.reg = opts.Metrics
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.cDone = e.reg.Counter("falkon_executor_tasks_total")
	e.cFailed = e.reg.Counter("falkon_executor_failures_total")
	e.cBusy = e.reg.Counter(obs.Labeled("falkon_executor_transitions_total", "state", "busy"))
	e.cIdle = e.reg.Counter(obs.Labeled("falkon_executor_transitions_total", "state", "idle"))
	e.cRegRetries = e.reg.Counter("falkon_register_retries_total")
	e.gActive = e.reg.Gauge("falkon_executor_active_slots")
	e.hRun = e.reg.Histogram("falkon_executor_run_seconds")
	e.hOverhed = e.reg.Histogram("falkon_executor_overhead_seconds")
	e.started = time.Now()
	e.sess = wsrpc.NewSession(wsrpc.SessionOptions{
		Addrs: addrs,
		Client: wsrpc.ClientOptions{
			PSK:      opts.PSK,
			OnNotify: e.onNotify,
			Metrics:  e.reg,
			Faults:   opts.Faults,
		},
		Reconnect:        opts.Reconnect,
		ReconnectTimeout: opts.ReconnectTimeout,
		Backoff:          opts.Backoff,
		Handshake:        e.register,
		OnUp:             e.onReconnect,
		Retries:          e.cRegRetries,
	})
	if err := e.sess.Open(); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for i := 0; i < opts.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.workLoop(&e.readers[1+i])
		}()
	}
	go func() {
		wg.Wait()
		if _, _, err := e.sess.Conn(); err != nil && !e.isStopping() {
			e.logf("executor %s: %v", opts.ID, err)
		}
		e.sess.Close()
		close(e.done)
	}()
	return e, nil
}

// register is the session handshake: no slot sees a connection the
// dispatcher has not registered this executor on.
func (e *Executor) register(cli *wsrpc.Client, _ int) error {
	var reply fproto.RegisterReply
	err := cli.Call(fproto.MethodRegister, fproto.RegisterRequest{
		ExecutorID:    e.opts.ID,
		Slots:         e.opts.Slots,
		AcceptsGrants: true,
	}, &reply)
	if err != nil {
		return fmt.Errorf("executor %s: register: %w", e.opts.ID, err)
	}
	base := time.Now()
	if reply.DispatcherEpoch != 0 {
		e.epoch.Store(reply.DispatcherEpoch)
	} else if e.epoch.Load() == 0 {
		e.epoch.Store(base.UnixNano()) // old dispatcher: local timeline
	}
	e.shift.Store(base.UnixNano() - e.epoch.Load() - int64(base.Sub(e.started)))
	return nil
}

// onReconnect wakes every slot once a replacement connection is up: the
// recovered dispatcher may hold replayed work whose work-available push
// raced the reconnect.
func (e *Executor) onReconnect(*wsrpc.Client) {
	e.logf("executor %s: re-registered", e.opts.ID)
	e.wakeSlots(e.opts.Slots)
}

// wakeSlots signals up to n slots. It never blocks: the wake channel is
// buffered per slot and extra signals are dropped (workers re-pull until
// the queue is dry anyway).
func (e *Executor) wakeSlots(n int) {
	for i := 0; i < n; i++ {
		select {
		case e.wake <- struct{}{}:
		default:
			return
		}
	}
}

// onNotify takes the dispatcher's work pushes; it runs on the client read
// loop. A work-available push wakes one slot per waiting task (its queued-tasks
// hint), so multi-slot executors ramp up from a single push; a work grant is
// handed to a waiting slot as it is. A grant that arrives once shutdown has
// begun is left unread: the deregistration has the dispatcher replay it.
func (e *Executor) onNotify(method string, body json.RawMessage) {
	switch method {
	case fproto.NotifyWorkAvailable:
		n := 1
		var wa fproto.WorkAvailable
		if err := wa.DecodeJSON(body); err == nil && wa.Queued > n {
			n = wa.Queued
		}
		e.wakeSlots(min(n, e.opts.Slots))
	case fproto.NotifyWorkGrant:
		var g *fproto.GetWorkReply
		select {
		case g = <-e.free:
		default: // the first pushes, or more grants than slots
			g = new(fproto.GetWorkReply)
		}
		if err := g.DecodeKept(body, &e.readers[0]); err != nil {
			e.logf("executor %s: work grant: %v", e.opts.ID, err)
			e.release(g)
			return
		}
		select {
		case e.pushed <- g:
		default:
			// More grants than slots were waiting for: the dispatcher's count
			// is not this executor's to trust. The read loop cannot wait for
			// room — the reply that frees a slot may be behind this frame —
			// so the grant waits on a goroutine of its own.
			go e.handOver(g)
		}
	}
}

// handOver waits for a slot to take a grant the channel had no room for.
func (e *Executor) handOver(g *fproto.GetWorkReply) {
	select {
	case e.pushed <- g:
	case <-e.stop:
	}
}

// release puts a grant holder back on the free list; nothing reads it after
// (Recycle is here for fproto.Scribble, which holds tests to that). What it
// still holds is kept, length and all, for the next decode to compare against.
func (e *Executor) release(g *fproto.GetWorkReply) {
	fproto.Recycle(g.Assignments)
	select {
	case e.free <- g:
	default: // one made for a grant too many
	}
}

// logf logs through the configured sink.
func (e *Executor) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// ID returns the executor id.
func (e *Executor) ID() string { return e.opts.ID }

// Metrics returns the executor's instrument registry.
func (e *Executor) Metrics() *obs.Registry { return e.reg }

// SpanHeader describes this executor's span dump for offline merging: the
// dispatcher epoch its events are stamped against, plus the NTP-style clock
// offset estimated from RPC round trips (dispatcher clock minus local
// clock), so falkon-spans -merge can correct executor spans onto the
// dispatcher's timeline.
func (e *Executor) SpanHeader() obs.DumpHeader {
	h := obs.DumpHeader{
		Proc:          "executor:" + e.opts.ID,
		EpochUnixNano: e.epoch.Load(),
	}
	if cli, _, err := e.sess.Conn(); err == nil {
		if off, rtt, ok := cli.ClockOffset(); ok {
			h.ClockOffsetNS = int64(off)
			h.ClockRTTNS = int64(rtt)
		}
	}
	return h
}

// clock reads the monotonic clock: the time since the executor started.
func (e *Executor) clock() time.Duration { return time.Since(e.started) }

// on places a clock reading on the dispatcher-epoch timeline.
func (e *Executor) on(c time.Duration) time.Duration { return c + time.Duration(e.shift.Load()) }

// TasksRun returns the number of tasks completed so far.
func (e *Executor) TasksRun() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tasksRun
}

// Done is closed once the executor has fully stopped (explicit Stop, idle
// release, or dispatcher disconnect).
func (e *Executor) Done() <-chan struct{} { return e.done }

// Stop deregisters and shuts the executor down, waiting for in-flight tasks
// to finish delivering.
func (e *Executor) Stop() {
	e.shutdown("stopped")
	<-e.done
}

// releaseIdle implements the distributed release policy once the idle
// timeout expires.
func (e *Executor) releaseIdle() {
	if e.shutdown("idle release") {
		e.logf("executor %s: idle for %v, released", e.opts.ID, e.opts.IdleTimeout)
	}
}

// shutdown begins the stop sequence once: a best-effort deregistration (the
// dispatcher also handles disconnects), then the stop signal. It reports
// whether this call was the one that began it.
func (e *Executor) shutdown(reason string) bool {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return false
	}
	e.stopped = true
	e.mu.Unlock()
	if cli, _, err := e.sess.Conn(); err == nil {
		_ = cli.Call(fproto.MethodDeregister, fproto.DeregisterRequest{ExecutorID: e.opts.ID, Reason: reason}, nil)
	}
	close(e.stop)
	return true
}

// workLoop is one slot's serve loop: wait for a notification, pull work —
// unless the notification brought it — and keep running piggy-backed
// assignments until the dispatcher runs dry. rd is the slot's grant decoder.
func (e *Executor) workLoop(rd *jsonwire.Reader) {
	var ps slot
	ps.pulled.rd, ps.acked.rd = rd, rd
	for {
		var idleC <-chan time.Time
		var idleTimer *time.Timer
		if e.opts.IdleTimeout > 0 {
			idleTimer = time.NewTimer(e.idleRemaining())
			idleC = idleTimer.C
		}
		woke := false
		var g *fproto.GetWorkReply
		select {
		case <-e.stop:
		case <-e.sess.Done(): // dropped without Reconnect, or gave up redialing
		case <-idleC:
			if !e.idleExpired() {
				continue // another slot was busy; re-arm
			}
			e.releaseIdle()
		case <-e.wake:
			woke = true
		case g = <-e.pushed:
			woke = true
		}
		if idleTimer != nil {
			idleTimer.Stop()
		}
		if !woke {
			return
		}
		cli, _, err := e.sess.Conn()
		if err != nil {
			return
		}
		// One reading of the clock is when the work arrived, when its first
		// task was picked up and, for a pull, the end of the round trip.
		if g != nil {
			got := e.clock()
			e.traceAssigned(&ps, got, obs.EvPushed, g.Assignments)
			e.runAssignments(cli, &ps, g.Assignments, g, got)
			continue
		}
		sent := e.clock()
		ps.ask = fproto.GetWorkRequest{ExecutorID: e.opts.ID, Max: ps.Ask(e.opts.Prefetch)}
		err = cli.Call(fproto.MethodGetWork, &ps.ask, &ps.pulled)
		got := e.clock()
		if err != nil {
			// A dropped connection is the session's to replace: park again
			// until onReconnect wakes the slots on the re-registered one (or
			// the session ends). A refusal from a live dispatcher ends the slot.
			var remote *wsrpc.RemoteError
			if stopping := e.isStopping(); stopping || errors.As(err, &remote) {
				if !stopping {
					e.logf("executor %s: get-work: %v", e.opts.ID, err)
				}
				return
			}
			continue
		}
		ps.RTT = got - sent
		e.traceAssigned(&ps, got, obs.EvPulled, ps.pulled.Assignments)
		e.runAssignments(cli, &ps, ps.pulled.Assignments, nil, got)
	}
}

// slot is what one workLoop keeps from batch to batch: the sizer and its
// scratch (DESIGN.md §9, "Scratch") — the two requests it sends, handed to Call
// by pointer, and the two replies it decodes: a batch is run, and its results
// encoded from deliver, before the next reply is decoded over the assignments
// it was.
type slot struct {
	sched.PullSizer
	evs     []obs.Event // trace events gathered for the tracer to take in one call
	run     []float64   // the batch's run and overhead seconds, for the histograms
	over    []float64
	traces  []uint64 // the batch's trace IDs, which its results do not carry
	ask     fproto.GetWorkRequest
	pulled  grant
	deliver fproto.DeliverRequest
	acked   grant // a DeliverReply
}

// grant is a reply a slot decodes through its grant decoder, rd.
type grant struct {
	fproto.GetWorkReply
	rd *jsonwire.Reader
}

func (g *grant) DecodeJSON(b []byte) error { return g.DecodeKept(b, g.rd) }

// traceAssigned records how a batch of assignments reached this executor at
// clock reading c, after whatever events ps has gathered. With no tracer a
// slot gathers nothing.
func (e *Executor) traceAssigned(ps *slot, c time.Duration, kind obs.EventKind, as []fproto.Assignment) {
	if e.opts.Tracer == nil {
		return
	}
	at := e.on(c)
	for _, a := range as {
		ps.evs = append(ps.evs, obs.Event{At: at, Kind: kind, Trace: a.Task.Trace, Task: a.Task.ID, EPR: a.EPR, Executor: e.opts.ID})
	}
	e.opts.Tracer.RecordAll(ps.evs)
	ps.evs = ps.evs[:0]
}

// isStopping reports whether shutdown has begun.
func (e *Executor) isStopping() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stopped
}

// idleRemaining returns how long until the idle timeout would fire.
func (e *Executor) idleRemaining() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	rem := e.opts.IdleTimeout - (e.clock() - e.lastBusy)
	if rem < time.Millisecond {
		rem = time.Millisecond
	}
	return rem
}

// idleExpired reports whether the executor (all slots) has been idle past
// the timeout.
func (e *Executor) idleExpired() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active == 0 && e.clock()-e.lastBusy >= e.opts.IdleTimeout
}

// markBusy/markIdle maintain idle accounting across slots.
func (e *Executor) markBusy() {
	e.mu.Lock()
	e.active++
	e.mu.Unlock()
	e.cBusy.Inc()
	e.gActive.Add(1)
}

func (e *Executor) markIdle(ran int64, now time.Duration) {
	e.mu.Lock()
	e.active--
	e.lastBusy = now
	e.tasksRun += ran
	e.mu.Unlock()
	e.cIdle.Inc()
	e.gActive.Add(-1)
}

// runAssignments executes tasks and delivers results; each delivery asks
// for more work (piggy-backing), looping until no new work arrives. The whole
// batch is pinned to one connection: if it dies mid-delivery the results are
// dropped and the (journaling) dispatcher re-dispatches the tasks after
// recovery, so nothing retries against a connection that no longer knows the
// outstanding set. pushed, unless nil, is the holder as came in, given back
// once its tasks have run; pickup is when as arrived, a clock reading.
func (e *Executor) runAssignments(cli *wsrpc.Client, ps *slot, as []fproto.Assignment, pushed *fproto.GetWorkReply, pickup time.Duration) {
	if len(as) == 0 {
		if pushed != nil {
			e.release(pushed)
		}
		return
	}
	e.markBusy()
	var ran int64
	// Two readings of the clock per task, its start and its end: a task is
	// picked up when the one before it ended, and the slot is idle from when
	// its last Deliver came back.
	defer func() { e.markIdle(ran, pickup) }()
	traced := e.opts.Tracer != nil
	for len(as) > 0 {
		results := fproto.Recycle(ps.deliver.Results)
		ps.run, ps.over, ps.traces = ps.run[:0], ps.over[:0], ps.traces[:0]
		for i := range as {
			a := &as[i]
			if e.opts.Faults.ExecCrash() {
				e.crash("crash mid-task")
			}
			r, start, end := e.runTask(&a.Task, a.CacheHit)
			runDur, overhead := end-start, start-pickup
			pickup = end
			kind := obs.EvFinished
			if r.Failed() {
				kind = obs.EvFailed
				e.cFailed.Inc()
			}
			if traced { // recorded with the batch's other events, after its delivery
				ps.evs = append(ps.evs,
					obs.Event{At: e.on(start), Kind: obs.EvStarted, Trace: a.Task.Trace, Task: r.ID, EPR: a.EPR, Executor: e.opts.ID},
					obs.Event{At: e.on(end), Kind: kind, Trace: a.Task.Trace, Task: r.ID, EPR: a.EPR, Executor: e.opts.ID})
			}
			ps.traces = append(ps.traces, a.Task.Trace)
			e.cDone.Inc()
			ps.run, ps.over = append(ps.run, runDur.Seconds()), append(ps.over, overhead.Seconds())
			ps.Observe(runDur, len(r.Stdout)+len(r.Stderr))
			results = append(results, fproto.TaggedResult{
				EPR:         a.EPR,
				Result:      r,
				RunDur:      runDur,
				OverheadDur: overhead,
			})
			ran++
		}
		e.hRun.ObserveAll(ps.run)
		e.hOverhed.ObserveAll(ps.over)
		if pushed != nil {
			// Before the Deliver whose answer parks this slot again: the next
			// push finds the holder back. results has what is kept of as.
			e.release(pushed)
			pushed = nil
		}
		// The envelope carries the batch head's trace (per-result context
		// rides in the result bodies), so the return hop is attributable too.
		ps.deliver = fproto.DeliverRequest{ExecutorID: e.opts.ID, Results: results, WantWork: true, MaxNew: ps.Ask(e.opts.Prefetch)}
		err := cli.CallTrace(fproto.MethodDeliver, &ps.deliver, &ps.acked, ps.traces[0], 0)
		back := e.clock()
		waited := back - pickup // from the last task's end
		pickup = back
		if err != nil {
			e.traceAssigned(ps, 0, 0, nil) // what the batch gathered
			if !e.isStopping() {
				e.logf("executor %s: deliver: %v", e.opts.ID, err)
			}
			return
		}
		ps.RTT = waited
		if e.opts.Faults.ResultThenDie() {
			// The dispatcher holds the results but this executor dies before
			// acting on the acknowledgment — the duplicate-provoking failure.
			e.crash("result-then-die")
		}
		if traced {
			now := e.on(back)
			for i, tr := range results {
				ps.evs = append(ps.evs, obs.Event{At: now, Kind: obs.EvDelivered, Trace: ps.traces[i], Task: tr.Result.ID, EPR: tr.EPR, Executor: e.opts.ID})
			}
		}
		as = ps.acked.Assignments
		e.traceAssigned(ps, back, obs.EvAcked, as)
	}
}

// maxPull is the most tasks one pull asks for.
const maxPull = 64

// runTask executes one task and returns its result and when it started and
// ended, as clock readings. cacheHit marks data-aware assignments whose input
// is already resident on this node, so staging is skipped. The result names
// neither this executor nor the task's trace: the dispatcher sets both from
// the Deliver and its own record (DESIGN.md §9, "Relay").
func (e *Executor) runTask(t *task.Task, cacheHit bool) (r task.Result, start, end time.Duration) {
	r = task.Result{ID: t.ID}
	if d := e.opts.Faults.ExecStall(); d > 0 {
		// Injected stall: long enough to trip the dispatcher's replay
		// timeout, so the same task races its own re-dispatch.
		time.Sleep(d)
	}
	start = e.clock()
	switch t.Engine {
	case task.EngineSleep:
		e.sleepScaled(t.Duration)
	case task.EngineData:
		if e.opts.DataCost != nil && t.IO != nil && !cacheHit {
			e.sleepScaled(e.opts.DataCost(*t.IO))
		}
		e.sleepScaled(t.Duration)
	case task.EngineFunc:
		fn, ok := e.opts.Funcs[t.Command]
		if !ok {
			r.Err = fmt.Sprintf("executor: no registered func %q", t.Command)
			r.ExitCode = -1
			break
		}
		out, code, err := fn(*t)
		r.Stdout, r.ExitCode = out, code
		if err != nil {
			r.Err = err.Error()
		}
	case task.EngineExec:
		e.runExec(t, &r)
	default:
		r.Err = fmt.Sprintf("executor: unknown engine %v", t.Engine)
		r.ExitCode = -1
	}
	return r, start, e.clock()
}

// crash terminates the process for an injected executor fault. Exit code
// 137 mimics a SIGKILL'd worker, which is what supervisors see in the wild.
func (e *Executor) crash(why string) {
	e.logf("executor %s: faultinj %s: crashing", e.opts.ID, why)
	if e.opts.CrashFunc != nil {
		e.opts.CrashFunc(137)
		return
	}
	os.Exit(137)
}

// sleepScaled sleeps d scaled by SleepScale (skipping zero sleeps).
func (e *Executor) sleepScaled(d time.Duration) {
	if d <= 0 {
		return
	}
	scaled := time.Duration(float64(d) * e.opts.SleepScale)
	if scaled > 0 {
		time.Sleep(scaled)
	}
}

// runExec forks a real process for an EngineExec task.
func (e *Executor) runExec(t *task.Task, r *task.Result) {
	ctx := context.Background()
	if e.opts.ExecTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.ExecTimeout)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, t.Command, t.Args...)
	cmd.Dir = t.Dir
	if len(t.Env) > 0 {
		cmd.Env = t.Env
	}
	// Without a wait delay, a killed shell whose grandchildren inherited
	// the output pipes would block Wait until they exit.
	cmd.WaitDelay = 5 * time.Second
	var stdout, stderr strings.Builder
	cmd.Stdout = limitWriter{&stdout}
	cmd.Stderr = limitWriter{&stderr}
	err := cmd.Run()
	r.Stdout = stdout.String()
	r.Stderr = stderr.String()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			r.ExitCode = ee.ExitCode()
		} else {
			r.Err = err.Error()
			r.ExitCode = -1
		}
	}
}

// limitWriter caps captured process output at 64 KiB, mirroring the paper's
// "optional output strings" without unbounded buffering.
type limitWriter struct{ b *strings.Builder }

const outputCap = 64 << 10

func (w limitWriter) Write(p []byte) (int, error) {
	n := len(p)
	if room := outputCap - w.b.Len(); room > 0 {
		if len(p) > room {
			p = p[:room]
		}
		w.b.Write(p)
	}
	return n, nil
}
