package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/sched"
	"falkon/internal/task"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// The layer microbenchmarks isolate one layer by giving its neighbours zero
// work (the method of "Runtime vs Scheduler: Analyzing Dask's Overheads"):
// each calls only the layer's public functions and reads only the counters
// it already exposes. They run in the traced run, never in the run that
// measures end-to-end figures.

// medianOf runs fn rounds times and returns the median of what it returns,
// so one disturbed round does not set the figure.
func medianOf(rounds int, fn func() float64) float64 {
	xs := make([]float64, rounds)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// schedLayer drives sched.Core in-process from one goroutine: every item
// goes Enqueue → Offer → PopIdle → Pick → Assign → Complete on 4 executors.
func schedLayer(out map[string]float64) {
	const items = 200_000
	type item struct {
		id     uint64
		tenant string
	}
	tenant := func(x item) string { return x.tenant }

	cycle := func(fair *sched.FairShare) (nsPerItem, allocsPerItem float64) {
		core := sched.NewCore[int, uint64, item](sched.Options[item]{Tenant: tenant})
		core.SetFairShare(fair)
		for e := 0; e < executors; e++ {
			core.Offer(core.AddExec(e, 1))
		}
		tenants := [2]string{"a", "b"}
		m0, t0 := mallocs(), time.Now()
		for i := uint64(0); i < items; i++ {
			now := time.Duration(i)
			core.Enqueue(now, item{id: i, tenant: tenants[i&1]})
			x, _ := core.PopIdle()
			it, _, _ := core.Pick(x)
			core.Assign(now, x, i, it)
			core.Complete(x.ID, i)
			core.Offer(x)
		}
		return float64(time.Since(t0).Nanoseconds()) / items, float64(mallocs()-m0) / items
	}
	var allocs float64
	out["sched.cycle_ns"] = medianOf(3, func() float64 {
		ns, a := cycle(nil)
		allocs = a
		return ns
	})
	out["sched.cycle_allocs"] = allocs
	out["sched.fair_cycle_ns"] = medianOf(3, func() float64 {
		ns, _ := cycle(&sched.FairShare{Weights: map[string]float64{"a": 1, "b": 2}})
		return ns
	})

	// A steal: the task queues on shard 0, the idle executor lives on shard
	// 1, so every pick crosses shards through StealPick.
	out["sched.steal_ns"] = medianOf(3, func() float64 {
		sh := sched.NewSharded[int, uint64, item](2, sched.Options[item]{})
		home := sh.Shard(1)
		x := home.AddExec(0, 1)
		t0 := time.Now()
		for i := uint64(0); i < items; i++ {
			now := time.Duration(i)
			sh.Shard(0).Enqueue(now, item{id: i})
			it, _, _ := sh.StealPick(1)
			home.Assign(now, x, i, it)
			home.Complete(0, i)
		}
		return float64(time.Since(t0).Nanoseconds()) / items
	})
}

// fprotoLayer times encoding/json over the two frames that carry tasks: a
// 64-task SubmitRequest and a 64-result notify, with 0 B and 1 KiB payloads.
func fprotoLayer(out map[string]float64) error {
	const bundle, reps = 64, 200
	for _, v := range []struct {
		suffix  string
		payload string
	}{{"", ""}, {"_1k", strings.Repeat("x", 1024)}} {
		submit := fproto.SubmitRequest{EPR: "falkon-instance-1"}
		notify := fproto.ResultsNotify{EPR: "falkon-instance-1"}
		for i := 0; i < bundle; i++ {
			id := task.ID(1_000_000_000 + i)
			t := task.Task{ID: id, Engine: task.EngineSleep, Command: "sleep", Trace: traceBase + uint64(id)}
			if v.payload != "" {
				t.Args = []string{v.payload}
			}
			submit.Tasks = append(submit.Tasks, t)
			notify.Results = append(notify.Results, task.Result{
				ID: id, Stdout: v.payload, ExecutorID: "exec-0", Attempts: 1, Trace: t.Trace,
				QueuedAt: 5 * time.Second, DispatchedAt: 5*time.Second + 9*time.Millisecond,
				StartedAt: 5*time.Second + 10*time.Millisecond, FinishedAt: 5*time.Second + 10*time.Millisecond + 3*time.Microsecond,
			})
		}
		for _, m := range []struct {
			name  string
			value any
			fresh func() any
		}{
			{"submit", submit, func() any { return new(fproto.SubmitRequest) }},
			{"result", notify, func() any { return new(fproto.ResultsNotify) }},
		} {
			body, err := json.Marshal(m.value)
			if err != nil {
				return err
			}
			out["fproto."+m.name+"_bytes_per_task"+v.suffix] = float64(len(body)) / bundle
			out["fproto."+m.name+"_encode_ns_per_task"+v.suffix] = medianOf(5, func() float64 {
				t0 := time.Now()
				for i := 0; i < reps; i++ {
					if _, err = json.Marshal(m.value); err != nil {
						break
					}
				}
				return float64(time.Since(t0).Nanoseconds()) / (reps * bundle)
			})
			out["fproto."+m.name+"_decode_ns_per_task"+v.suffix] = medianOf(5, func() float64 {
				t0 := time.Now()
				for i := 0; i < reps; i++ {
					if err = json.Unmarshal(body, m.fresh()); err != nil {
						break
					}
				}
				return float64(time.Since(t0).Nanoseconds()) / (reps * bundle)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// wsrpcLayer measures the transport alone against an echo server on
// loopback: serial and pipelined calls, pushed notifications, and how many
// frames its cork writer puts into one socket write.
func wsrpcLayer(out map[string]float64) error {
	const calls, notifies = 20_000, 100_000

	type echoServer struct {
		srv *wsrpc.Server
		reg *obs.Registry
	}
	start := func(sec wsrpc.SecurityProfile, psk []byte) (echoServer, error) {
		reg := obs.NewRegistry()
		srv := wsrpc.NewServer(wsrpc.ServerOptions{Security: sec, PSK: psk, Metrics: reg})
		srv.RegisterFast("echo", func(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
			var msg string
			if err := json.Unmarshal(body, &msg); err != nil {
				return nil, err
			}
			return msg, nil
		})
		// blast pushes n notifications to the caller, then answers.
		srv.Register("blast", func(p *wsrpc.Peer, body json.RawMessage) (any, error) {
			var n int
			if err := json.Unmarshal(body, &n); err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				if err := p.Notify("tick", i); err != nil {
					return nil, err
				}
			}
			return n, nil
		})
		return echoServer{srv, reg}, srv.Listen("127.0.0.1:0")
	}
	serial := func(c *wsrpc.Client) (p50Micros, allocsPerCall float64, err error) {
		var h hist
		m0 := mallocs()
		for i := 0; i < calls && err == nil; i++ {
			var got string
			t0 := time.Now()
			err = c.Call("echo", "ping", &got)
			h.add(time.Since(t0).Nanoseconds())
		}
		return h.quantile(0.5) / 1e3, float64(mallocs()-m0) / calls, err
	}

	es, err := start(wsrpc.SecurityNone, nil)
	if err != nil {
		return err
	}
	defer es.srv.Close()
	var ticks atomic.Int64
	allTicks := make(chan struct{}, 1)
	c, err := wsrpc.Dial(es.srv.Addr(), wsrpc.ClientOptions{OnNotify: func(string, json.RawMessage) {
		if ticks.Add(1) == notifies {
			allTicks <- struct{}{}
		}
	}})
	if err != nil {
		return err
	}
	defer c.Close()
	if out["wsrpc.call_rtt_us"], out["wsrpc.call_allocs"], err = serial(c); err != nil {
		return err
	}

	// Two goroutines keep two calls in flight on the one connection.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	t0 := time.Now()
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls/2 && errs[g] == nil; i++ {
				var got string
				errs[g] = c.Call("echo", "ping", &got)
			}
		}(g)
	}
	wg.Wait()
	out["wsrpc.calls_per_s_pipelined"] = calls / time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	before := es.reg.Snapshot()
	t0 = time.Now()
	if err := c.Call("blast", notifies, nil); err != nil {
		return err
	}
	<-allTicks
	out["wsrpc.notify_per_s"] = notifies / time.Since(t0).Seconds()
	after := es.reg.Snapshot()
	frames := after.Histogram("wsrpc_frames_per_flush").Sum - before.Histogram("wsrpc_frames_per_flush").Sum
	if flushes := after.Counters["wsrpc_flushes_total"] - before.Counters["wsrpc_flushes_total"]; flushes > 0 {
		out["wsrpc.frames_per_flush"] = frames / float64(flushes)
	}

	psk := []byte("benchmark-psk")
	ss, err := start(wsrpc.SecuritySecureConversation, psk)
	if err != nil {
		return err
	}
	defer ss.srv.Close()
	sc, err := wsrpc.Dial(ss.srv.Addr(), wsrpc.ClientOptions{Security: wsrpc.SecuritySecureConversation, PSK: psk})
	if err != nil {
		return err
	}
	defer sc.Close()
	out["wsrpc.secure_call_rtt_us"], _, err = serial(sc)
	return err
}

// walLayer measures the journal alone, in a directory of its own under
// journalRoot, with the same stubbed fsync as the journaled workload.
func walLayer(out map[string]float64, journalRoot string) error {
	const records = 200_000
	dir, err := newJournalDir(journalRoot)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	opts := wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncGroup}, FS: noSyncFS{wal.OS}, Metrics: reg}
	_, j, _, err := wal.Recover(dir, opts)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			j.Close()
		}
	}()
	const epr = "falkon-instance-1"
	if err := j.Append(wal.KindInstance, wal.InstanceRec{EPR: epr, Notify: true}); err != nil {
		return err
	}

	// What a task leaves in the journal: its share of a 64-task accept
	// record, one dispatch record, one complete record.
	bundleTasks := make([]task.Task, 64)
	t0 := time.Now()
	for i := 0; i < records; {
		base := task.ID(1_000_000_000 + i)
		for k := range bundleTasks {
			bundleTasks[k] = task.Task{ID: base + task.ID(k), Command: "sleep", Trace: traceBase + uint64(base) + uint64(k)}
		}
		if err := j.Append(wal.KindAccept, wal.AcceptRec{EPR: epr, Tasks: bundleTasks}); err != nil {
			return err
		}
		i++
		for k := 0; k < len(bundleTasks) && i < records; k++ {
			id := base + task.ID(k)
			if err := j.Append(wal.KindDispatch, wal.DispatchRec{EPR: epr, ID: id, Exec: "exec-0"}); err != nil {
				return err
			}
			// Every second task stays outstanding, so recovery has pending
			// state to rebuild, not just records to skip.
			if i++; k%2 == 0 && i < records {
				if err := j.Append(wal.KindComplete, wal.CompleteRec{EPR: epr, Result: task.Result{ID: id, ExecutorID: "exec-0", Attempts: 1}}); err != nil {
					return err
				}
				i++
			}
		}
	}
	out["wal.append_ns"] = float64(time.Since(t0).Nanoseconds()) / records

	// The durability barrier, serially: nothing to share a commit with.
	var h hist
	rec := wal.AcceptRec{EPR: epr, Tasks: bundleTasks[:1]}
	for i := 0; i < 5000; i++ {
		t0 := time.Now()
		hd, err := j.AppendWait(wal.KindAccept, rec)
		if err == nil {
			err = hd.Wait()
		}
		if err != nil {
			return err
		}
		h.add(time.Since(t0).Nanoseconds())
	}
	out["wal.append_wait_us"] = h.quantile(0.5) / 1e3

	// Group commit under two appenders waiting concurrently.
	a0, f0 := j.Appends(), j.Fsyncs()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g, ap := range j.Appenders(2) {
		wg.Add(1)
		go func(g int, ap *wal.Appender) {
			defer wg.Done()
			for i := 0; i < 5000 && errs[g] == nil; i++ {
				hd, err := ap.AppendWait(wal.KindAccept, rec)
				if err == nil {
					err = hd.Wait()
				}
				errs[g] = err
			}
		}(g, ap)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if fsyncs := j.Fsyncs() - f0; fsyncs > 0 {
		out["wal.records_per_fsync"] = float64(j.Appends()-a0) / float64(fsyncs)
	}

	closed = true
	if err := j.Close(); err != nil {
		return err
	}
	snap := reg.Snapshot()
	out["wal.bytes_per_record"] = float64(snap.Counters["falkon_wal_bytes_total"]) / float64(snap.Counters["falkon_wal_appends_total"])

	t0 = time.Now()
	st, j2, info, err := wal.Recover(dir, wal.Options{Sync: opts.Sync, FS: opts.FS})
	if err != nil {
		return err
	}
	out["wal.recover_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	if len(st.Pending) == 0 {
		err = fmt.Errorf("wal: recovery of %d records (%+v) rebuilt no pending task", records, info)
	}
	if cerr := j2.Close(); err == nil {
		err = cerr
	}
	return err
}
