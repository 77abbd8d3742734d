package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"falkon/internal/obs"
)

// sizes fixes a run's length in tasks.
type sizes struct {
	windows   int           // measurement windows; every timing metric is reduced over them
	perWindow int           // tasks per measurement window
	warmUp    int           // tasks per warm-up
	setUps    int           // how many times the system is booted and warmed up
	refSlice  time.Duration // length of the reference slice before and after every timed span
}

func roundUp(n, multiple int) int { return (n + multiple - 1) / multiple * multiple }

// sizesFor converts --seconds into task counts. Two thirds of a second go
// to each window: a third to as many tasks as the seed gets through in that
// time on the 2-core box, a third to the reference slice that follows it. A
// warm-up is one window's worth of tasks.
func sizesFor(w workload, seconds int) sizes {
	per := roundUp(w.ratePerSecond/3, w.bundle)
	return sizes{windows: seconds * 3 / 2, perWindow: per, warmUp: per, setUps: 5, refSlice: time.Second / 3}
}

// setUpTasks is how many tasks one set-up submits.
func (z sizes) setUpTasks(w workload) int { return w.bundle + z.warmUp }

// setUp boots a system and warms it up: a first bundle (so that boot ends
// with a result delivered), then the warm-up in the workload's own loop.
func setUp(d *driver, w workload, z sizes, journalRoot string) (sys *system, boot time.Duration, err error) {
	t0 := time.Now()
	if sys, err = bootSystem(w, journalRoot); err != nil {
		return nil, 0, err
	}
	if _, err = d.run(sys, w.bundle, nil); err == nil {
		boot = time.Since(t0)
		_, err = d.run(sys, z.warmUp, nil)
	}
	if err != nil {
		sys.close()
		return nil, 0, err
	}
	return sys, boot, nil
}

// untraced is the run that measures the end-to-end metrics: set-up (several
// times; the midmean is reported), a garbage collection, then the measured
// windows against the last system. Every set-up and every window is
// bracketed by slices of the reference loop, and its times are divided by
// the machine-speed factor they give (see reference); the figure reported
// is the midmean over the windows, and for p95 the mean of their lower half
// (see lowerHalfMean). Allocation figures are runtime.MemStats deltas summed
// over the windows alone.
func (r *report) untraced(z sizes, journalRoot string) error {
	w := r.workload
	d := newDriver(r.seed, z.setUps*z.setUpTasks(w)+z.windows*z.perWindow, w.bundle)
	defer func() { r.attempted, r.failed = d.attempted(), d.failed() }()
	sp, err := newSpeedometer(w, z.refSlice)
	if err != nil {
		return err
	}
	defer sp.ref.close()

	var sys *system
	setUpSeconds, setUpTimed := make([]float64, z.setUps), make([]float64, z.setUps)
	for i := range setUpSeconds {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		if sys, _, err = setUp(d, w, z, journalRoot); err != nil {
			return err
		}
		took := time.Since(t0).Seconds()
		f, err := sp.factor()
		if err != nil {
			sys.close()
			return err
		}
		setUpSeconds[i], setUpTimed[i] = took/f, took
	}
	defer sys.close()

	runtime.GC()
	if err := sp.prime(); err != nil {
		return err
	}
	scaled, timed := map[string][]float64{}, map[string][]float64{}
	var mallocs, bytes uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < z.windows; i++ {
		runtime.ReadMemStats(&m0)
		win, err := d.run(sys, z.perWindow, nil)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		mallocs, bytes = mallocs+m1.Mallocs-m0.Mallocs, bytes+m1.TotalAlloc-m0.TotalAlloc
		f, err := sp.factor()
		if err != nil {
			return err
		}
		for name, v := range map[string]float64{
			"tasks_per_s":     1 / win.tasksPerSecond(),
			"cpu_us_per_task": win.cpuMicrosPerTask(),
			"task_p50_ms":     win.p50Millis(),
			"task_p95_ms":     win.p95Millis(),
		} {
			timed[name] = append(timed[name], v)
			scaled[name] = append(scaled[name], v/f)
		}
	}
	d.drain(sys)

	tasks := float64(z.windows * z.perWindow)
	r.metrics = map[string]float64{
		"setup_s":              midmean(setUpSeconds),
		"allocs_per_task":      float64(mallocs) / tasks,
		"alloc_bytes_per_task": float64(bytes) / tasks,
		"rss_peak_mb":          peakRSSMB(),
	}
	r.spreads = map[string]float64{"setup_s": spread(setUpSeconds)}
	r.asTimed = map[string]float64{"setup_s": midmean(setUpTimed)}
	for name, xs := range scaled {
		reduce := midmean
		if name == "task_p95_ms" {
			reduce = lowerHalfMean
		}
		r.metrics[name], r.asTimed[name], r.spreads[name] = reduce(xs), reduce(timed[name]), spread(xs)
	}
	// Throughput was reduced as seconds per task, like every other time.
	r.metrics["tasks_per_s"], r.asTimed["tasks_per_s"] = 1/r.metrics["tasks_per_s"], 1/r.asTimed["tasks_per_s"]
	r.speed = median(sp.factors)
	r.notes = append(r.notes,
		fmt.Sprintf("%d windows of %d tasks: %d latency samples per window, %d beyond p95; set-up (boot, first bundle, %d warm-up tasks) ran %d times",
			z.windows, z.perWindow, z.perWindow, z.perWindow/20, z.warmUp, z.setUps),
		fmt.Sprintf("machine speed: the reference loop ran at %.2f times its nominal %.0f ns per item (median of %d factors, %.2f to %.2f); every time above was divided by the factor around it",
			r.speed, w.refNanosPerItem, len(sp.factors), slices.Min(sp.factors), slices.Max(sp.factors)))
	return nil
}

// counters is what a system's components say about themselves, summed over
// its dispatchers: the registries behind MetricsSnapshot() and Stats().
type counters struct {
	snap                            obs.MetricsSnapshot
	steals, duplicates, replays     int64
	forwardBundles, forwardReroutes int64
}

func (s *system) counters() counters {
	var c counters
	for _, d := range s.dispatchers {
		c.snap.Merge(d.MetricsSnapshot())
		st := d.Stats()
		c.duplicates += st.Duplicates
		c.replays += st.Retried
		for _, sh := range st.Shards {
			c.steals += sh.Steals
		}
	}
	if s.fwd != nil {
		for _, l := range s.fwd.Stats().Leaves {
			c.forwardBundles += l.Bundles
			c.forwardReroutes += l.Reroutes
		}
	}
	return c
}

// tracedWindow is one drained window with spans on, and what the system's
// own registries recorded across it.
type tracedWindow struct {
	stats         windowStats
	tr            *tracer
	before, after counters
	allocs, bytes float64 // per task
	window        span
}

func traceWindow(d *driver, sys *system, n int) (tracedWindow, error) {
	tw := tracedWindow{tr: newTracer(), before: sys.counters()}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := d.now()
	ws, err := d.run(sys, n, tw.tr)
	if err != nil {
		return tw, err
	}
	tw.window = span{Name: "window:" + sys.w.name, Start: start, End: d.now(), ID: spanWindow}
	runtime.ReadMemStats(&m1)
	tw.after = sys.counters()
	tw.stats = *ws
	tw.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	tw.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	return tw, nil
}

func heapInUseAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse)
}

// tracedWindows is how many measurement windows' worth of tasks the traced
// window, and each of the two untraced ones around it, runs.
const tracedWindows = 8

// traced is the run that gives the per-layer numbers: the layer
// microbenchmarks, then one window of the workload with the benchmark's own
// spans on, bracketed by two untraced windows that price the tracing.
func (r *report) traced(z sizes, journalRoot, outDir string) error {
	w := r.workload
	m := make(map[string]float64, len(perLayerMetrics))
	for _, def := range perLayerMetrics {
		m[def.name] = 0
	}
	r.metrics = m
	schedLayer(m)
	if err := fprotoLayer(m); err != nil {
		return fmt.Errorf("fproto layer: %w", err)
	}
	if err := wsrpcLayer(m); err != nil {
		return fmt.Errorf("wsrpc layer: %w", err)
	}
	if err := walLayer(m, journalRoot); err != nil {
		return fmt.Errorf("wal layer: %w", err)
	}

	// Two set-ups and four windows: the traced run of tree-bulk drives a
	// direct-bulk system too.
	n := tracedWindows * z.perWindow
	d := newDriver(r.seed, 2*z.setUpTasks(w)+4*n, w.bundle)
	defer func() { r.attempted, r.failed = d.attempted(), d.failed() }()
	sys, boot, err := setUp(d, w, z, journalRoot)
	if err != nil {
		return err
	}
	defer sys.close()
	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1e3 }
	m["setup.boot_ms"] = ms(boot)
	m["executor.register_ms"] = ms(sys.boot.register)
	m["client.connect_ms"] = ms(sys.boot.connect)

	heap0 := heapInUseAfterGC()
	u1, err := d.run(sys, n, nil)
	if err != nil {
		return err
	}
	tw, err := traceWindow(d, sys, n)
	if err != nil {
		return err
	}
	u2, err := d.run(sys, n, nil)
	if err != nil {
		return err
	}
	d.drain(sys)
	heap1 := heapInUseAfterGC()
	m["trace.overhead_share"] = 1 - tw.stats.tasksPerSecond()/((u1.tasksPerSecond()+u2.tasksPerSecond())/2)

	tasks := float64(n)
	perTaskNanos := func(key string) float64 {
		return (tw.after.snap.Histogram(key).Sum - tw.before.snap.Histogram(key).Sum) * 1e9 / tasks
	}
	for _, stage := range obs.OverheadStages {
		m["dispatch."+stage+"_ns_per_task"] = perTaskNanos(obs.OverheadKey(stage))
	}
	m["dispatch.wal_commit_ns_per_task"] = perTaskNanos(obs.MetricWALCommitSeconds)
	m["dispatch.steals_per_ktask"] = float64(tw.after.steals-tw.before.steals) / tasks * 1000
	m["dispatch.duplicates"] = float64(tw.after.duplicates)
	m["dispatch.replays"] = float64(tw.after.replays)
	micros := func(h *hist) float64 { return h.quantile(0.5) / 1e3 }
	m["dispatch.queue_wait_us"] = micros(&tw.tr.queue)
	m["executor.pickup_us"] = micros(&tw.tr.pickup)
	m["executor.run_us"] = micros(&tw.tr.run)
	m["client.submit_call_us"] = micros(&tw.tr.submitCall)
	m["client.outside_dispatch_us"] = micros(&tw.tr.outside)
	r.notes = append(r.notes,
		fmt.Sprintf("check: the task span covers its queue+pickup+run children for %.2f%% of %d tasks", 100*(1-float64(tw.tr.negOutside)/tasks), n),
		fmt.Sprintf("check: median child spans queue=%.1fus pickup=%.1fus run=%.1fus, task self time (outside dispatch) %.1fus",
			micros(&tw.tr.queue), micros(&tw.tr.pickup), micros(&tw.tr.run), micros(&tw.tr.outside)))

	extra := []span{{Name: "client.connect", Start: 0, End: int64(sys.boot.connect), ID: spanWindow + 1}}
	if w.tree {
		// What the forwarder adds: the same traced window through a
		// direct-bulk system in this process, and the difference.
		direct, _ := findWorkload("direct-bulk")
		dsys, _, err := setUp(d, direct, z, journalRoot)
		if err != nil {
			return err
		}
		defer dsys.close()
		runtime.GC()
		dw, err := traceWindow(d, dsys, n)
		if err != nil {
			return err
		}
		d.drain(dsys)
		m["forward.extra_cpu_us_per_task"] = tw.stats.cpuMicrosPerTask() - dw.stats.cpuMicrosPerTask()
		m["forward.extra_allocs_per_task"] = tw.allocs - dw.allocs
		m["forward.bundles_per_ktask"] = float64(tw.after.forwardBundles-tw.before.forwardBundles) / tasks * 1000
		m["forward.reroutes"] = float64(tw.after.forwardReroutes)
		m["forward.retained_bytes_per_task"] = (heap1 - heap0) / (3 * tasks)
	}
	path := filepath.Join(outDir, "spans-"+w.name+".jsonl")
	if err := tw.tr.write(path, tw.window, extra...); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.notes = append(r.notes, fmt.Sprintf("spans: newest %d submit and %d task spans of the traced window in %s", min(tw.tr.submits.n, spanRingSize), min(tw.tr.tasks.n, spanRingSize), path))
	return nil
}

// smoke pushes a few thousand tasks through every workload in this process
// and fails unless each comes back exactly once. It keeps the benchmark
// compiling and honest between full runs; it measures nothing.
func smoke(journalRoot string, out io.Writer) error {
	for _, w := range workloads {
		r := &report{workload: w, seed: 1}
		z := sizes{windows: 2, perWindow: roundUp(2000, w.bundle), warmUp: roundUp(500, w.bundle), setUps: 1, refSlice: 10 * time.Millisecond}
		t0 := time.Now()
		if err := r.untraced(z, journalRoot); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintf(out, "smoke %-13s attempted=%d failed=%d (%.2fs)\n", w.name, r.attempted, r.failed, time.Since(t0).Seconds())
		if want := int64(z.windows*z.perWindow + z.warmUp + w.bundle); r.failed != 0 || r.attempted != want {
			return fmt.Errorf("%s: attempted %d (want %d), failed %d", w.name, r.attempted, want, r.failed)
		}
	}
	return nil
}
