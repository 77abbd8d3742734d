// Command falkon-benchmark is the repository's benchmark: it boots the real
// runtime in-process over loopback TCP, drives it in a closed loop from one
// client connection, checks exactly-once delivery, and prints every metric
// BENCHMARK.json names, with its unit. README.md in this directory says what
// each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef names one metric and its unit, in the order it is printed.
// BENCHMARK.json repeats these names and units and adds the direction and
// the regression bound; a test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"task_p50_ms", "ms"},
	{"task_p95_ms", "ms"},
	{"cpu_us_per_task", "us"},
	{"allocs_per_task", "1"},
	{"alloc_bytes_per_task", "B"},
	{"rss_peak_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"sched.cycle_ns", "ns"},
	{"sched.cycle_allocs", "1"},
	{"sched.fair_cycle_ns", "ns"},
	{"sched.steal_ns", "ns"},
	{"fproto.submit_encode_ns_per_task", "ns"},
	{"fproto.submit_decode_ns_per_task", "ns"},
	{"fproto.result_encode_ns_per_task", "ns"},
	{"fproto.result_decode_ns_per_task", "ns"},
	{"fproto.submit_bytes_per_task", "B"},
	{"fproto.result_bytes_per_task", "B"},
	{"fproto.submit_encode_ns_per_task_1k", "ns"},
	{"fproto.submit_decode_ns_per_task_1k", "ns"},
	{"fproto.result_encode_ns_per_task_1k", "ns"},
	{"fproto.result_decode_ns_per_task_1k", "ns"},
	{"fproto.submit_bytes_per_task_1k", "B"},
	{"fproto.result_bytes_per_task_1k", "B"},
	{"wsrpc.call_rtt_us", "us"},
	{"wsrpc.call_allocs", "1"},
	{"wsrpc.secure_call_rtt_us", "us"},
	{"wsrpc.calls_per_s_pipelined", "1/s"},
	{"wsrpc.notify_per_s", "1/s"},
	{"wsrpc.frames_per_flush", "1"},
	{"wal.append_ns", "ns"},
	{"wal.append_wait_us", "us"},
	{"wal.records_per_fsync", "1"},
	{"wal.bytes_per_record", "B"},
	{"wal.recover_ms", "ms"},
	{"dispatch.lock_wait_ns_per_task", "ns"},
	{"dispatch.sched_core_ns_per_task", "ns"},
	{"dispatch.fx_flush_ns_per_task", "ns"},
	{"dispatch.wal_wait_ns_per_task", "ns"},
	{"dispatch.frame_write_ns_per_task", "ns"},
	{"dispatch.wal_commit_ns_per_task", "ns"},
	{"dispatch.queue_wait_us", "us"},
	{"dispatch.steals_per_ktask", "1"},
	{"dispatch.duplicates", "count"},
	{"dispatch.replays", "count"},
	{"executor.pickup_us", "us"},
	{"executor.run_us", "us"},
	{"executor.register_ms", "ms"},
	{"client.connect_ms", "ms"},
	{"client.submit_call_us", "us"},
	{"client.outside_dispatch_us", "us"},
	{"forward.extra_cpu_us_per_task", "us"},
	{"forward.extra_allocs_per_task", "1"},
	{"forward.bundles_per_ktask", "1"},
	{"forward.reroutes", "count"},
	{"forward.retained_bytes_per_task", "B"},
	{"setup.boot_ms", "ms"},
	{"trace.overhead_share", "1"},
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
	aa       int
}

// The benchmark runs from the root of the checkout (run.sh sees to that) and
// writes nowhere else: journals beside the build, span files beside the code.
var (
	checkoutJournalRoot = filepath.Join(".bench_build", "journal")
	checkoutSpanDir     = filepath.Join("benchmark", "out")
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "direct-bulk, journal-bulk, tree-bulk, direct-serial, or all (each in a process of its own)")
	flag.Uint64Var(&o.seed, "seed", 1, "seeds the generated inputs: the task-ID base and the per-task Args token")
	flag.IntVar(&o.seconds, "seconds", 20, "run length; converted to a fixed number of tasks per workload")
	flag.IntVar(&o.trace, "trace", 0, "1: run the layer microbenchmarks and a traced window, print the per-layer metrics, write the spans")
	flag.BoolVar(&o.smoke, "smoke", false, "all four workloads at 2,048 tasks per window in this process; checks exactly-once only")
	flag.IntVar(&o.aa, "aa", 0, "run every workload N times, twice, and print how well the two sets agree")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// One P, whatever the machine has. On the shared 2-core box the
	// benchmark is sized for, a second P bought 10-15 % of throughput and
	// made every timing depend on how fast the host wakes an idle vCPU:
	// tree-bulk's p50 spread by 18-26 % over identical runs with two Ps and
	// by 2-3 % with one, and the reference loop (see reference) tracks a
	// slow host in proportion only when neither side waits for a wake-up.
	// What is measured is the work the runtime does per task, not how well
	// it spreads over cores. README.md has the measurements.
	runtime.GOMAXPROCS(1)
	if err := o.run(); err != nil {
		fmt.Fprintln(os.Stderr, "falkon-benchmark:", err)
		os.Exit(1)
	}
}

func (o options) run() error {
	switch {
	case o.smoke:
		return smoke(checkoutJournalRoot, os.Stdout)
	case o.aa > 0:
		return o.runAA()
	case o.workload == "all":
		for _, w := range workloads {
			if _, err := o.runChild(w.name, o.seed, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	// Made before the environment is read, so that it can say which file
	// system the journals land on.
	if err := os.MkdirAll(checkoutJournalRoot, 0o755); err != nil {
		return err
	}
	r := &report{workload: w, seed: o.seed, env: currentEnvironment(checkoutJournalRoot)}
	var err error
	defs := endToEndMetrics
	if o.trace == 1 {
		defs = perLayerMetrics
		err = r.traced(sizesFor(w, o.seconds), checkoutJournalRoot, checkoutSpanDir)
	} else {
		err = r.untraced(sizesFor(w, o.seconds), checkoutJournalRoot)
	}
	// A failed run still reports whatever was counted, then exits non-zero.
	r.print(defs)
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("tasks failed: %d of %d", r.failed, r.attempted)
	}
	return err
}

// report is what one run of one workload found.
type report struct {
	workload  workload
	seed      uint64
	env       environment
	attempted int64
	failed    int64
	metrics   map[string]float64
	// spreads is each windowed metric's (max−min)/median over the windows
	// of this run: a disturbed run identifies itself.
	spreads map[string]float64
	// asTimed is each scaled metric before it was divided by the
	// machine-speed factor, and speed the median of the factors.
	asTimed map[string]float64
	speed   float64
	notes   []string
}

// resultLine is the last line of standard output, the one the driver reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailLine precedes the result line and carries what the contract's
// result line has no place for; -aa reads it to refuse mixed environments
// and to set the figures as timed beside the scaled ones.
type detailLine struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Env          environment        `json:"env"`
	Spreads      map[string]float64 `json:"within_run_spread,omitempty"`
	AsTimed      map[string]float64 `json:"as_timed,omitempty"`
	MachineSpeed float64            `json:"machine_speed,omitempty"`
}

func (r *report) print(defs []metricDef) {
	fmt.Printf("workload %s seed=%d: %s\n", r.workload.name, r.seed, r.workload.why)
	fmt.Printf("environment: %s\n", r.env)
	line := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0 && len(r.metrics) > 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := r.metrics[d.name]
		line.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("  %-36s %16.4f %-5s", d.name, v, d.unit)
		if s, ok := r.spreads[d.name]; ok {
			fmt.Printf("  (windows spread %.1f%%)", 100*s)
		}
		if t, ok := r.asTimed[d.name]; ok {
			fmt.Printf("  (as timed %.4f)", t)
		}
		fmt.Println()
	}
	fmt.Printf("  %-36s %16d\n  %-36s %16d\n", "tasks_attempted", r.attempted, "tasks_failed", r.failed)
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Println(" ", n)
	}
	detail, _ := json.Marshal(detailLine{
		Workload: r.workload.name, Seed: r.seed, Env: r.env,
		Spreads: r.spreads, AsTimed: r.asTimed, MachineSpeed: r.speed,
	})
	fmt.Printf("detail: %s\n", detail)
	last, _ := json.Marshal(line)
	fmt.Printf("%s\n", last)
}
