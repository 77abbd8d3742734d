// Command falkon-submit is the Falkon client CLI: it creates an instance on
// a dispatcher, submits a workload, waits for results, and reports
// throughput and latency statistics.
//
// Usage:
//
//	falkon-submit -dispatcher host:7523 -sleep0 1000 -bundle 50
//	falkon-submit -dispatcher host:7523 -exec "/bin/echo hi" -count 10
//	falkon-submit -dispatcher host:7523 -workload tasks.jsonl
//	falkon-submit -dispatcher host:7523 -psk-file key.txt -sleep0 1000
//
// A workload file holds one JSON task per line (see internal/task.Task).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"falkon/internal/client"
	"falkon/internal/faultinj"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

func main() {
	var (
		dispatcher = flag.String("dispatcher", "127.0.0.1:7523", "dispatcher address")
		sleep0     = flag.Int("sleep0", 0, "submit this many sleep-0 tasks")
		sleepDur   = flag.Duration("sleep", 0, "duration for -sleep0 tasks")
		execCmd    = flag.String("exec", "", "submit a real command (space-separated argv)")
		count      = flag.Int("count", 1, "repetitions of -exec")
		workload   = flag.String("workload", "", "JSONL task file")
		bundle     = flag.Int("bundle", 1, "client-dispatcher bundle size")
		poll       = flag.Bool("poll", false, "poll for results instead of notifications")
		pskFile    = flag.String("psk-file", "", "the dispatcher's pre-shared key file: speak the secure-conversation transport profile (empty = in the clear)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "overall wait timeout")
		reconnect  = flag.Bool("reconnect", false, "survive dispatcher restarts: reattach, resubmit pending tasks idempotently, and dedupe redelivered results")
		debugAddr  = flag.String("debug-addr", "", "HTTP address serving /metrics and /debug/pprof/ while the run lasts (empty = off)")
		faults     = flag.String("faults", os.Getenv("FALKON_FAULTS"), "fault-injection spec, e.g. seed=42,latency=2ms@0.05 (chaos testing; default $FALKON_FAULTS)")
		tenant     = flag.String("tenant", "", "tenant to submit as (empty = the default tenant)")
	)
	flag.Parse()

	if *debugAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterBuildInfo(reg, "submit")
		ds, err := obs.ServeDebugOpts(*debugAddr, obs.DebugOptions{Snap: func() obs.MetricsSnapshot { return fproto.NoteCodec(reg.Snapshot()) }})
		if err != nil {
			log.Fatalf("falkon-submit: debug server: %v", err)
		}
		defer ds.Close()
		log.Printf("falkon-submit debug endpoints on http://%s/metrics", ds.Addr())
	}

	opts := client.Options{
		DispatcherAddr: *dispatcher,
		Name:           "falkon-submit",
		BundleSize:     *bundle,
		Poll:           *poll,
		Reconnect:      *reconnect,
		Tenant:         *tenant,
	}
	if *faults != "" {
		spec, err := faultinj.Parse(*faults)
		if err != nil {
			log.Fatalf("falkon-submit: %v", err)
		}
		opts.Faults = faultinj.New(spec, nil, log.Printf)
		log.Printf("falkon-submit: fault injection armed: %s", spec)
	}
	key, err := wsrpc.ReadKey(*pskFile)
	if err != nil {
		log.Fatalf("falkon-submit: read psk: %v", err)
	}
	opts.PSK = key

	var gen task.IDGen
	var tasks []task.Task
	switch {
	case *sleep0 > 0:
		tasks = task.Batch(&gen, *sleep0, *sleepDur)
	case *execCmd != "":
		argv := strings.Fields(*execCmd)
		for i := 0; i < *count; i++ {
			tasks = append(tasks, task.Task{
				ID:      gen.Next(),
				Engine:  task.EngineExec,
				Command: argv[0],
				Args:    argv[1:],
			})
		}
	case *workload != "":
		var err error
		tasks, err = loadWorkload(*workload, &gen)
		if err != nil {
			log.Fatalf("falkon-submit: %v", err)
		}
	default:
		log.Fatal("falkon-submit: pass -sleep0, -exec, or -workload")
	}

	c, err := client.Connect(opts)
	if err != nil {
		log.Fatalf("falkon-submit: %v", err)
	}
	defer c.Close()

	start := time.Now()
	if err := c.Submit(tasks); err != nil {
		log.Fatalf("falkon-submit: %v", err)
	}
	results, err := c.WaitN(len(tasks), *timeout)
	if err != nil {
		log.Fatalf("falkon-submit: %v", err)
	}
	elapsed := time.Since(start)

	failed := 0
	var queue, exec []time.Duration
	for _, r := range results {
		if r.Failed() {
			failed++
		}
		queue = append(queue, r.QueueTime())
		exec = append(exec, r.ExecTime())
	}
	qs, es := durationStats(queue), durationStats(exec)
	fmt.Printf("completed %d tasks (%d failed) in %v: %.1f tasks/s\n",
		len(results), failed, elapsed.Round(time.Millisecond),
		float64(len(results))/elapsed.Seconds())
	fmt.Printf("queue time  mean=%v min=%v max=%v\n", qs.Mean.Round(time.Microsecond), qs.Min.Round(time.Microsecond), qs.Max.Round(time.Microsecond))
	fmt.Printf("exec time   mean=%v min=%v max=%v\n", es.Mean.Round(time.Microsecond), es.Min.Round(time.Microsecond), es.Max.Round(time.Microsecond))
	if *reconnect && (c.Reconnects() > 0 || c.DuplicatesDropped() > 0 || c.Deduped() > 0) {
		fmt.Printf("recovery    reconnects=%d resubmit-deduped=%d duplicate-results-dropped=%d\n",
			c.Reconnects(), c.Deduped(), c.DuplicatesDropped())
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// stats summarizes a slice of durations for the report's time lines.
type stats struct {
	Mean time.Duration
	Min  time.Duration
	Max  time.Duration
}

// durationStats computes summary statistics over ds.
func durationStats(ds []time.Duration) stats {
	var st stats
	if len(ds) == 0 {
		return st
	}
	var sum time.Duration
	st.Min, st.Max = ds[0], ds[0]
	for _, d := range ds {
		sum += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = sum / time.Duration(len(ds))
	return st
}

// loadWorkload reads one JSON task per line, assigning ids when absent.
func loadWorkload(path string, gen *task.IDGen) ([]task.Task, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tasks, err := task.ReadJSONL(f, gen)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tasks, nil
}
