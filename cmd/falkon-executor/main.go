// Command falkon-executor runs one or more Falkon executors against a
// dispatcher, the way the provisioner's GRAM requests would start them on
// compute nodes.
//
// Usage:
//
//	falkon-executor -dispatcher host:7523                 # one executor
//	falkon-executor -dispatcher host:7523 -n 8 -slots 2   # eight dual-slot executors
//	falkon-executor -dispatcher host:7523 -idle 60s       # distributed release
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"falkon/internal/executor"
	"falkon/internal/faultinj"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/wsrpc"
)

func main() {
	var (
		dispatcher = flag.String("dispatcher", "127.0.0.1:7523", "dispatcher address")
		name       = flag.String("name", "", "executor id prefix (default: host-pid)")
		n          = flag.Int("n", 1, "number of executors to run in this process")
		slots      = flag.Int("slots", 1, "concurrent tasks per executor (one per processor in the paper)")
		idle       = flag.Duration("idle", 0, "distributed release: deregister after this idle time (0 = never)")
		prefetch   = flag.Int("prefetch", 0, "cap on tasks per work pull (0 = sized by the executor up to the protocol cap of 64, 1 = the paper's per-task dispatch)")
		secure     = flag.Bool("secure", false, "use the secure-conversation transport profile")
		pskFile    = flag.String("psk-file", "", "pre-shared key file (required with -secure)")
		execT      = flag.Duration("exec-timeout", 0, "kill exec-engine tasks after this long (0 = never)")
		debugAddr  = flag.String("debug-addr", "", "HTTP address serving /metrics, /events.json, and /debug/pprof/ (empty = off)")
		reconnect  = flag.Bool("reconnect", false, "survive dispatcher restarts: re-register with backoff instead of stopping")
		reconnectT = flag.Duration("reconnect-timeout", 30*time.Second, "give up after a continuous outage this long (with -reconnect)")
		faults     = flag.String("faults", os.Getenv("FALKON_FAULTS"), "fault-injection spec, e.g. seed=42,crash@0.01,stall=2s@0.01 (chaos testing; default $FALKON_FAULTS)")
	)
	flag.Parse()

	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	// One registry for every executor in the process, so /metrics is the
	// whole process's view.
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "executor")
	opts := executor.Options{
		DispatcherAddr:   *dispatcher,
		Slots:            *slots,
		IdleTimeout:      *idle,
		Prefetch:         *prefetch,
		ExecTimeout:      *execT,
		Logf:             log.Printf,
		Metrics:          reg,
		Reconnect:        *reconnect,
		ReconnectTimeout: *reconnectT,
	}
	if *faults != "" {
		spec, err := faultinj.Parse(*faults)
		if err != nil {
			log.Fatalf("falkon-executor: %v", err)
		}
		opts.Faults = faultinj.New(spec, reg, log.Printf)
		log.Printf("falkon-executor: fault injection armed: %s", spec)
	}
	if *secure {
		if *pskFile == "" {
			log.Fatal("falkon-executor: -secure requires -psk-file")
		}
		key, err := os.ReadFile(*pskFile)
		if err != nil {
			log.Fatalf("falkon-executor: read psk: %v", err)
		}
		opts.Security = wsrpc.SecuritySecureConversation
		opts.PSK = key
	}

	var wg sync.WaitGroup
	execs := make([]*executor.Executor, 0, *n)
	for i := 0; i < *n; i++ {
		o := opts
		o.ID = fmt.Sprintf("%s-%d", *name, i)
		ex, err := executor.Start(o)
		if err != nil {
			log.Fatalf("falkon-executor: start %s: %v", o.ID, err)
		}
		log.Printf("executor %s registered with %s", o.ID, *dispatcher)
		execs = append(execs, ex)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ex.Done()
			log.Printf("executor %s stopped after %d tasks", ex.ID(), ex.TasksRun())
		}()
	}

	if *debugAddr != "" && len(execs) > 0 {
		// Traces come from the first executor; metrics cover all of them.
		ds, err := obs.ServeDebugOpts(*debugAddr, obs.DebugOptions{
			Snap:       func() obs.MetricsSnapshot { return fproto.NoteCodec(reg.Snapshot()) },
			Tracer:     execs[0].Tracer(),
			SpanHeader: execs[0].SpanHeader,
		})
		if err != nil {
			log.Fatalf("falkon-executor: debug server: %v", err)
		}
		defer ds.Close()
		log.Printf("falkon-executor debug endpoints on http://%s/metrics", ds.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-sig:
		log.Println("falkon-executor: stopping")
		for _, ex := range execs {
			ex.Stop()
		}
		// Bounded wait for clean deregistration.
		select {
		case <-done:
		case <-time.After(10 * time.Second):
		}
	case <-done: // all executors idle-released
	}
}
