// Command falkon-executor runs one Falkon executor against a dispatcher, the
// way the provisioner's GRAM requests would start one on each compute node.
// Its capacity is -slots: one executor with N slots pulls what N executors
// would, over one connection and one registration (DESIGN.md §3).
//
// Usage:
//
//	falkon-executor -dispatcher host:7523              # one slot
//	falkon-executor -dispatcher host:7523 -slots 8     # eight concurrent tasks
//	falkon-executor -dispatcher host:7523 -idle 60s    # distributed release
//	falkon-executor -dispatcher host:7523 -psk-file key.txt  # a keyed dispatcher
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
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
		name       = flag.String("name", "", "executor id (default: host-pid)")
		slots      = flag.Int("slots", 1, "concurrent tasks (the paper runs one per processor)")
		idle       = flag.Duration("idle", 0, "distributed release: deregister after this idle time (0 = never)")
		prefetch   = flag.Int("prefetch", 0, "cap on tasks per work pull (0 = sized by the executor up to the protocol cap of 64, 1 = the paper's per-task dispatch)")
		pskFile    = flag.String("psk-file", "", "the dispatcher's pre-shared key file: speak the secure-conversation transport profile (empty = in the clear)")
		execT      = flag.Duration("exec-timeout", 0, "kill exec-engine tasks after this long (0 = never)")
		debugAddr  = flag.String("debug-addr", "", "HTTP address serving /metrics, /events.json, /spans.jsonl and /debug/pprof/; the executor records trace events only when it is set (empty = off)")
		reconnectT = flag.Duration("reconnect-timeout", 30*time.Second, "after a dropped connection, re-register with backoff; stop once one outage lasts this long")
		faults     = flag.String("faults", "", "fault-injection spec, e.g. seed=42,crash@0.01,stall=2s@0.01 (chaos testing)")
	)
	flag.Parse()

	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, "executor")
	opts := executor.Options{
		ID:               *name,
		DispatcherAddr:   *dispatcher,
		Slots:            *slots,
		IdleTimeout:      *idle,
		Prefetch:         *prefetch,
		ExecTimeout:      *execT,
		Logf:             log.Printf,
		Metrics:          reg,
		ReconnectTimeout: *reconnectT,
	}
	if *debugAddr != "" { // nothing but the debug server reads the ring
		opts.Tracer = obs.NewTracer(0)
	}
	if *faults != "" {
		spec, err := faultinj.Parse(*faults)
		if err != nil {
			log.Fatalf("falkon-executor: %v", err)
		}
		opts.Faults = faultinj.New(spec, reg, log.Printf)
		log.Printf("falkon-executor: fault injection armed: %s", spec)
	}
	key, err := wsrpc.ReadKey(*pskFile)
	if err != nil {
		log.Fatalf("falkon-executor: read psk: %v", err)
	}
	opts.PSK = key

	ex, err := executor.Start(opts)
	if err != nil {
		log.Fatalf("falkon-executor: start %s: %v", opts.ID, err)
	}
	log.Printf("executor %s registered with %s", opts.ID, *dispatcher)

	if *debugAddr != "" {
		ds, err := obs.ServeDebugOpts(*debugAddr, obs.DebugOptions{
			Snap:       func() obs.MetricsSnapshot { return fproto.NoteCodec(reg.Snapshot()) },
			Tracer:     opts.Tracer,
			SpanHeader: ex.SpanHeader,
		})
		if err != nil {
			log.Fatalf("falkon-executor: debug server: %v", err)
		}
		defer ds.Close()
		log.Printf("falkon-executor debug endpoints on http://%s/metrics", ds.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		log.Println("falkon-executor: stopping")
		go ex.Stop()
		// Bounded wait for clean deregistration.
		select {
		case <-ex.Done():
		case <-time.After(10 * time.Second):
		}
	case <-ex.Done(): // idle release, or an outage past -reconnect-timeout
	}
	log.Printf("executor %s stopped after %d tasks", ex.ID(), ex.TasksRun())
}
