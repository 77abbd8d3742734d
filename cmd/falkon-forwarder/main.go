// Command falkon-forwarder runs the root of the hierarchical dispatch tree
// (paper §6, Figure 16): clients speak to it exactly as to a flat
// dispatcher — it is one, whose executors are links to leaf dispatchers —
// while it hands work downstream in bundles, as much as each leaf's worker
// slots and round trip are worth, and aggregates results — and stats, and
// metrics — back upward. Leaves can themselves be forwarders, giving trees
// deeper than two levels.
//
// Usage:
//
//	falkon-forwarder -addr :7524 -dispatchers host1:7523,host2:7523
//	falkon-forwarder -addr :7524 -dispatchers leaffwd1:7524,leaffwd2:7524 -bundle 128
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"falkon/internal/forward"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/wsrpc"
)

func main() {
	var (
		addr        = flag.String("addr", ":7524", "listen address for clients")
		dispatchers = flag.String("dispatchers", "127.0.0.1:7523", "comma-separated dispatcher addresses")
		bundle      = flag.Int("bundle", 0, "root→leaf bundle size (0 = default 64)")
		secure      = flag.Bool("secure", false, "use the secure-conversation transport profile on both tiers")
		pskFile     = flag.String("psk-file", "", "pre-shared key file (required with -secure)")
		debugAddr   = flag.String("debug-addr", "", "HTTP address serving /metrics and /debug/pprof/ (empty = off)")
	)
	flag.Parse()

	opts := forward.Options{
		Dispatchers: fproto.SplitAddrs(*dispatchers),
		Bundle:      *bundle,
		Logf:        log.Printf,
	}
	if *secure {
		if *pskFile == "" {
			log.Fatal("falkon-forwarder: -secure requires -psk-file")
		}
		key, err := os.ReadFile(*pskFile)
		if err != nil {
			log.Fatalf("falkon-forwarder: read psk: %v", err)
		}
		opts.Security = wsrpc.SecuritySecureConversation
		opts.PSK = key
	}

	f, err := forward.New(opts)
	if err != nil {
		log.Fatalf("falkon-forwarder: %v", err)
	}
	obs.RegisterBuildInfo(f.Metrics(), "forwarder")
	if err := f.Listen(*addr); err != nil {
		log.Fatalf("falkon-forwarder: %v", err)
	}
	fmt.Printf("falkon-forwarder on %s relaying to %v\n", f.Addr(), opts.Dispatchers)

	if *debugAddr != "" {
		ds, err := obs.ServeDebugSnapshot(*debugAddr, f.MergedMetricsSnapshot, f.Tracer())
		if err != nil {
			log.Fatalf("falkon-forwarder: debug server: %v", err)
		}
		defer ds.Close()
		fmt.Printf("falkon-forwarder debug endpoints on http://%s/metrics\n", ds.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	f.Close()
}
