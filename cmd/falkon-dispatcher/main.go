// Command falkon-dispatcher runs a standalone Falkon dispatcher service.
//
// Usage:
//
//	falkon-dispatcher -addr :7523
//	falkon-dispatcher -addr :7523 -psk-file key.txt
//	    the secure profile: every executor and client must hold the key
//
// Executors (cmd/falkon-executor) and clients (cmd/falkon-submit) connect
// to the printed address.
//
// High availability (see DESIGN.md §14) comes in three shapes:
//
//	falkon-dispatcher -addr :7523 -journal-dir wal/ -replicate quorum
//	    a leader that streams its journal to any standby that attaches
//	falkon-dispatcher -standby-of host:7523 -journal-dir mirror/
//	    a permanent standby mirroring that leader's journal
//	falkon-dispatcher -addr :7524 -journal-dir mirror2/ -lease-file /shared/lease
//	    an HA cluster member: follows the elected leader as a standby and
//	    promotes itself (replaying its mirror) when it wins the lease
//
// Multi-tenancy (DESIGN.md §15):
//
//	falkon-dispatcher -addr :7523 -tenants tenants.conf
//	    per-tenant admission control (quotas, rate limits) from a config
//	    file, and weighted fair-share scheduling across tenants: declaring
//	    any tenant turns it on
//	falkon-dispatcher -addr :7523 -tenant 'prod:weight=4' -tenant 'batch:rate=500'
//	    the same, declared inline
//
// A dispatch tree (paper §6, Figure 16; DESIGN.md §13) is this command at
// every level:
//
//	falkon-dispatcher -addr :7524 -leaves host1:7523,host2:7523
//	    a root: clients speak to it exactly as to a flat dispatcher — it is
//	    one, whose executors are links to the leaf dispatchers — while it
//	    hands work downstream in bundles and aggregates results, stats and
//	    metrics back upward. A leaf may itself be such a root.
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

	"falkon/internal/dispatch"
	"falkon/internal/faultinj"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/replica"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

func main() {
	var (
		addr          = flag.String("addr", ":7523", "listen address")
		pskFile       = flag.String("psk-file", "", "pre-shared key file: require the secure-conversation transport profile, keyed by it (empty = in the clear)")
		replayTimeout = flag.Duration("replay-timeout", 0, "re-dispatch tasks unacknowledged for this long (0 = disconnect-based only)")
		maxRetries    = flag.Int("max-retries", 3, "per-task re-dispatch bound")
		statsEvery    = flag.Duration("stats-every", 10*time.Second, "periodic stats log interval (0 = off)")
		quiet         = flag.Bool("quiet", false, "suppress per-event logs")
		debugAddr     = flag.String("debug-addr", "", "HTTP address serving /metrics, /events.json, and /debug/pprof/ (empty = off)")
		journalDir    = flag.String("journal-dir", "", "write-ahead task journal directory; recovers state from it on start (empty = no journal)")
		journalSync   = flag.String("journal-sync", "group", "journal durability: group (fsync per commit batch) or off (never fsync)")
		snapEvery     = flag.Int("snapshot-every", 0, "journaled task transitions (a dispatch, a completion) between snapshot compactions (0 = default 65536, <0 = never)")
		faults        = flag.String("faults", os.Getenv("FALKON_FAULTS"), "fault-injection spec, e.g. seed=42,drop@0.01,fsyncerr@0.02 (chaos testing; default $FALKON_FAULTS)")
		tenantsFile   = flag.String("tenants", "", "tenant config file: one name:weight=4,quota=10000,rate=5000,burst=1000 spec per line ('#' comments); any tenant declared turns on fair-share (SFQ) scheduling")
		leaves        = flag.String("leaves", "", "comma-separated leaf dispatcher addresses: run as the root of a dispatch tree, whose executors are links to them (a leaf may itself have -leaves)")
		bundle        = flag.Int("bundle", 0, "root→leaf bundle size with -leaves (0 = default 64)")

		replicate = flag.String("replicate", "", "accept standby replicas: async (acks don't wait) or quorum (client acks wait for every attached standby); requires -journal-dir")
		standbyOf = flag.String("standby-of", "", "run as a permanent standby mirroring this leader's journal into -journal-dir (no serving)")
		leaseFile = flag.String("lease-file", "", "HA election lease file shared by cluster members; follow the leader until this node wins it")
		leaseTTL  = flag.Duration("lease-ttl", 3*time.Second, "election lease duration (leader renews at TTL/3)")
		nodeID    = flag.String("node-id", "", "HA node identity in the lease file (default: -addr)")
	)
	var tenantFlags stringList
	flag.Var(&tenantFlags, "tenant", "one tenant spec, name or name:weight=4,quota=100,rate=50,burst=10 (repeatable; merged with -tenants; any tenant declared turns on fair-share scheduling)")
	flag.Parse()

	tenants, err := loadTenants(*tenantsFile, tenantFlags)
	if err != nil {
		log.Fatalf("falkon-dispatcher: %v", err)
	}

	syncPolicy, err := wal.ParseSyncPolicy(*journalSync)
	if err != nil {
		log.Fatalf("falkon-dispatcher: %v", err)
	}
	// A root refuses -journal-dir and -replicate itself (dispatch.Options.Leaves);
	// these two modes never build one.
	if *leaves != "" && (*standbyOf != "" || *leaseFile != "") {
		log.Fatal("falkon-dispatcher: -leaves cannot be combined with -standby-of or -lease-file: " +
			"a root keeps its tasks in memory until its crash test exists (ROADMAP 6(a)); journal the leaves")
	}
	// One registry for the process, whichever mode it runs in: what -faults
	// injects is counted where /metrics and falkon.metrics read. A node with
	// leaves is labelled apart from them, so build info merged up a tree
	// stays one series per level.
	component := "dispatcher"
	if *leaves != "" {
		component = "forwarder"
	}
	opts := dispatch.Options{
		Metrics:       obs.NewRegistry(),
		ReplayTimeout: *replayTimeout,
		MaxRetries:    *maxRetries,
		Tenants:       tenants,
		JournalDir:    *journalDir,
		JournalSync:   syncPolicy,
		SnapshotEvery: *snapEvery,
		Leaves:        fproto.SplitAddrs(*leaves),
		Bundle:        *bundle,
	}
	obs.RegisterBuildInfo(opts.Metrics, component)
	if *faults != "" {
		spec, err := faultinj.Parse(*faults)
		if err != nil {
			log.Fatalf("falkon-dispatcher: %v", err)
		}
		inj := faultinj.New(spec, opts.Metrics, log.Printf)
		opts.Faults = inj
		opts.JournalFS = inj.FS(wal.OS)
		log.Printf("falkon-dispatcher: fault injection armed: %s", spec)
	}
	if !*quiet {
		opts.Logf = log.Printf
	}
	if opts.PSK, err = wsrpc.ReadKey(*pskFile); err != nil {
		log.Fatalf("falkon-dispatcher: read psk: %v", err)
	}

	mode, err := replica.ParseMode(*replicate)
	if err != nil {
		log.Fatalf("falkon-dispatcher: %v", err)
	}
	if *replicate != "" || *leaseFile != "" {
		opts.Replication = &dispatch.ReplicationOptions{Mode: mode}
	}

	switch {
	case *standbyOf != "":
		runStandby(*standbyOf, *journalDir, *nodeID, syncPolicy, opts, *debugAddr, *statsEvery)
	case *leaseFile != "":
		runHANode(*leaseFile, *leaseTTL, *nodeID, *addr, *journalDir, syncPolicy, opts, *debugAddr, *statsEvery)
	default:
		runLeader(opts, *addr, *journalDir, syncPolicy, *debugAddr, *statsEvery)
	}
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// loadTenants merges the -tenants file with repeatable -tenant flags,
// rejecting a tenant declared in both places.
func loadTenants(path string, flags []string) ([]dispatch.TenantSpec, error) {
	var tenants []dispatch.TenantSpec
	if path != "" {
		fileSpecs, err := dispatch.LoadTenantsFile(path)
		if err != nil {
			return nil, err
		}
		tenants = fileSpecs
	}
	if len(flags) == 0 {
		return tenants, nil
	}
	flagSpecs, err := dispatch.ParseTenantSpecs(flags)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]struct{}, len(tenants))
	for _, t := range tenants {
		seen[t.Name] = struct{}{}
	}
	for _, t := range flagSpecs {
		if _, dup := seen[t.Name]; dup {
			return nil, fmt.Errorf("tenant %q declared in both -tenants file and -tenant flag", t.Name)
		}
		tenants = append(tenants, t)
	}
	return tenants, nil
}

// runLeader is the classic single-dispatcher path (optionally accepting
// standby replicas when -replicate is set), and with leaves the tree root's.
func runLeader(opts dispatch.Options, addr, journalDir string, syncPolicy wal.SyncPolicy, debugAddr string, statsEvery time.Duration) {
	if opts.Replication != nil {
		opts.Replication.Term = 1
	}
	d := dispatch.New(opts)
	if err := d.Listen(addr); err != nil {
		log.Fatalf("falkon-dispatcher: %v", err)
	}
	fmt.Printf("falkon-dispatcher listening on %s (keyed=%v)\n", d.Addr(), len(opts.PSK) > 0)
	if len(opts.Leaves) > 0 {
		fmt.Printf("falkon-dispatcher relaying to %v\n", opts.Leaves)
	}
	if journalDir != "" {
		fmt.Printf("falkon-dispatcher journaling to %s (sync=%v)\n", journalDir, syncPolicy)
	}
	if opts.Replication != nil {
		fmt.Printf("falkon-dispatcher replicating (%s) to attaching standbys\n", opts.Replication.Mode)
	}
	closeDebug := startDebug(debugAddr, d)
	defer closeDebug()
	startStatsLoop(statsEvery, d)
	awaitShutdown(d, journalDir)
}

// runStandby mirrors a fixed leader's journal forever: no serving, no
// election — a warm spare an operator promotes by restarting it as a
// leader over the mirror directory.
func runStandby(leaderAddr, dir, id string, syncPolicy wal.SyncPolicy, opts dispatch.Options, debugAddr string, statsEvery time.Duration) {
	if dir == "" {
		log.Fatal("falkon-dispatcher: -standby-of requires -journal-dir (the mirror directory)")
	}
	sb, err := replica.StartStandby(replica.StandbyOptions{
		ID:      id,
		Leader:  func() (string, error) { return leaderAddr, nil },
		Dir:     dir,
		Sync:    syncPolicy,
		PSK:     opts.PSK,
		Metrics: opts.Metrics,
		Logf:    opts.Logf,
	})
	if err != nil {
		log.Fatalf("falkon-dispatcher: %v", err)
	}
	fmt.Printf("falkon-dispatcher standby of %s, mirroring to %s\n", leaderAddr, dir)
	if debugAddr != "" {
		ds, err := obs.ServeDebugOpts(debugAddr, obs.DebugOptions{Snap: opts.Metrics.Snapshot})
		if err != nil {
			log.Fatalf("falkon-dispatcher: debug server: %v", err)
		}
		defer ds.Close()
		fmt.Printf("falkon-dispatcher debug endpoints on http://%s/metrics\n", ds.Addr())
	}
	if statsEvery > 0 {
		go func() {
			for range time.Tick(statsEvery) {
				st := sb.Stats()
				log.Printf("standby: term=%d mirrored=%d", st.Term, st.End)
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	sb.Stop()
	log.Println("falkon-dispatcher: standby stopped, mirror sealed")
}

// runHANode is one member of an elected cluster: standby while another
// node holds the lease, leader (over its replayed mirror) once it wins.
// A lost lease is fail-stop: exit 4 and let the supervisor restart the
// node as a standby. A leader whose journal fails stops itself, which stops
// the node too (releasing the lease): exit 3. The cluster ID a client's EPR
// is scoped to is the lease path: only nodes that share a journal lineage
// share it.
func runHANode(leaseFile string, leaseTTL time.Duration, nodeID, addr, journalDir string, syncPolicy wal.SyncPolicy, opts dispatch.Options, debugAddr string, statsEvery time.Duration) {
	if journalDir == "" {
		log.Fatal("falkon-dispatcher: -lease-file requires -journal-dir (the node's journal/mirror directory)")
	}
	if nodeID == "" {
		nodeID = addr
	}
	opts.ClusterID = "ha:" + leaseFile

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		halt()
		<-sig
		log.Println("falkon-dispatcher: second signal, exiting immediately")
		os.Exit(1)
	}()

	var d *dispatch.Dispatcher
	err := replica.RunNode(replica.NodeOptions{
		Lease: &replica.Lease{Path: leaseFile, TTL: leaseTTL, ID: nodeID, Addr: addr},
		Standby: replica.StandbyOptions{
			Dir:     journalDir,
			Sync:    syncPolicy,
			PSK:     opts.PSK,
			Metrics: opts.Metrics,
			Logf:    opts.Logf,
		},
		Promote: func(term uint64) (string, error) {
			opts.Replication.Term = term
			d = dispatch.New(opts)
			if err := d.Listen(addr); err != nil {
				return "", err
			}
			fmt.Printf("falkon-dispatcher leading on %s (term=%d cluster=%s)\n", d.Addr(), term, opts.ClusterID)
			startDebug(debugAddr, d)
			startStatsLoop(statsEvery, d)
			go func() { <-d.Done(); halt() }()
			return d.Addr(), nil
		},
		Logf: log.Printf,
		Stop: stop,
	})
	switch {
	case err == replica.ErrLeaseLost:
		// Another leader may already be serving: stop taking writes
		// immediately; exit 4 tells the supervisor to restart us as a
		// standby.
		log.Println("falkon-dispatcher: lease lost, exiting (fail-stop)")
		os.Exit(4)
	case err == replica.ErrNodeStopped && d != nil:
		select {
		case <-d.Done():
			exitJournalFailed()
		default:
			// The signal that stopped the node was the shutdown's.
			shutdown(d, journalDir)
		}
	case err == replica.ErrNodeStopped:
		log.Println("falkon-dispatcher: node stopped")
	case err != nil:
		log.Fatalf("falkon-dispatcher: %v", err)
	}
}

// startDebug serves /metrics, /events.json and pprof for a node.
func startDebug(debugAddr string, d *dispatch.Dispatcher) func() {
	if debugAddr == "" {
		return func() {}
	}
	ds, err := obs.ServeDebugOpts(debugAddr, obs.DebugOptions{
		Snap:       d.MetricsSnapshot,
		Tracer:     d.Tracer(),
		SpanHeader: d.SpanHeader,
	})
	if err != nil {
		log.Fatalf("falkon-dispatcher: debug server: %v", err)
	}
	fmt.Printf("falkon-dispatcher debug endpoints on http://%s/metrics\n", ds.Addr())
	return func() { ds.Close() }
}

// startStatsLoop logs a stats line every interval.
func startStatsLoop(every time.Duration, d *dispatch.Dispatcher) {
	if every <= 0 {
		return
	}
	go func() {
		for range time.Tick(every) {
			st := d.Stats()
			line := fmt.Sprintf("stats: queued=%d outstanding=%d executors=%d (busy=%d) submitted=%d completed=%d failed=%d retried=%d",
				st.Queued, st.Outstanding, st.TotalExecutors, st.BusyExecutors,
				st.Submitted, st.Completed, st.Failed, st.Retried)
			if st.Replication != nil {
				var worst int64
				for _, s := range st.Replication.Standbys {
					if s.Lag > worst {
						worst = s.Lag
					}
				}
				line += fmt.Sprintf(" repl(term=%d standbys=%d lag=%d)",
					st.Replication.Term, len(st.Replication.Standbys), worst)
			}
			if len(st.Tenants) > 0 {
				var throttled int64
				for _, tn := range st.Tenants {
					throttled += tn.Throttled
				}
				line += fmt.Sprintf(" tenants=%d throttled=%d", len(st.Tenants), throttled)
			}
			log.Print(line)
		}
	}()
}

// awaitShutdown blocks on SIGINT/SIGTERM, then drains and seals. A node that
// stops first has stopped itself, its journal failed: exitJournalFailed.
func awaitShutdown(d *dispatch.Dispatcher, journalDir string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-d.Done():
		exitJournalFailed()
	}
	// A second signal skips the drain and exits hard (the journal makes
	// that safe: the next start replays it).
	go func() {
		<-sig
		log.Println("falkon-dispatcher: second signal, exiting immediately")
		os.Exit(1)
	}()
	shutdown(d, journalDir)
}

// exitJournalFailed ends the process after its dispatcher stopped itself on a
// failed journal: exit 3 tells the supervisor to restart it, and the restart
// recovers the journal's durable prefix.
func exitJournalFailed() {
	log.Println("falkon-dispatcher: journal failed, dispatcher stopped; exiting for recovery")
	os.Exit(3)
}

func shutdown(d *dispatch.Dispatcher, journalDir string) {
	log.Println("falkon-dispatcher: draining (up to 30s)")
	if !d.Drain(30 * time.Second) {
		log.Println("falkon-dispatcher: drain timed out; closing with work in flight")
	}
	// Close seals the journal (final flush + fsync) before exiting.
	d.Close()
	if journalDir != "" {
		log.Println("falkon-dispatcher: journal sealed")
	}
	log.Println("falkon-dispatcher: shutdown complete")
}
