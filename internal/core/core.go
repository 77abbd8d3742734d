// Package core wires the Falkon components — dispatcher, executors,
// provisioner, and client — into a single in-process System, the
// convenience entry point used by the public falkon package, the examples,
// and the workflow engine. Everything still communicates over real TCP
// loopback connections using the full protocol; core only handles lifecycle
// plumbing.
package core

import (
	"fmt"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/provision"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// ProvisioningConfig enables dynamic resource provisioning.
type ProvisioningConfig struct {
	// MinExecutors and MaxExecutors bound the dynamic pool.
	MinExecutors int
	MaxExecutors int
	// IdleTimeout is the distributed-release idle time (0 with
	// ReleaseNever keeps executors forever — Falkon-∞).
	IdleTimeout time.Duration
	// Release selects the release policy (default distributed).
	Release provision.ReleasePolicy
	// QueueThreshold feeds the centralized release policy.
	QueueThreshold int
	// Acquisition selects the acquisition policy (default all-at-once).
	Acquisition provision.AcquisitionPolicy
	// PollInterval is the provisioner poll cadence (default 100 ms
	// in-process).
	PollInterval time.Duration
	// StartupDelay models LRM allocation latency before an executor
	// registers.
	StartupDelay time.Duration
}

// Config configures an in-process Falkon system.
type Config struct {
	// Executors statically starts this many executors at boot (ignored
	// when Provisioning is set; the provisioner owns the pool then).
	Executors int
	// Security and PSK select the transport profile.
	Security wsrpc.SecurityProfile
	PSK      []byte
	// BundleSize enables client-dispatcher task bundling (default 1).
	BundleSize int
	// SleepScale compresses synthetic task durations (default 1.0).
	SleepScale float64
	// Funcs registers in-process task bodies for EngineFunc tasks.
	Funcs map[string]executor.Func
	// DataCost prices EngineData staging.
	DataCost func(io task.IOSpec) time.Duration
	// NoRetryOnFailure reports a failed task instead of re-dispatching it
	// (see dispatch.Options).
	NoRetryOnFailure bool
	// Provisioning, when non-nil, runs a provisioner instead of a static
	// pool.
	Provisioning *ProvisioningConfig
	// Tenants declares per-tenant weights and admission limits, and with them
	// weighted fair-share scheduling (see dispatch.Options). Tenant names the
	// system client's own tenant.
	Tenants []dispatch.TenantSpec
	Tenant  string
	// JournalDir enables the dispatcher's write-ahead task journal; on boot
	// the dispatcher recovers any state the directory holds.
	JournalDir string
	// Logf receives component logs.
	Logf func(format string, args ...any)
}

// System is a running in-process Falkon deployment, or (via Attach) a
// client view of a remote one.
type System struct {
	cfg         Config
	dispatcher  *dispatch.Dispatcher // nil for attached remote systems
	remoteAddr  string
	cli         *client.Client
	execs       []*executor.Executor
	provisioner *provision.Provisioner
}

// Attach connects to a dispatcher started elsewhere (cmd/falkon-dispatcher)
// and returns a System backed by it: Submit/WaitN/Results/Stats work as
// usual; Close only disconnects the client.
func Attach(addr string, copts client.Options) (*System, error) {
	copts.DispatcherAddr = addr
	cli, err := client.Connect(copts)
	if err != nil {
		return nil, err
	}
	return &System{cli: cli, remoteAddr: addr}, nil
}

// Start boots the system: dispatcher first, then the executor pool (static
// or provisioned), then a connected client.
func Start(cfg Config) (*System, error) {
	if cfg.SleepScale == 0 {
		cfg.SleepScale = 1.0
	}
	s := &System{cfg: cfg}
	s.dispatcher = dispatch.New(dispatch.Options{
		Security:         cfg.Security,
		PSK:              cfg.PSK,
		NoRetryOnFailure: cfg.NoRetryOnFailure,
		Tenants:          cfg.Tenants,
		JournalDir:       cfg.JournalDir,
		Logf:             cfg.Logf,
	})
	if err := s.dispatcher.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}

	execTemplate := executor.Options{
		DispatcherAddr: s.dispatcher.Addr(),
		Security:       cfg.Security,
		PSK:            cfg.PSK,
		SleepScale:     cfg.SleepScale,
		Funcs:          cfg.Funcs,
		DataCost:       cfg.DataCost,
		Logf:           cfg.Logf,
	}

	if p := cfg.Provisioning; p != nil {
		poll := p.PollInterval
		if poll <= 0 {
			poll = 100 * time.Millisecond
		}
		prov, err := provision.New(provision.Options{
			Stats: func() (provision.Stats, error) {
				st := s.dispatcher.Stats()
				return provision.Stats{Queued: st.Queued, Running: st.Outstanding}, nil
			},
			Metrics:        s.dispatcher.Metrics(),
			Allocator:      &LocalAllocator{Template: execTemplate, StartupDelay: p.StartupDelay},
			Acquisition:    p.Acquisition,
			Release:        p.Release,
			IdleTimeout:    p.IdleTimeout,
			QueueThreshold: p.QueueThreshold,
			MinExecutors:   p.MinExecutors,
			MaxExecutors:   p.MaxExecutors,
			PollInterval:   poll,
			Logf:           cfg.Logf,
		})
		if err != nil {
			s.dispatcher.Close()
			return nil, err
		}
		s.provisioner = prov
		prov.Start()
	} else {
		for i := 0; i < cfg.Executors; i++ {
			o := execTemplate
			o.ID = fmt.Sprintf("exec-%d", i)
			ex, err := executor.Start(o)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("core: start executor %d: %w", i, err)
			}
			s.execs = append(s.execs, ex)
		}
	}

	cli, err := client.Connect(client.Options{
		DispatcherAddr: s.dispatcher.Addr(),
		Name:           "core",
		Security:       cfg.Security,
		PSK:            cfg.PSK,
		BundleSize:     cfg.BundleSize,
		Tenant:         cfg.Tenant,
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	s.cli = cli
	return s, nil
}

// Addr returns the dispatcher's address (for attaching external executors
// or clients).
func (s *System) Addr() string {
	if s.dispatcher == nil {
		return s.remoteAddr
	}
	return s.dispatcher.Addr()
}

// Submit sends tasks through the system's client.
func (s *System) Submit(tasks []task.Task) error { return s.cli.Submit(tasks) }

// Results exposes the finished-task stream.
func (s *System) Results() <-chan task.Result { return s.cli.Results() }

// WaitN collects n results or times out.
func (s *System) WaitN(n int, timeout time.Duration) ([]task.Result, error) {
	return s.cli.WaitN(n, timeout)
}

// Stats snapshots dispatcher state (over the wire for attached systems).
func (s *System) Stats() fproto.StatsReply {
	if s.dispatcher == nil {
		st, err := s.cli.Stats()
		if err != nil {
			return fproto.StatsReply{}
		}
		return st
	}
	return s.dispatcher.Stats()
}

// Metrics snapshots the dispatcher's full instrument registry — counters,
// gauges, and stage/RPC latency histograms (over the wire for attached
// systems).
func (s *System) Metrics() (fproto.MetricsReply, error) {
	if s.dispatcher == nil {
		return s.cli.Metrics()
	}
	return s.dispatcher.MetricsSnapshot(), nil
}

// Events returns task-lifecycle trace events after sinceSeq; max bounds the
// batch (0 = all retained).
func (s *System) Events(sinceSeq uint64, max int) (fproto.EventsReply, error) {
	if s.dispatcher == nil {
		return s.cli.Events(sinceSeq, max)
	}
	events, next := s.dispatcher.Tracer().Since(sinceSeq, max)
	return fproto.EventsReply{Events: events, NextSeq: next}, nil
}

// Client returns the system's connected client (for advanced use).
func (s *System) Client() *client.Client { return s.cli }

// Dispatcher returns the underlying dispatcher.
func (s *System) Dispatcher() *dispatch.Dispatcher { return s.dispatcher }

// Provisioner returns the provisioner, or nil for static pools.
func (s *System) Provisioner() *provision.Provisioner { return s.provisioner }

// Close tears everything down: client, provisioner/executors, dispatcher.
// For attached remote systems only the client disconnects.
func (s *System) Close() error {
	if s.cli != nil {
		s.cli.Close()
	}
	if s.provisioner != nil {
		s.provisioner.Stop()
		s.provisioner.ReleaseAll() // returns once the executors are gone
	}
	for _, ex := range s.execs {
		ex.Stop()
	}
	if s.dispatcher == nil {
		return nil
	}
	return s.dispatcher.Close()
}
