// Package falkon is a Go reproduction of "Falkon: a Fast and Light-weight
// tasK executiON framework" (Raicu et al., SC 2007): a multi-level
// scheduling system that separates resource acquisition (a provisioner
// allocating executors through batch-scheduler abstractions) from task
// dispatch (a streamlined dispatcher pushing work-available notifications
// and serving work pulls), achieving orders-of-magnitude higher task
// throughput than conventional batch schedulers for many-task workloads.
//
// This package is the public facade. A System starts an in-process
// deployment — dispatcher, executor pool (static or dynamically
// provisioned), and connected client — communicating over real TCP with the
// full Falkon protocol (bundling, piggy-backing, replay, notifications):
//
//	sys, err := falkon.Start(falkon.Config{Executors: 4, BundleSize: 32})
//	if err != nil { ... }
//	defer sys.Close()
//
//	var gen falkon.IDGen
//	if err := sys.Submit(falkon.SleepBatch(&gen, 1000, 0)); err != nil { ... }
//	results, err := sys.WaitN(1000, time.Minute)
//
// Tasks are dispatched next-available, in FIFO order, as the paper evaluates
// them. A task that names the dataset it reads (IOSpec.Dataset) is also
// placed by locality, the data-aware dispatch the paper proposes in §6: an
// executor that has run a task reading a dataset is handed, from near the
// head of the queue, the tasks that read one it holds. No option turns
// this on or off; a workload that names no dataset is served in plain FIFO
// order.
//
// For distributed deployments, run cmd/falkon-dispatcher and
// cmd/falkon-executor and connect with NewClient. The virtual-time models
// that regenerate the paper's experiments live in internal/simfalkon and are
// driven by cmd/falkon-bench.
package falkon

import (
	"time"

	"falkon/internal/client"
	"falkon/internal/core"
	"falkon/internal/executor"
	"falkon/internal/obs"
	"falkon/internal/provision"
	"falkon/internal/task"
)

// Task is one unit of work (command, args, synthetic engine, duration).
type Task = task.Task

// Result reports a finished task with full lifecycle timing.
type Result = task.Result

// ID identifies a task within a client instance.
type ID = task.ID

// IDGen hands out unique task ids.
type IDGen = task.IDGen

// IOSpec describes an EngineData task's staging volumes.
type IOSpec = task.IOSpec

// Engine selects how executors interpret a task.
type Engine = task.Engine

// Task engines.
const (
	EngineSleep = task.EngineSleep
	EngineData  = task.EngineData
	EngineExec  = task.EngineExec
	EngineFunc  = task.EngineFunc
)

// Config configures an in-process System.
type Config = core.Config

// ProvisioningConfig enables dynamic resource provisioning.
type ProvisioningConfig = core.ProvisioningConfig

// System is a running in-process Falkon deployment.
type System = core.System

// Func is an in-process task body registered on executors.
type Func = executor.Func

// Release policies (paper §3.1).
const (
	ReleaseDistributed = provision.ReleaseDistributed
	ReleaseCentralized = provision.ReleaseCentralized
	ReleaseNever       = provision.ReleaseNever
)

// Start boots an in-process Falkon system.
func Start(cfg Config) (*System, error) { return core.Start(cfg) }

// Sleep builds a synthetic task running for d.
func Sleep(id ID, d time.Duration) Task { return task.Sleep(id, d) }

// SleepBatch builds n sleep tasks of duration d.
func SleepBatch(gen *IDGen, n int, d time.Duration) []Task { return task.Batch(gen, n, d) }

// AllAtOnce returns the single-request acquisition policy used throughout
// the paper's evaluation.
func AllAtOnce() provision.AcquisitionPolicy { return provision.AllAtOnce() }

// OneAtATime returns the n-single-requests acquisition policy.
func OneAtATime() provision.AcquisitionPolicy { return provision.OneAtATime() }

// Additive returns the arithmetically-increasing acquisition policy.
func Additive(step int) provision.AcquisitionPolicy { return provision.Additive(step) }

// Exponential returns the exponentially-increasing acquisition policy.
func Exponential() provision.AcquisitionPolicy { return provision.Exponential() }

// Available returns the system-function acquisition policy: each request is
// capped by free, which reports how many executors the LRM could start now.
func Available(free func() int) provision.AcquisitionPolicy { return provision.Available(free) }

// MetricsSnapshot is a point-in-time view of a component's instrument
// registry: counters, gauges, and mergeable latency histograms. Snapshots
// from several components merge (counters sum, histograms combine), which is
// how a forwarder aggregates its dispatchers.
type MetricsSnapshot = obs.MetricsSnapshot

// TraceEvent is one task-lifecycle trace record (enqueued, notified, pulled,
// started, finished, delivered, ...) on the dispatcher timeline.
type TraceEvent = obs.Event

// ServeDebug starts an HTTP server exposing a registry as a Prometheus-style
// /metrics endpoint, recent trace events at /events.json, and net/http/pprof
// under /debug/pprof/. Either argument may be nil.
func ServeDebug(addr string, reg *obs.Registry, tr *obs.Tracer) (*obs.DebugServer, error) {
	return obs.ServeDebug(addr, reg, tr)
}

// ClientOptions configures NewClient for connecting to a remote dispatcher.
type ClientOptions = client.Options

// Client is a connection to a (possibly remote) dispatcher.
type Client = client.Client

// NewClient connects to a dispatcher started elsewhere (e.g.
// cmd/falkon-dispatcher).
func NewClient(opts ClientOptions) (*Client, error) { return client.Connect(opts) }
