// Package task defines the task and result types shared by every layer of
// the Falkon reproduction: the live TCP runtime, the virtual-time simulator,
// the workflow engine, and the benchmark drivers.
//
// A Task mirrors the fields of a Falkon "submit" entry from the paper
// (§3.2): working directory, command, arguments, and environment, plus the
// synthetic engines this reproduction adds so experiments can run without
// forking real processes.
package task

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Engine selects how an executor interprets a task's command.
type Engine uint8

const (
	// EngineSleep runs a synthetic task of a fixed duration. Args[0] is the
	// duration in seconds (fractional allowed). "sleep 0" tasks — the
	// paper's microbenchmark staple — complete immediately.
	EngineSleep Engine = iota
	// EngineData models a task that stages data in and/or out before a
	// fixed compute duration; staging cost is charged by the storage model.
	EngineData
	// EngineExec forks a real OS process (command + args). Used by the
	// standalone executor binary; never used in virtual time.
	EngineExec
	// EngineFunc invokes a Go function registered on the executor by name.
	// Used by the examples and the workflow engine to run task bodies
	// in-process.
	EngineFunc
)

// String returns the engine name used in workload files and logs.
func (e Engine) String() string {
	switch e {
	case EngineSleep:
		return "sleep"
	case EngineData:
		return "data"
	case EngineExec:
		return "exec"
	case EngineFunc:
		return "func"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine converts a workload-file engine name to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "sleep", "":
		return EngineSleep, nil
	case "data":
		return EngineData, nil
	case "exec":
		return EngineExec, nil
	case "func":
		return EngineFunc, nil
	default:
		return 0, fmt.Errorf("task: unknown engine %q", s)
	}
}

// ID identifies a task uniquely within one client instance.
type ID uint64

// String renders the id the way logs and the wire protocol expect.
func (id ID) String() string { return "t" + strconv.FormatUint(uint64(id), 10) }

// Status tracks a task through its lifecycle.
type Status uint8

const (
	StatusQueued Status = iota
	StatusDispatched
	StatusRunning
	StatusDone
	StatusFailed
)

// String returns the lifecycle stage name.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusDispatched:
		return "dispatched"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// IOSpec describes the data a task reads and writes (EngineData). Sizes are
// in bytes; Location names the storage tier ("shared" or "local").
type IOSpec struct {
	ReadBytes  int64  `json:"read_bytes,omitempty"`
	WriteBytes int64  `json:"write_bytes,omitempty"`
	Location   string `json:"location,omitempty"`
	// Dataset names the data object the task reads; a task that names one
	// is placed by locality (paper §6 future work), on an executor that
	// already caches the object where one can take it.
	Dataset string `json:"dataset,omitempty"`
}

// Task is one unit of work. It is immutable once submitted; all mutable
// bookkeeping lives in the dispatcher and in Result.
type Task struct {
	ID      ID       `json:"id"`
	Engine  Engine   `json:"engine,omitempty"`
	Dir     string   `json:"dir,omitempty"`
	Command string   `json:"command,omitempty"`
	Args    []string `json:"args,omitempty"`
	Env     []string `json:"env,omitempty"`
	IO      *IOSpec  `json:"io,omitempty"`

	// Duration is the synthetic run time for EngineSleep/EngineData tasks.
	Duration time.Duration `json:"duration,omitempty"`

	// MaxRetries bounds re-dispatch under the replay policy (paper §3.1).
	// Zero means use the dispatcher default.
	MaxRetries int `json:"max_retries,omitempty"`

	// Stage labels the workflow stage that produced the task (for the
	// per-stage accounting in §4.6 and §5). Optional.
	Stage int `json:"stage,omitempty"`

	// Trace is the distributed-tracing id assigned at submit time. Unlike
	// ID it survives the EPR rewriting a forwarder tier performs, so span
	// dumps from different processes join on it. Zero means untraced.
	Trace uint64 `json:"trace,omitempty"`
}

// Sleep returns a synthetic task that runs for d.
func Sleep(id ID, d time.Duration) Task {
	return Task{ID: id, Engine: EngineSleep, Command: "sleep", Duration: d}
}

// Result reports a completed (or failed) task.
type Result struct {
	ID       ID     `json:"id"`
	ExitCode int    `json:"exit_code,omitempty"`
	Stdout   string `json:"stdout,omitempty"`
	Stderr   string `json:"stderr,omitempty"`
	Err      string `json:"err,omitempty"`

	// ExecutorID names the executor that ran the task.
	ExecutorID string `json:"executor,omitempty"`

	// Timing in nanoseconds since the owning instance's epoch. In the live
	// runtime the epoch is wall-clock start; in the simulator it is virtual
	// time zero. QueuedAt <= DispatchedAt <= StartedAt <= FinishedAt.
	// omitempty: executors upload results before the dispatcher rebases
	// these stamps, so they are zero on the wire's hottest leg.
	QueuedAt     time.Duration `json:"queued_at,omitempty"`
	DispatchedAt time.Duration `json:"dispatched_at,omitempty"`
	StartedAt    time.Duration `json:"started_at,omitempty"`
	FinishedAt   time.Duration `json:"finished_at,omitempty"`

	// Attempts counts dispatches including the successful one.
	Attempts int `json:"attempts,omitempty"`

	// Trace echoes the task's trace id so result consumers can correlate
	// with span dumps without re-joining on (EPR, ID).
	Trace uint64 `json:"trace,omitempty"`
}

// Failed reports whether the task ultimately failed.
func (r Result) Failed() bool { return r.Err != "" || r.ExitCode != 0 }

// QueueTime is the interval the task spent waiting to be dispatched.
func (r Result) QueueTime() time.Duration { return r.DispatchedAt - r.QueuedAt }

// ExecTime is the interval from dispatch to result delivery, the paper's
// per-task "execution time" (Table 3).
func (r Result) ExecTime() time.Duration { return r.FinishedAt - r.DispatchedAt }

// RunTime is the interval the task actually computed.
func (r Result) RunTime() time.Duration { return r.FinishedAt - r.StartedAt }

// Overhead is lifecycle time minus pure run time: the paper's Figure 10
// metric (thread creation + WS pickup + exec setup + result delivery).
func (r Result) Overhead() time.Duration { return r.ExecTime() - r.RunTime() }

// IDGen hands out monotonically increasing task ids; safe for concurrent
// use.
type IDGen struct{ next atomic.Uint64 }

// Next returns a fresh id, starting from 1.
func (g *IDGen) Next() ID { return ID(g.next.Add(1)) }

// Batch builds n sleep tasks of duration d using gen for ids.
func Batch(gen *IDGen, n int, d time.Duration) []Task {
	out := make([]Task, n)
	for i := range out {
		out[i] = Sleep(gen.Next(), d)
	}
	return out
}
