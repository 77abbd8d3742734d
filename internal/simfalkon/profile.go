// Package simfalkon models the Falkon dispatcher, executors, and
// provisioner on the virtual clock of internal/sim, calibrated to the
// paper's measured costs. Every long or large experiment — the 2M-task
// endurance run, the 54K-executor scalability run, the efficiency curves,
// and the dynamic-provisioning study — replays on these models in seconds
// of wall-clock time, deterministically.
//
// The model charges the dispatcher CPU (a serial resource) for each message
// it handles, exactly as the paper's profiling describes ("most dispatcher
// time is spent communicating"):
//
//   - a submit bundle costs the Axis serialization envelope (per-message +
//     per-task + quadratic grow-copy);
//   - assigning a task to an idle executor costs a notification push plus a
//     get-work call (the cold path, messages {3,4,5});
//   - a result delivery with piggy-backed next task costs one WS call (the
//     hot path, messages {6,7}) — this is the 1/487 s that bounds steady
//     throughput;
//   - optional JVM garbage-collection stalls preempt the dispatcher after
//     every GCBusyRun of accumulated service time (Figure 8's zero-rate raw
//     samples).
package simfalkon

import (
	"time"
)

// GCProfile models JVM garbage-collection stalls on the dispatcher.
type GCProfile struct {
	// BusyRun is how much dispatcher service time accrues between stalls.
	BusyRun time.Duration
	// Pause is the stall length.
	Pause time.Duration
}

// Profile calibrates the virtual-time model. All values trace to measured
// numbers in the paper (see DESIGN.md §5).
type Profile struct {
	Name string

	// DeliverCost is the dispatcher service time for one result-delivery
	// WS call with piggy-backed dispatch — the steady-state per-task cost.
	// 1/487 s without security, 1/204 s with GSISecureConversation.
	DeliverCost time.Duration
	// GetWorkCost is the dispatcher service time for an explicit work pull.
	GetWorkCost time.Duration
	// NotifyCost is the dispatcher service time to push one work-available
	// notification (the custom TCP protocol plus notification-engine
	// queueing).
	NotifyCost time.Duration

	// ExecOverhead is the executor-side per-task setup time (thread
	// creation, exec setup, result packaging). With DeliverCost it forms
	// the single-executor cycle: 1/28 s without security, 1/12 s with.
	ExecOverhead time.Duration
	// ExecOverheadJitter adds an exponentially-distributed tail (CPU
	// contention when many executors share a machine, as in the 54K run).
	ExecOverheadJitter time.Duration
	// ExecOverheadCap clips the jittered overhead (the paper's Figure 10
	// maximum was 1300 ms).
	ExecOverheadCap time.Duration

	// Axis prices client->dispatcher submit bundles. Bundle processing runs
	// on its own pipeline (the GT4 container's thread pool on the dual-CPU
	// dispatcher machine), not on the dispatch path.
	Axis AxisCostModel
	// SubmitShare is the fraction of each bundle's cost that contends with
	// the dispatch path anyway (shared memory bus, GC pressure, queue
	// locks). It produces the paper's small throughput bump once the client
	// finishes submitting (Figure 8's +10-15 tasks/s).
	SubmitShare float64

	// GC, when non-nil, injects dispatcher stalls.
	GC *GCProfile

	// FailureProb injects task failures: each execution fails with this
	// probability, exercising the replay policy (§3.1) at scale.
	FailureProb float64
	// MaxRetries bounds re-dispatches for failed tasks (default 3, as in
	// the live dispatcher). A task exhausting retries reports failed.
	MaxRetries int

	// NoPiggyback disables returning the next task on the result-delivery
	// acknowledgment: completions go through the full notify+get-work cold
	// path instead (ablation of §3.4's optimization).
	NoPiggyback bool

	// Prefetch overlaps communication with execution (§6 future work):
	// while a task runs, the executor requests the next one, paying an
	// extra GetWorkCost per task on the dispatcher but hiding the delivery
	// round trip. Trade-off: more dispatcher messages per task, less
	// executor idle time.
	Prefetch bool

	// PurePullInterval, when positive, replaces the hybrid push/pull
	// protocol with a pure pull model: idle executors poll the dispatcher
	// at this interval instead of waiting for notifications. Each poll
	// costs a GetWorkCost WS call whether or not work is available — the
	// paper's "500 executors polling every second keep dispatcher CPU at
	// 100%" observation (§3.3).
	PurePullInterval time.Duration
}

// secRatio is the measured security slowdown (487/204).
const (
	noSecDeliver = time.Second / 487
	secDeliver   = time.Second / 204
	noSecCycle   = time.Second / 28
	secCycle     = time.Second / 12
)

// NoSecurity returns the paper's no-security calibration.
func NoSecurity() Profile {
	return Profile{
		Name:         "falkon-nosec",
		DeliverCost:  noSecDeliver,
		GetWorkCost:  noSecDeliver,
		NotifyCost:   4900 * time.Microsecond,
		ExecOverhead: noSecCycle - noSecDeliver,
		Axis:         DefaultAxisCostModel(),
		SubmitShare:  0.05,
	}
}

// Secure returns the GSISecureConversation calibration: every message costs
// more CPU (encryption + authentication), halving throughput.
func Secure() Profile {
	return Profile{
		Name:         "falkon-secure",
		DeliverCost:  secDeliver,
		GetWorkCost:  secDeliver,
		NotifyCost:   4900 * time.Microsecond,
		ExecOverhead: secCycle - secDeliver,
		Axis:         DefaultAxisCostModel(),
		SubmitShare:  0.05,
	}
}

// GT4WSCallBound is the measured ceiling of the bare GT4 container (500 WS
// calls/s), the upper bound Falkon cannot exceed on the same hardware.
const GT4WSCallBound = 500.0

// DefaultGC is the Figure 8 JVM calibration: with a 1.5 GB heap under
// constant allocation pressure the dispatcher accumulates ~3 s of service
// time, then stalls ~1.5 s, turning a ~450-490 tasks/s raw rate into a
// ~300 tasks/s sustained average with frequent zero-rate samples.
func DefaultGC() *GCProfile {
	return &GCProfile{BusyRun: 3 * time.Second, Pause: 1500 * time.Millisecond}
}
