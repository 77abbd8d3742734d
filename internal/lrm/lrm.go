// Package lrm simulates a local resource manager — a batch scheduler in the
// mold of PBS v2.1.8 or Condor v6.7.2 — on the virtual clock of
// internal/sim. The model captures exactly the behaviours the paper's
// evaluation depends on:
//
//   - a FIFO job queue scanned by a scheduler that wakes on a fixed poll
//     interval (the paper observed PBS's ~60 s polling loop, making
//     allocation latency vary between 5 and 65 s);
//   - serialized job dispatch with a large per-job overhead (the measured
//     0.45 jobs/s for PBS and 0.49 jobs/s for Condor: 100 sleep-0 jobs took
//     224 s / 203 s on 64 free nodes);
//   - per-job prologue/epilogue overhead inflating measured execution time
//     (GRAM4+PBS averaged 56.5 s of "execution" for 17.8 s tasks);
//   - delayed node reclamation after job completion (the paper notes PBS
//     takes longer still to make a node available again).
//
// Both the direct-submission baselines (Tables 2-4, Figure 7) and Falkon's
// provisioner pathway (allocation requests for executor pools) run against
// this model.
package lrm

import (
	"fmt"
	"time"

	"falkon/internal/sim"
)

// Profile parameterizes a scheduler model.
type Profile struct {
	Name string
	// PollInterval is the scheduler wake-up period.
	PollInterval time.Duration
	// DispatchCost serializes job starts (reciprocal of the measured
	// sleep-0 job throughput).
	DispatchCost time.Duration
	// Prologue and Epilogue run on the node around each job's payload and
	// count into the job's measured execution time (GRAM state Active ->
	// Done).
	Prologue time.Duration
	Epilogue time.Duration
	// NodeReclaim delays a node's return to the free pool after Done — the
	// paper's "PBS takes even longer to make the machine available again".
	NodeReclaim time.Duration
	// Backfill enables aggressive backfilling: when the queue head does not
	// fit the free nodes, later jobs that do fit may start. The paper's
	// production schedulers ran plain FIFO (the default here); the option
	// exists to study how much of the Falkon gap scheduler tuning could
	// close.
	Backfill bool
}

// PBS returns the PBS v2.1.8 profile calibrated to the paper's measured
// 0.45 sleep-0 jobs/s on 64 free nodes (100 jobs in ~224 s including the
// poll-loop offset), a 60 s polling loop, small node-side prologue/epilogue,
// and node reclaim lag. The much larger GRAM4 per-task overhead is layered
// on by the Gateway, not here, because the paper's raw PBS throughput test
// bypassed GRAM4.
func PBS() Profile {
	return Profile{
		Name:         "PBS-v2.1.8",
		PollInterval: 60 * time.Second,
		DispatchCost: 2200 * time.Millisecond,
		Prologue:     time.Second,
		Epilogue:     time.Second,
		NodeReclaim:  20 * time.Second,
	}
}

// Condor returns the Condor v6.7.2 profile: 0.49 sleep-0 jobs/s measured
// (100 jobs in ~203 s), with matching scheduling overheads.
func Condor() Profile {
	return Profile{
		Name:         "Condor-v6.7.2",
		PollInterval: 60 * time.Second,
		DispatchCost: 2040 * time.Millisecond,
		Prologue:     time.Second,
		Epilogue:     time.Second,
		NodeReclaim:  20 * time.Second,
	}
}

// JobState tracks a job through the scheduler.
type JobState uint8

const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobCancelled
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("jobstate(%d)", uint8(s))
	}
}

// Job is one batch submission.
type Job struct {
	ID    int
	Nodes int
	// Duration is the payload run time; negative means open-ended (the job
	// holds its nodes until Cancel) — used for provisioner allocations.
	Duration time.Duration

	// OnActive fires when the job's payload starts (GRAM "Active"),
	// after the prologue.
	OnActive func(j *Job)
	// OnDone fires when the payload and epilogue finish (GRAM "Done").
	OnDone func(j *Job)

	state       JobState
	submittedAt time.Duration
	activeAt    time.Duration
	doneAt      time.Duration
}

// State returns the job's current state.
func (j *Job) State() JobState { return j.state }

// QueueTime returns time from submission to payload start (valid once
// active).
func (j *Job) QueueTime() time.Duration { return j.activeAt - j.submittedAt }

// MeasuredExec returns the GRAM-visible execution span (Active to Done).
func (j *Job) MeasuredExec() time.Duration { return j.doneAt - j.activeAt }

// LRM is one simulated batch scheduler instance.
type LRM struct {
	e     *sim.Engine
	prof  Profile
	total int
	free  int

	queue       []*Job
	nextID      int
	dispatching bool
	pollArmed   bool

	started   int
	completed int
}

// New creates an LRM with the given node count on engine e. The scheduler
// polls on a fixed boundary grid (multiples of PollInterval), but only
// while jobs are queued, so simulations terminate when the workload drains.
func New(e *sim.Engine, prof Profile, nodes int) *LRM {
	if nodes <= 0 {
		panic(fmt.Sprintf("lrm: node count %d", nodes))
	}
	if prof.PollInterval <= 0 {
		panic("lrm: profile needs a positive poll interval")
	}
	return &LRM{e: e, prof: prof, total: nodes, free: nodes}
}

// armPoll schedules the next poll-boundary wakeup if one is not pending.
// Boundaries sit on the PollInterval grid regardless of submission time,
// which is what spreads allocation latency across the paper's 5-65 s
// window.
func (l *LRM) armPoll() {
	if l.pollArmed {
		return
	}
	l.pollArmed = true
	next := (l.e.Now()/l.prof.PollInterval + 1) * l.prof.PollInterval
	l.e.At(next, func() {
		l.pollArmed = false
		l.schedule()
		if len(l.queue) > 0 {
			l.armPoll()
		}
	})
}

// QueueLen returns the number of queued jobs.
func (l *LRM) QueueLen() int { return len(l.queue) }

// Started and Completed return lifetime job counts.
func (l *LRM) Started() int   { return l.started }
func (l *LRM) Completed() int { return l.completed }

// Submit enqueues a job. The scheduler only notices at its next poll
// boundary (or while an existing dispatch chain is running), reproducing
// the 5-65 s allocation latency the paper observed.
func (l *LRM) Submit(j *Job) {
	if j.Nodes <= 0 || j.Nodes > l.total {
		panic(fmt.Sprintf("lrm: job wants %d of %d nodes", j.Nodes, l.total))
	}
	l.nextID++
	j.ID = l.nextID
	j.state = JobQueued
	j.submittedAt = l.e.Now()
	l.queue = append(l.queue, j)
	l.armPoll()
}

// Cancel releases a running open-ended job's nodes (or removes a queued
// job).
func (l *LRM) Cancel(j *Job) {
	switch j.state {
	case JobQueued:
		for i, q := range l.queue {
			if q == j {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				break
			}
		}
		j.state = JobCancelled
	case JobRunning:
		j.state = JobCancelled
		j.doneAt = l.e.Now()
		l.releaseNodes(j.Nodes)
	}
}

// schedule starts the dispatch chain if it is not already running.
func (l *LRM) schedule() {
	if l.dispatching {
		return
	}
	l.dispatchNext()
}

// nextRunnable picks the queue index to dispatch: the head under FIFO, or
// the first fitting job under aggressive backfill. Returns -1 when nothing
// can start.
func (l *LRM) nextRunnable() int {
	if len(l.queue) == 0 {
		return -1
	}
	if l.queue[0].Nodes <= l.free {
		return 0
	}
	if !l.prof.Backfill {
		return -1
	}
	for i, j := range l.queue {
		if j.Nodes <= l.free {
			return i
		}
	}
	return -1
}

// dispatchNext serially starts queued jobs while nodes are available,
// charging DispatchCost per job — the scheduler's serialization bottleneck.
func (l *LRM) dispatchNext() {
	// FIFO without backfill: a big job at the head blocks the queue, like
	// the paper's production schedulers in their default configuration.
	idx := l.nextRunnable()
	if idx < 0 {
		l.dispatching = false
		return
	}
	l.dispatching = true
	j := l.queue[idx]
	l.queue = append(l.queue[:idx], l.queue[idx+1:]...)
	l.free -= j.Nodes
	l.e.After(l.prof.DispatchCost, func() {
		if j.state == JobCancelled {
			l.releaseNodes(j.Nodes)
			l.dispatchNext()
			return
		}
		l.startJob(j)
		l.dispatchNext()
	})
}

// startJob runs prologue, payload, epilogue in virtual time.
func (l *LRM) startJob(j *Job) {
	j.state = JobRunning
	l.started++
	l.e.After(l.prof.Prologue, func() {
		if j.state == JobCancelled {
			return
		}
		j.activeAt = l.e.Now()
		if j.OnActive != nil {
			j.OnActive(j)
		}
		if j.Duration < 0 {
			return // open-ended: holds nodes until Cancel
		}
		l.e.After(j.Duration+l.prof.Epilogue, func() {
			if j.state == JobCancelled {
				return
			}
			j.state = JobDone
			j.doneAt = l.e.Now()
			l.completed++
			if j.OnDone != nil {
				j.OnDone(j)
			}
			l.releaseNodes(j.Nodes)
		})
	})
}

// releaseNodes returns nodes to the free pool after the reclaim delay and
// pokes the dispatch chain.
func (l *LRM) releaseNodes(n int) {
	l.e.After(l.prof.NodeReclaim, func() {
		l.free += n
		if l.free > l.total {
			panic("lrm: released more nodes than exist")
		}
		l.schedule()
	})
}
