// Package data models the storage tiers of the paper's data-access
// evaluation (§4.2, Figure 4): a GPFS-like shared file system served by
// eight I/O nodes, and the local disk of each compute node. The model is a
// bandwidth envelope: each configuration has an aggregate bandwidth cap
// (the plateau of Figure 4's Mb/s curves) and optionally a cap on write
// task operations per second (GPFS's metadata/write contention, which held
// GPFS read+write to 150 tasks/s even at 1-byte sizes).
//
// Throughput(size) = min(dispatchCap, opsCap, aggregateMbps / sizeMb),
// which reproduces the Figure 4 shape: task throughput flat near the
// dispatch ceiling until the bandwidth envelope binds, then falling as 1/s,
// while Mb/s rises to the plateau.
package data

import (
	"fmt"
	"time"
)

// Location names a storage tier in task IO specs.
const (
	LocationShared = "shared" // GPFS-like shared file system
	LocationLocal  = "local"  // compute-node local disk
)

// Profile is one (location, access-pattern) configuration of Figure 4.
type Profile struct {
	Name string
	// AggregateMbps caps the total payload data rate, in megabits/s, over
	// all concurrent tasks (Figure 4's dotted-line plateaus).
	AggregateMbps float64
	// TaskOpsCap caps task completions per second regardless of size
	// (write contention; 0 = uncapped).
	TaskOpsCap float64
}

// The four Figure 4 configurations with the paper's measured plateaus.
var (
	GPFSRead       = Profile{Name: "GPFS read", AggregateMbps: 3067}
	GPFSReadWrite  = Profile{Name: "GPFS read+write", AggregateMbps: 326, TaskOpsCap: 150}
	LocalRead      = Profile{Name: "LOCAL read", AggregateMbps: 52015}
	LocalReadWrite = Profile{Name: "LOCAL read+write", AggregateMbps: 32667}
)

// bitsPerMb is megabit as used in the paper's figures.
const bitsPerMb = 1e6

// TaskThroughput returns achievable tasks/s for tasks touching size bytes
// each, under a dispatcher ceiling of dispatchCap tasks/s.
func (p Profile) TaskThroughput(size int64, dispatchCap float64) float64 {
	if size < 0 {
		panic(fmt.Sprintf("data: negative size %d", size))
	}
	rate := dispatchCap
	if p.TaskOpsCap > 0 && p.TaskOpsCap < rate {
		rate = p.TaskOpsCap
	}
	if size > 0 {
		if bw := p.AggregateMbps * bitsPerMb / (float64(size) * 8); bw < rate {
			rate = bw
		}
	}
	return rate
}

// DataMbps returns the payload data rate (size × tasks/s, in Mb/s) at the
// achievable task throughput — Figure 4's dotted lines.
func (p Profile) DataMbps(size int64, dispatchCap float64) float64 {
	return p.TaskThroughput(size, dispatchCap) * float64(size) * 8 / bitsPerMb
}

// StageTime returns the synthetic staging duration for one task moving
// size bytes while sharing the tier with concurrent-1 other tasks. Used by
// live executors (DataCost) and the simulator to charge I/O time.
func (p Profile) StageTime(size int64, concurrent int) time.Duration {
	if size <= 0 {
		return 0
	}
	if concurrent < 1 {
		concurrent = 1
	}
	perTaskMbps := p.AggregateMbps / float64(concurrent)
	seconds := float64(size) * 8 / (perTaskMbps * bitsPerMb)
	d := time.Duration(seconds * float64(time.Second))
	if p.TaskOpsCap > 0 {
		// Contention floor: the tier completes at most TaskOpsCap tasks/s,
		// so each of the concurrent tasks needs at least concurrent/cap.
		if floor := time.Duration(float64(concurrent) / p.TaskOpsCap * float64(time.Second)); d < floor {
			d = floor
		}
	}
	return d
}

// ForTask selects the profile matching an IO spec: location plus whether
// the task writes.
func ForTask(location string, writes bool) (Profile, error) {
	switch location {
	case LocationShared, "":
		if writes {
			return GPFSReadWrite, nil
		}
		return GPFSRead, nil
	case LocationLocal:
		if writes {
			return LocalReadWrite, nil
		}
		return LocalRead, nil
	default:
		return Profile{}, fmt.Errorf("data: unknown location %q", location)
	}
}
