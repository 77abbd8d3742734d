// Package replica is the dispatcher's high-availability tier: it streams
// the leader's CRC-framed WAL records to N standby dispatchers over wsrpc
// and elects leaders with a lease file carrying monotonic term numbers.
//
// The design layers on the durability tier without changing it. The
// journal's Mirror hook hands the replication Source every committed batch
// in exact file order, still under the journal's write mutex, so the stream
// is a byte-faithful copy of the committed records. A Standby pulls the
// stream (attach + long-poll fetch), verifies each span and appends it to a
// wal.Journal of its own, and acks durable positions back on the next fetch.
// Promotion is the ordinary crash-recovery path: the new leader runs
// wal.Recover over the standby's directory — replication adds no second
// writer of the journal format and no second replay mechanism.
//
// Exactly-once across failover rests on the same invariants as restart
// recovery: accepted tasks are durable before acknowledgment (and, under
// -replicate quorum, replicated before acknowledgment), clients resubmit
// their pending set idempotently on reconnect, and instances dedupe both
// resubmissions and redeliveries. Async replication can lose the
// unreplicated tail of acked-but-unstreamed records on leader death, but a
// connected client's resubmission covers the gap; quorum mode closes it
// even for clients that never return.
package replica

import (
	"fmt"
	"strings"

	"falkon/internal/wal"
)

// RPC method names served by a replicating leader.
const (
	// MethodAttach negotiates a standby's stream start: resume from the
	// standby's current (term, position) when the source still holds it,
	// else a fresh baseline snapshot (a consistent cut of the leader's
	// state) at the current stream position.
	MethodAttach = "falkon.replica.attach"
	// MethodFetch long-polls the next span of framed records; the request's
	// position doubles as the standby's durable ack.
	MethodFetch = "falkon.replica.fetch"
)

// Mode selects the replication acknowledgment policy.
type Mode uint8

const (
	// ModeAsync streams without gating the submit path: acks only feed the
	// lag gauges. Leader death can lose the unreplicated tail; connected
	// clients recover it by idempotent resubmission.
	ModeAsync Mode = iota
	// ModeQuorum withholds task acknowledgment until every attached standby
	// has durably mirrored the records — the replicated analogue of the
	// journal's group-commit barrier.
	ModeQuorum
)

// String renders the mode the way ParseMode reads it.
func (m Mode) String() string {
	if m == ModeQuorum {
		return "quorum"
	}
	return "async"
}

// ParseMode reads a -replicate flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "async":
		return ModeAsync, nil
	case "quorum":
		return ModeQuorum, nil
	default:
		return 0, fmt.Errorf("replica: unknown mode %q (want async or quorum)", s)
	}
}

// AttachRequest negotiates a standby's stream start.
type AttachRequest struct {
	// ID names the standby in leader logs and stats.
	ID string `json:"id"`
	// Term and Pos are where the standby's journal currently stands. Pos -1
	// (or a term mismatch) forces a fresh baseline.
	Term uint64 `json:"term"`
	Pos  int64  `json:"pos"`
}

// AttachReply tells the standby where its stream starts.
type AttachReply struct {
	// Term is the leader's election term; stream positions are scoped to
	// it (every new leader incarnation restarts the stream at its baseline).
	Term uint64 `json:"term"`
	// Pos is the stream position the standby must continue (or start) from.
	Pos int64 `json:"pos"`
	// Resume reports the standby's existing journal is still valid: the
	// source holds every record from the standby's position onward, so no
	// baseline is needed. False means Snapshot carries a fresh consistent
	// cut to install as the standby's new baseline.
	Resume bool `json:"resume"`
	// Snapshot is the leader's state as of Pos (only when !Resume).
	Snapshot *wal.State `json:"snapshot,omitempty"`
}

// FetchRequest long-polls the next span of the stream. Pos is both the read
// cursor and the durable ack: sending Pos asserts "everything below Pos is
// durably mirrored here".
type FetchRequest struct {
	ID   string `json:"id"`
	Term uint64 `json:"term"`
	Pos  int64  `json:"pos"`
	// WaitMillis bounds the long-poll when the stream is idle.
	WaitMillis int `json:"wait_millis,omitempty"`
	// MaxBytes bounds the returned span (0 = source default).
	MaxBytes int `json:"max_bytes,omitempty"`
}

// FetchReply carries the next span of framed records.
type FetchReply struct {
	Term uint64 `json:"term"`
	// Pos is the position of the first record in Frames.
	Pos int64 `json:"pos"`
	// Frames is a concatenation of CRC-framed records, appendable to the
	// standby's journal verbatim; Records is how many it holds.
	Frames  []byte `json:"frames,omitempty"`
	Records int    `json:"records"`
	// End is the source's current stream end, so the standby can report lag
	// even while idle.
	End int64 `json:"end"`
}
