// Package fproto defines the Falkon wire protocol: the methods and message
// bodies exchanged between clients, the dispatcher, and executors over
// wsrpc. The message flow mirrors Figure 2 of the paper:
//
//	{1,2}  client    -> dispatcher  Submit (bundled tasks)
//	{3}    dispatcher -> executor   WorkAvailable notification (push)
//	{4,5}  executor  -> dispatcher  GetWork (pull)
//	{3+5}  dispatcher -> executor   WorkGrant notification: the push carries
//	       the assignments itself, to a slot the executor left waiting
//	{6,7}  executor  -> dispatcher  Deliver (results + ack; piggy-backed new
//	       tasks ride back on the reply)
//	{8}    dispatcher -> client     Results notification
//	{9,10} client    -> dispatcher  Collect (poll alternative to {8})
//
// Everything is JSON. The messages of {1}–{8}, which carry tasks or run once
// per task, encode and decode themselves (codec.go); the rest go through
// encoding/json.
package fproto

import (
	"strings"
	"time"

	"falkon/internal/obs"
	"falkon/internal/task"
)

// SplitAddrs parses a dispatcher address chain: a comma-separated list tried
// in order ("leaf:5001,root:5000"), so clients and executors can attach to a
// tree leaf and fall back to the root (or another leaf) when it dies. Empty
// elements and surrounding whitespace are dropped.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// RPC method names served by the dispatcher.
const (
	MethodCreateInstance  = "falkon.create-instance"
	MethodDestroyInstance = "falkon.destroy-instance"
	MethodSubmit          = "falkon.submit"
	MethodCollect         = "falkon.collect"
	MethodRegister        = "falkon.register"
	MethodDeregister      = "falkon.deregister"
	MethodGetWork         = "falkon.get-work"
	MethodDeliver         = "falkon.deliver"
	MethodStats           = "falkon.stats"
	MethodMetrics         = "falkon.metrics"
	MethodEvents          = "falkon.events"
	// MethodAttachParent registers the calling peer as a tree parent (a
	// forwarder root): the dispatcher replies with its current capacity and
	// thereafter pushes a NotifyCapacity hint whenever it changes, so the
	// parent can size its link. Every node of a tree answers it — an interior
	// forwarder with its leaves' aggregate — and a parent sends nothing to a
	// child that refuses it.
	MethodAttachParent = "falkon.attach-parent"
)

// Notification method names pushed by the dispatcher.
const (
	NotifyWorkAvailable = "falkon.work-available"
	// NotifyWorkGrant is {3} carrying the work: its body is a GetWorkReply,
	// the grant the executor's pull would have come back with. Only an
	// executor that registered with AcceptsGrants is sent one, and only for a
	// slot its own last GetWork or Deliver left waiting (DESIGN.md §9.2).
	NotifyWorkGrant = "falkon.work-grant"
	NotifyResults   = "falkon.results"
	// NotifyCapacity carries a CapacityHint to attached tree parents.
	NotifyCapacity = "falkon.capacity"
)

// CreateInstanceRequest asks the dispatcher factory for a new instance.
type CreateInstanceRequest struct {
	// ClientName is a friendly label for logs.
	ClientName string `json:"client,omitempty"`
	// WantNotifications asks the dispatcher to push results over the
	// client's connection ({8}); otherwise the client polls with Collect.
	WantNotifications bool `json:"want_notifications,omitempty"`
	// EPR, when set, re-attaches to an existing instance instead of
	// creating one — the reconnect path after a dispatcher restart (the
	// instance survives in the journal) or a dropped client connection.
	// Unknown EPRs are an error; the client falls back to a fresh create.
	EPR string `json:"epr,omitempty"`
	// Cluster, when set alongside EPR, scopes the re-attach to an HA
	// cluster: a client failing over across a leader's address chain sends
	// the cluster id it learned at create time, and any dispatcher serving
	// a different cluster rejects the attach (the client then falls back to
	// a fresh create). Within the cluster the EPR is valid on every member,
	// because standbys replay the leader's journal.
	Cluster string `json:"cluster,omitempty"`
	// Tenant names the tenant this instance submits under — the unit of
	// fair-share weighting, quota, and rate limiting. "" maps to the
	// "default" tenant, which keeps the wire compatible both ways: old
	// clients never send the field and land in "default"; old dispatchers
	// ignore it (unknown JSON fields drop) and schedule as before.
	Tenant string `json:"tenant,omitempty"`
}

// CreateInstanceReply carries the endpoint reference the client uses on all
// subsequent calls (the paper's factory/instance EPR).
type CreateInstanceReply struct {
	EPR string `json:"epr"`
	// Recovered reports that this reply re-attached to a surviving
	// instance rather than creating a fresh one.
	Recovered bool `json:"recovered,omitempty"`
	// Cluster is the dispatcher's HA cluster id ("" when not replicated).
	// Clients echo it on cross-address re-attach (see
	// CreateInstanceRequest.Cluster).
	Cluster string `json:"cluster,omitempty"`
}

// DestroyInstanceRequest tears an instance down; queued tasks are dropped.
type DestroyInstanceRequest struct {
	EPR string `json:"epr"`
}

// SubmitRequest delivers a bundle of tasks ({1,2}). Client-dispatcher
// bundling is simply len(Tasks) > 1.
type SubmitRequest struct {
	EPR   string      `json:"epr"`
	Tasks []task.Task `json:"tasks"`
}

// Bundle is a SubmitRequest as a dispatcher reads and relays it: each task as
// what it reads of the task and its bytes as received (DESIGN.md §9, "Relay").
type Bundle struct {
	EPR   string
	Tasks []task.Relayed
	// Array is the task array as received, when DecodeInterned read it on the
	// fast path: the bytes task.AppendArray writes of Tasks with
	// task.Relayed.AppendJSON. It aliases the decoded body.
	Array []byte
}

// SubmitReply acknowledges a bundle. When the dispatcher journals, the
// acknowledgment is withheld until every newly accepted task is durable.
type SubmitReply struct {
	Accepted int `json:"accepted"`
	// Deduped counts tasks in the bundle the dispatcher already held
	// (idempotent resubmission after a reconnect); they are counted in
	// Accepted too, since their results are still owed to the client.
	Deduped int `json:"deduped,omitempty"`
	// RetryAfterMillis, when positive, means the bundle was NOT accepted:
	// admission control (tenant quota or rate limit) shed it, and the
	// client should resubmit after roughly this many milliseconds plus
	// jitter. Typed backpressure instead of an error keeps throttling
	// distinguishable from failures — old clients that predate the field
	// see Accepted == 0 and fail loudly rather than silently losing work.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
}

// AttachParentRequest registers the calling connection as a tree parent.
type AttachParentRequest struct {
	// Parent labels the parent in dispatcher logs.
	Parent string `json:"parent,omitempty"`
}

// CapacityHint is what a tree parent needs to know of a node below it: how
// many worker slots it has. The attach-parent call returns one and the node
// pushes another (NotifyCapacity) whenever the count changes — an executor
// registers, resizes, deregisters or disconnects. A parent registers its link
// to the node, in its own scheduling core, with Executors slots (dispatch's
// link.go). (A leaf from before this was a slot count sends queue depths
// along, and a copy under "capacity" in its submit acknowledgments; both are
// ignored.)
type CapacityHint struct {
	// Executors is the worker slots registered — slots, not executors, so
	// that an interior node, whose executors are links, reports the workers
	// below it.
	Executors int `json:"executors"`
	// Seq orders hints from one node: a hint that arrives after a fresher
	// one (the attach snapshot after a push, say) is discarded.
	Seq uint64 `json:"seq,omitempty"`
	// Epoch identifies the dispatcher incarnation that produced the hint
	// (its boot time). Seq restarts from 1 when a leaf restarts, so
	// freshness is (Epoch, Seq) lexicographic: without the epoch, a
	// restarted leaf's early hints would lose to the dead incarnation's
	// high-Seq leftovers and the parent would size its link on stale capacity.
	Epoch int64 `json:"epoch,omitempty"`
}

// CollectRequest polls for finished results ({9,10}).
type CollectRequest struct {
	EPR string `json:"epr"`
	// Max bounds the number of results returned (0 means no bound).
	Max int `json:"max,omitempty"`
	// WaitMillis, when positive, blocks up to that long for at least one
	// result.
	WaitMillis int `json:"wait_millis,omitempty"`
}

// CollectReply returns finished results and the number still pending
// (queued + running + undelivered).
type CollectReply struct {
	Results []task.Result `json:"results,omitempty"`
	Pending int           `json:"pending"`
}

// RegisterRequest announces a new executor.
type RegisterRequest struct {
	ExecutorID string `json:"executor_id"`
	// Slots is the executor's concurrent task capacity (the paper maps one
	// executor per processor, so this is usually 1).
	Slots int `json:"slots"`
	// AcceptsGrants announces that the executor runs assignments pushed to it
	// in a NotifyWorkGrant. An executor that predates the field never sends
	// it and is only ever told that work is available; a dispatcher that
	// predates it ignores it and the executor pulls as before.
	AcceptsGrants bool `json:"accepts_grants,omitempty"`
}

// RegisterReply acknowledges registration.
type RegisterReply struct {
	OK bool `json:"ok"`
	// DispatcherEpoch is reserved for future cross-process time mapping.
	DispatcherEpoch int64 `json:"dispatcher_epoch,omitempty"`
}

// DeregisterRequest removes an executor (e.g. distributed idle release).
type DeregisterRequest struct {
	ExecutorID string `json:"executor_id"`
	Reason     string `json:"reason,omitempty"`
}

// GetWorkRequest pulls tasks after a WorkAvailable notification ({4}).
type GetWorkRequest struct {
	ExecutorID string `json:"executor_id"`
	// Max bounds dispatcher->executor bundling; the paper dispatches one
	// task per pickup (no runtime estimates), so this is usually 1.
	Max int `json:"max"`
}

// Assignment pairs a task with the instance that submitted it.
type Assignment struct {
	EPR  string    `json:"epr"`
	Task task.Task `json:"task"`
	// CacheHit reports that the pick matched this task to the executor's
	// cached dataset, so staging can be skipped.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// GetWorkReply returns zero or more assignments ({5}).
type GetWorkReply struct {
	Assignments []Assignment `json:"assignments,omitempty"`
}

// Relay is an Assignment as a dispatcher cuts it, from a task it holds, whose
// bytes it appends as received.
type Relay struct {
	EPR      string
	Task     *task.Relayed
	CacheHit bool
}

// RelayReply is a grant as a dispatcher sends it — the reply to a GetWork or
// a Deliver, or a WorkGrant push — and encodes as a GetWorkReply.
type RelayReply struct {
	Assignments []Relay
}

// TaggedResult routes a result back to its instance.
type TaggedResult struct {
	EPR    string      `json:"epr"`
	Result task.Result `json:"result"`
	// RunDur is the executor-measured run time; the dispatcher rebases the
	// start/finish stamps onto its own epoch using this value, avoiding
	// cross-process clock skew.
	RunDur time.Duration `json:"run_dur"`
	// OverheadDur is the executor-side setup cost (thread + exec setup),
	// measured from work pickup to task start.
	OverheadDur time.Duration `json:"overhead_dur,omitempty"`
}

// DeliverRequest returns results ({6}) and optionally asks for new work so
// the acknowledgment ({7}) piggy-backs the next assignment.
type DeliverRequest struct {
	ExecutorID string         `json:"executor_id"`
	Results    []TaggedResult `json:"results,omitempty"`
	// WantWork enables piggy-backing: the reply carries up to MaxNew new
	// assignments, collapsing messages {6,7} and the next {3,4,5} into a
	// single call.
	WantWork bool `json:"want_work,omitempty"`
	MaxNew   int  `json:"max_new,omitempty"`
}

// DeliverReply acknowledges results and piggy-backs new work: a GetWorkReply.
type DeliverReply = GetWorkReply

// WorkAvailable is the body of the {3} push notification.
type WorkAvailable struct {
	// Queued is a hint of how many tasks are waiting.
	Queued int `json:"queued"`
}

// ResultsNotify is the body of the {8} push notification to clients.
type ResultsNotify struct {
	EPR     string        `json:"epr"`
	Results []task.Result `json:"results"`
}

// EncodedResults is a ResultsNotify whose results are already encoded, each
// the bytes task.Result.AppendJSON writes: a dispatcher that journals encodes
// a result once, for its complete record and for this push. It is sent, never
// decoded.
type EncodedResults struct {
	EPR     string
	Results [][]byte
}

// ParentResults is a ResultsNotify as pushed to a tree parent: its results leave
// out queued_at, dispatched_at, attempts and trace, which the parent sets.
type ParentResults ResultsNotify

// StatsReply summarizes dispatcher state; the provisioner polls this
// ({POLL} in Figure 2).
type StatsReply struct {
	Queued         int   `json:"queued"`
	Outstanding    int   `json:"outstanding"`
	IdleExecutors  int   `json:"idle_executors"`
	BusyExecutors  int   `json:"busy_executors"`
	TotalExecutors int   `json:"total_executors"`
	Submitted      int64 `json:"submitted"`
	Completed      int64 `json:"completed"`
	Failed         int64 `json:"failed"`
	Retried        int64 `json:"retried"`
	Instances      int   `json:"instances"`
	// Dispatched counts assignments (attempts, not tasks); Duplicates
	// counts deliveries dropped as stale (late result after replay, or a
	// bogus executor).
	Dispatched int64 `json:"dispatched"`
	Duplicates int64 `json:"duplicates,omitempty"`
	// CacheHits and CacheMisses count data-aware dispatch outcomes for
	// dataset-tagged tasks.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// NotifyErrors counts failed notification pushes (wedged or dropped
	// peer connections) — nonzero here usually explains replay-timeout
	// noise.
	NotifyErrors int64 `json:"notify_errors,omitempty"`
	// Journal reports whether the dispatcher runs with a write-ahead
	// journal; the remaining fields are zero without one.
	Journal bool `json:"journal,omitempty"`
	// JournalAppends and JournalFsyncs are the journal's lifetime counts;
	// their ratio shows how well group commit amortizes sync cost.
	JournalAppends int64 `json:"journal_appends,omitempty"`
	JournalFsyncs  int64 `json:"journal_fsyncs,omitempty"`
	// RecoveredTasks counts pending tasks rebuilt from the journal at the
	// last restart.
	RecoveredTasks int64 `json:"recovered_tasks,omitempty"`
	// Shards is what a dispatcher that sharded its core reported, one row per
	// shard; this dispatcher leaves it nil. Its remaining reader is
	// benchmark/run.go (dispatch.steals_per_ktask).
	Shards []ShardStats `json:"shards,omitempty"`
	// Depth is the dispatch-tree depth of the answering endpoint: 0 or
	// absent for a plain dispatcher, 2 for a forwarder root fronting leaf
	// dispatchers.
	Depth int `json:"depth,omitempty"`
	// Leaves holds one row per downstream leaf dispatcher when the
	// answering endpoint is a tree root (falkon-top renders the per-leaf
	// panel from these).
	Leaves []LeafStats `json:"leaves,omitempty"`
	// Replication summarizes the HA tier when the dispatcher replicates its
	// journal (role, term, per-standby lag); absent otherwise.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Tenants holds one row per tenant that has submitted (or is
	// configured) when the dispatcher runs the multi-tenant front door;
	// absent on single-tenant dispatchers and those predating tenancy.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's row in StatsReply: its fair-share weight
// and limits, current backlog, and admission-control outcomes.
type TenantStats struct {
	Name string `json:"name"`
	// Weight is the fair-share weight in effect (1 when unconfigured).
	Weight float64 `json:"weight,omitempty"`
	// Queued counts the tenant's tasks waiting in the queue (a dispatcher
	// that declares tenants queues each in its own ring); InFlight counts
	// admitted tasks not yet finalized (queued + outstanding).
	Queued   int   `json:"queued,omitempty"`
	InFlight int64 `json:"in_flight"`
	// Submitted counts tasks admitted; Completed and Failed count
	// finalizations; Throttled counts bundles shed with retry-after.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed,omitempty"`
	Throttled int64 `json:"throttled,omitempty"`
	// Quota and Rate echo the configured limits (0 = unlimited).
	Quota int     `json:"quota,omitempty"`
	Rate  float64 `json:"rate,omitempty"`
}

// ReplicationStats is the HA tier's row in StatsReply: the answering
// dispatcher's role in its cluster, its election term, and how far each
// attached standby trails the journal stream.
type ReplicationStats struct {
	// Role is "leader" or "standby".
	Role string `json:"role"`
	// Term is the election term the dispatcher is serving (monotonic across
	// failovers; 1 for a leader that has never failed over).
	Term uint64 `json:"term"`
	// Mode is the replication mode: "quorum" or "async".
	Mode string `json:"mode,omitempty"`
	// End is the stream position (records committed this term); a standby
	// reports the position it has mirrored durably.
	End int64 `json:"end"`
	// Standbys holds one row per attached standby (leader side only).
	Standbys []StandbyStats `json:"standbys,omitempty"`
	// QuorumDegraded counts submit barriers released without the required
	// acks (standby slow or detached under -replicate quorum).
	QuorumDegraded int64 `json:"quorum_degraded,omitempty"`
	// Elections counts lease acquisitions this process won (HA node mode).
	Elections int64 `json:"elections,omitempty"`
}

// StandbyStats is one attached standby's row in ReplicationStats.
type StandbyStats struct {
	ID string `json:"id"`
	// Acked is the stream position the standby has durably mirrored; Lag is
	// the leader's end minus Acked, in records (falkon_replica_lag_records).
	Acked int64 `json:"acked"`
	Lag   int64 `json:"lag"`
}

// ShardStats is one scheduling shard's row in StatsReply, kept for
// benchmark/run.go, which sums Steals (see StatsReply.Shards).
type ShardStats struct {
	Shard       int   `json:"shard"`
	Queued      int   `json:"queued"`
	Outstanding int   `json:"outstanding"`
	Executors   int   `json:"executors"`
	Busy        int   `json:"busy"`
	Steals      int64 `json:"steals,omitempty"`
}

// LeafStats is one leaf dispatcher's row in a tree root's StatsReply: the
// leaf's own backlog and executor population (from the stats call the root
// makes on it to answer) plus the root's view of the traffic routed through it.
type LeafStats struct {
	Leaf string `json:"leaf"` // leaf dispatcher address
	Up   bool   `json:"up"`
	// Queued/Outstanding/Executors/Busy mirror the leaf's own stats.
	Queued      int `json:"queued"`
	Outstanding int `json:"outstanding"`
	Executors   int `json:"executors"`
	Busy        int `json:"busy"`
	// Pending counts tasks the root has routed to this leaf and not yet
	// seen results for (the root's replay obligation if the leaf dies).
	Pending int `json:"pending"`
	// Bundles and Tasks count root→leaf submissions; Results counts
	// results relayed upward from this leaf.
	Bundles int64 `json:"bundles"`
	Tasks   int64 `json:"tasks"`
	Results int64 `json:"results"`
	// Reroutes counts tasks moved off this leaf after it died; Reconnects
	// counts redial+reattach cycles survived.
	Reroutes   int64 `json:"reroutes,omitempty"`
	Reconnects int64 `json:"reconnects,omitempty"`
}

// MetricsReply is the falkon.metrics reply: a full registry snapshot —
// counters, gauges, and mergeable stage/RPC latency histograms.
type MetricsReply = obs.MetricsSnapshot

// EventsRequest asks for task-lifecycle trace events after SinceSeq (0 for
// the oldest retained); Max bounds the batch (0 = all retained).
type EventsRequest struct {
	SinceSeq uint64 `json:"since_seq,omitempty"`
	Max      int    `json:"max,omitempty"`
}

// EventsReply carries trace events in recording order. NextSeq is the
// newest recorded sequence — pass it as the next SinceSeq to tail the
// stream (through a forwarder the streams interleave, so NextSeq is 0 and
// pagination is unavailable).
type EventsReply struct {
	Events  []obs.Event `json:"events,omitempty"`
	NextSeq uint64      `json:"next_seq"`
}
