package wal

import (
	"strconv"
	"strings"

	"falkon/internal/jsonwire"
	"falkon/internal/sched"
	"falkon/internal/task"
)

// Record bodies. These are the journal's wire format: changing a field is
// a journal-format change and must stay decodable against old journals.

// InstanceRec records an instance creation.
type InstanceRec struct {
	EPR    string `json:"epr"`
	Name   string `json:"name,omitempty"`
	Notify bool   `json:"notify,omitempty"`
	// Tenant is the owning tenant ("" in pre-tenancy journals, which
	// recovery maps to the default tenant).
	Tenant string `json:"tenant,omitempty"`
}

// DestroyRec records an instance destruction.
type DestroyRec struct {
	EPR string `json:"epr"`
}

// AcceptRec records a bundle of accepted tasks. (Journals written before the
// dispatcher stopped sharding carry an informational "shard" field in this
// and the next two records; decoding ignores it.)
type AcceptRec struct {
	EPR   string      `json:"epr"`
	Tasks []task.Task `json:"tasks"`
	// Tenant is the submitting instance's tenant (informational — replay
	// derives it from the instance when absent, as in old journals).
	Tenant string `json:"tenant,omitempty"`
}

// DispatchRec records one task assignment.
type DispatchRec struct {
	EPR  string  `json:"epr"`
	ID   task.ID `json:"id"`
	Exec string  `json:"exec,omitempty"`
}

// CompleteRec records one finalized result.
type CompleteRec struct {
	EPR    string      `json:"epr"`
	Result task.Result `json:"result"`
}

// TaskRef names one task of a DispatchBatchRec.
type TaskRef struct {
	EPR string  `json:"epr"`
	ID  task.ID `json:"id"`
}

// DispatchBatchRec records one grant: the executor and, in grant order, the
// tasks it was handed (which may belong to several instances).
type DispatchBatchRec struct {
	Exec  string    `json:"exec,omitempty"`
	Tasks []TaskRef `json:"tasks"`
}

// CompleteBatchRec records the results finalized together, in that order.
type CompleteBatchRec struct {
	Results []CompleteRec `json:"results"`
}

// The per-task records encode themselves: appendJSON appends what
// json.Marshal would (field order, omitempty) up to the string escapes
// jsonwire leaves out (<, >, &, U+2028, U+2029), which decode the same, and
// [] for a batch record's nil slice. Decoding stays on encoding/json —
// recovery is cold, and that keeps the reader an independent oracle for
// these writers.

func (rec *AcceptRec) appendJSON(dst []byte) []byte {
	return appendAccept(dst, rec.EPR, rec.Tasks, (*task.Task).AppendJSON, rec.Tenant)
}

// appendAccept is the one writer of an accept record's body, whose tasks are
// Tasks or, from a dispatcher, its relayed tasks.
func appendAccept[T any](dst []byte, epr string, tasks []T, appendTask func(*T, []byte) []byte, tenant string) []byte {
	dst = append(dst, `{"epr":`...)
	dst = jsonwire.AppendString(dst, epr)
	dst = append(dst, `,"tasks":`...)
	dst = task.AppendArray(dst, tasks, appendTask)
	if tenant != "" {
		dst = append(dst, `,"tenant":`...)
		dst = jsonwire.AppendString(dst, tenant)
	}
	return append(dst, '}')
}

func (rec *DispatchRec) appendJSON(dst []byte) []byte {
	dst = appendTaskRef(dst, rec.EPR, rec.ID)
	if rec.Exec != "" {
		dst = append(dst, `,"exec":`...)
		dst = jsonwire.AppendString(dst, rec.Exec)
	}
	return append(dst, '}')
}

// appendTaskRef appends {"epr":…,"id":… and leaves the object open: a whole
// TaskRef, and the head of a DispatchRec.
func appendTaskRef(dst []byte, epr string, id task.ID) []byte {
	dst = append(dst, `{"epr":`...)
	dst = jsonwire.AppendString(dst, epr)
	dst = append(dst, `,"id":`...)
	return jsonwire.AppendUint(dst, uint64(id))
}

func (rec *CompleteRec) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"epr":`...)
	dst = jsonwire.AppendString(dst, rec.EPR)
	dst = append(dst, `,"result":`...)
	dst = rec.Result.AppendJSON(dst)
	return append(dst, '}')
}

func (rec *DispatchBatchRec) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if rec.Exec != "" {
		dst = append(dst, `"exec":`...)
		dst = jsonwire.AppendString(dst, rec.Exec)
		dst = append(dst, ',')
	}
	dst = append(dst, `"tasks":[`...)
	for i, t := range rec.Tasks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(appendTaskRef(dst, t.EPR, t.ID), '}')
	}
	return append(dst, `]}`...)
}

func (rec *CompleteBatchRec) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range rec.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = rec.Results[i].appendJSON(dst)
	}
	return append(dst, `]}`...)
}

// Instance is one recovered client instance.
type Instance struct {
	EPR       string `json:"epr"`
	Name      string `json:"name,omitempty"`
	Notify    bool   `json:"notify,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Submitted int64  `json:"submitted,omitempty"`
	// Results are finalized results not yet known to be collected; recovery
	// redelivers them (clients dedupe by task ID). Together with Pending
	// they form the instance's live task set — the dedupe set behind
	// idempotent resubmission across restarts.
	Results []task.Result `json:"results,omitempty"`
}

// Pending is one accepted-but-unfinished task: queued or outstanding at
// the time of the crash (outstanding work is re-dispatched on recovery).
type Pending struct {
	EPR      string    `json:"epr"`
	Task     task.Task `json:"task"`
	Attempts int       `json:"attempts,omitempty"`
	Tenant   string    `json:"tenant,omitempty"`
}

// State is the dispatcher state a snapshot captures and recovery rebuilds.
type State struct {
	NextEPR   int64          `json:"next_epr"`
	Counters  sched.Counters `json:"counters"`
	Instances []Instance     `json:"instances,omitempty"`
	Pending   []Pending      `json:"pending,omitempty"`
}

// pendKey identifies an accepted task within the journal's scope.
type pendKey struct {
	epr string
	id  task.ID
}

// replayer folds journal records into a State. It mirrors the dispatcher's
// own transitions but is pure data: no clock, no transport.
type replayer struct {
	nextEPR   int64
	counters  sched.Counters
	instances map[string]*Instance
	order     []string // instance EPRs in creation order (deterministic output)
	pending   []Pending
	pendIdx   map[pendKey]int // index into pending; tombstoned entries (EPR "") skipped on output
}

func newReplayer() *replayer {
	return &replayer{
		instances: make(map[string]*Instance),
		pendIdx:   make(map[pendKey]int),
	}
}

// load seeds the replayer from a snapshot's State.
func (r *replayer) load(st *State) {
	r.nextEPR = st.NextEPR
	r.counters = st.Counters
	for i := range st.Instances {
		in := st.Instances[i]
		r.instances[in.EPR] = &in
		r.order = append(r.order, in.EPR)
	}
	for _, p := range st.Pending {
		r.pendIdx[pendKey{p.EPR, p.Task.ID}] = len(r.pending)
		r.pending = append(r.pending, p)
	}
}

// eprSeq extracts the numeric suffix of a dispatcher-minted EPR
// ("falkon-instance-42" → 42), or 0 for foreign formats.
func eprSeq(epr string) int64 {
	i := strings.LastIndexByte(epr, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(epr[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// apply folds one journal record into the state. Unknown kinds and records
// referencing unknown instances or tasks are ignored: the journal replays
// what it can prove, never guesses.
func (r *replayer) apply(rec rawRecord) {
	switch rec.kind {
	case KindInstance:
		var in InstanceRec
		if unmarshal(rec.body, &in) != nil || in.EPR == "" {
			return
		}
		if n := eprSeq(in.EPR); n > r.nextEPR {
			r.nextEPR = n
		}
		if _, ok := r.instances[in.EPR]; ok {
			return
		}
		r.instances[in.EPR] = &Instance{EPR: in.EPR, Name: in.Name, Notify: in.Notify, Tenant: in.Tenant}
		r.order = append(r.order, in.EPR)
	case KindDestroy:
		var de DestroyRec
		if unmarshal(rec.body, &de) != nil {
			return
		}
		if _, ok := r.instances[de.EPR]; !ok {
			return
		}
		delete(r.instances, de.EPR)
		for i := range r.order {
			if r.order[i] == de.EPR {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
		for k, i := range r.pendIdx {
			if k.epr == de.EPR {
				r.pending[i].EPR = "" // tombstone
				delete(r.pendIdx, k)
			}
		}
	case KindAccept:
		var ac AcceptRec
		if unmarshal(rec.body, &ac) != nil {
			return
		}
		in, ok := r.instances[ac.EPR]
		if !ok {
			return
		}
		tenant := ac.Tenant
		if tenant == "" {
			tenant = in.Tenant
		}
		for _, t := range ac.Tasks {
			// The dispatcher only journals tasks it admitted, so a replayed
			// accept for an ID already pending can only be a duplicated
			// record — skip it. An accept AFTER that ID completed is a
			// legitimate re-run (the client resubmitted because it never got
			// the result) and re-enters the pending set.
			if _, live := r.pendIdx[pendKey{ac.EPR, t.ID}]; live {
				continue
			}
			in.Submitted++
			r.counters.Submitted++
			r.pendIdx[pendKey{ac.EPR, t.ID}] = len(r.pending)
			r.pending = append(r.pending, Pending{EPR: ac.EPR, Task: t, Tenant: tenant})
		}
	case KindDispatch:
		var dr DispatchRec
		if unmarshal(rec.body, &dr) != nil {
			return
		}
		r.dispatch(dr.EPR, dr.ID)
	case KindComplete:
		var cr CompleteRec
		if unmarshal(rec.body, &cr) != nil {
			return
		}
		r.complete(&cr)
	case KindDispatchBatch:
		var db DispatchBatchRec
		if unmarshal(rec.body, &db) != nil {
			return
		}
		for _, t := range db.Tasks {
			r.dispatch(t.EPR, t.ID)
		}
	case KindCompleteBatch:
		var cb CompleteBatchRec
		if unmarshal(rec.body, &cb) != nil {
			return
		}
		for i := range cb.Results {
			r.complete(&cb.Results[i])
		}
	}
}

// dispatch folds one task assignment: an attempt of a task still pending.
func (r *replayer) dispatch(epr string, id task.ID) {
	if i, ok := r.pendIdx[pendKey{epr, id}]; ok {
		r.pending[i].Attempts++
		r.counters.Dispatched++
	}
}

// complete folds one finalized result.
func (r *replayer) complete(cr *CompleteRec) {
	key := pendKey{cr.EPR, cr.Result.ID}
	i, ok := r.pendIdx[key]
	if !ok {
		return // duplicate or foreign completion: drop, never fabricate
	}
	r.pending[i].EPR = "" // tombstone
	delete(r.pendIdx, key)
	if cr.Result.Failed() {
		r.counters.Failed++
	} else {
		r.counters.Completed++
	}
	if in, ok := r.instances[cr.EPR]; ok {
		in.Results = append(in.Results, cr.Result)
	}
}

// state materializes the folded State: live instances in creation order,
// live pending tasks in accept order.
func (r *replayer) state() *State {
	st := &State{NextEPR: r.nextEPR, Counters: r.counters}
	for _, epr := range r.order {
		st.Instances = append(st.Instances, *r.instances[epr])
	}
	for _, p := range r.pending {
		if p.EPR != "" {
			st.Pending = append(st.Pending, p)
		}
	}
	return st
}
