package replica

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// SourceOptions configures a leader's replication source.
type SourceOptions struct {
	// Term is the leader's election term; the stream is scoped to it.
	Term uint64
	// Mode selects async or quorum acknowledgment.
	Mode Mode
	// Baseline produces a consistent cut for an attaching standby: the
	// dispatcher's full state and the stream position it corresponds to.
	// Called without any source lock held (it flushes the journal, whose
	// Mirror hook re-enters the source).
	Baseline func() (*wal.State, int64, error)
	// Metrics receives falkon_replica_* instruments; nil keeps them
	// unregistered.
	Metrics *obs.Registry
	// Logf receives source logs; nil silences them.
	Logf func(format string, args ...any)
}

// A quorum barrier waits for every standby attached at barrier time — with
// none attached it is trivially satisfied, so a lone leader starts serving
// before its standbys arrive — and degrades after quorumTimeout (releases,
// counts falkon_replica_quorum_degraded_total) rather than wedging the
// submit path behind a dead standby. ringBytes bounds the in-memory stream
// ring standbys catch up from; a standby that falls further behind
// re-attaches for a fresh baseline.
const (
	quorumTimeout       = 10 * time.Second
	ringBytes     int64 = 64 << 20
)

// span is one mirrored batch in the ring: whole frames, contiguous stream
// positions starting at pos.
type span struct {
	pos     int64
	records int
	data    []byte
}

// standbyConn is one attached standby's ack state.
type standbyConn struct {
	id    string
	peer  *wsrpc.Peer
	acked int64
}

// Source is the leader half of WAL replication. The journal's Mirror hook
// feeds it every committed batch (exact file order, under the journal's
// write mutex); attached standbys pull spans and ack durable positions.
type Source struct {
	opts SourceOptions

	gLag      *obs.Gauge
	gStandbys *obs.Gauge
	cDegraded *obs.Counter
	cBaseline *obs.Counter

	mu     sync.Mutex
	cond   *sync.Cond
	spans  []span
	start  int64 // stream position of the ring's oldest record
	end    int64 // stream position one past the newest record
	bytes  int64
	stands map[string]*standbyConn
	closed bool
}

// NewSource creates a replication source for one leader incarnation.
func NewSource(opts SourceOptions) *Source {
	if opts.Term == 0 {
		opts.Term = 1
	}
	s := &Source{
		opts:      opts,
		gLag:      opts.Metrics.Gauge("falkon_replica_lag_records"),
		gStandbys: opts.Metrics.Gauge("falkon_replica_standbys"),
		cDegraded: opts.Metrics.Counter("falkon_replica_quorum_degraded_total"),
		cBaseline: opts.Metrics.Counter("falkon_replica_baselines_total"),
		stands:    make(map[string]*standbyConn),
	}
	s.cond = sync.NewCond(&s.mu)
	opts.Metrics.Gauge("falkon_replica_role").Set(1)
	opts.Metrics.Gauge("falkon_replica_term").Set(int64(opts.Term))
	return s
}

func (s *Source) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Mirror is the journal hook: one committed batch of framed records. Called
// under the journal's write mutex in exact file order; the batch aliases
// the committer's buffer, so it is copied here.
func (s *Source) Mirror(batch []byte) {
	n := wal.CountFrames(batch)
	if n == 0 {
		return
	}
	cp := append([]byte(nil), batch...)
	s.mu.Lock()
	s.spans = append(s.spans, span{pos: s.end, records: n, data: cp})
	s.end += int64(n)
	s.bytes += int64(len(cp))
	for s.bytes > ringBytes && len(s.spans) > 1 {
		old := s.spans[0]
		s.spans = s.spans[1:]
		s.start = old.pos + int64(old.records)
		s.bytes -= int64(len(old.data))
	}
	s.updateLagLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Register installs the replication handlers on the dispatcher's server.
// Both block (baseline cuts, long polls), so they use the goroutine-per-call
// registration.
func (s *Source) Register(srv *wsrpc.Server) {
	srv.Register(MethodAttach, s.handleAttach)
	srv.Register(MethodFetch, s.handleFetch)
}

func (s *Source) handleAttach(peer *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req AttachRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.ID == "" {
		return nil, fmt.Errorf("replica: attach without id")
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("replica: source closed")
	}
	resume := req.Term == s.opts.Term && req.Pos >= s.start && req.Pos <= s.end
	if resume {
		s.stands[req.ID] = &standbyConn{id: req.ID, peer: peer, acked: req.Pos}
		s.gStandbys.Set(int64(len(s.stands)))
		s.updateLagLocked()
		s.cond.Broadcast()
		s.mu.Unlock()
		s.logf("replica: standby %s resumed at pos %d (term %d)", req.ID, req.Pos, s.opts.Term)
		return &AttachReply{Term: s.opts.Term, Pos: req.Pos, Resume: true}, nil
	}
	s.mu.Unlock()

	// Fresh baseline: cut the dispatcher's state without holding s.mu (the
	// cut flushes the journal, whose Mirror hook locks s.mu).
	st, pos, err := s.opts.Baseline()
	if err != nil {
		return nil, fmt.Errorf("replica: baseline: %w", err)
	}
	s.cBaseline.Inc()
	s.mu.Lock()
	s.stands[req.ID] = &standbyConn{id: req.ID, peer: peer, acked: pos}
	s.gStandbys.Set(int64(len(s.stands)))
	s.updateLagLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.logf("replica: standby %s attached with baseline at pos %d (term %d)", req.ID, pos, s.opts.Term)
	return &AttachReply{Term: s.opts.Term, Pos: pos, Snapshot: st}, nil
}

func (s *Source) handleFetch(peer *wsrpc.Peer, body json.RawMessage) (any, error) {
	var req FetchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	wait := time.Duration(req.WaitMillis) * time.Millisecond
	if wait <= 0 || wait > time.Minute {
		wait = 5 * time.Second
	}
	maxBytes := req.MaxBytes
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	deadline := time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, fmt.Errorf("replica: source closed")
		}
		if req.Term != s.opts.Term || req.Pos < s.start || req.Pos > s.end {
			return nil, fmt.Errorf("replica: stream position %d/%d out of range [%d,%d]/%d — re-attach",
				req.Pos, req.Term, s.start, s.end, s.opts.Term)
		}
		// The fetch position is the standby's durable ack.
		if sc, ok := s.stands[req.ID]; ok && req.Pos > sc.acked {
			sc.acked = req.Pos
			s.updateLagLocked()
			s.cond.Broadcast() // quorum barriers watch acks
		}
		if req.Pos < s.end {
			frames, records := s.collectLocked(req.Pos, maxBytes)
			return &FetchReply{Term: s.opts.Term, Pos: req.Pos, Frames: frames, Records: records, End: s.end}, nil
		}
		if !time.Now().Before(deadline) {
			return &FetchReply{Term: s.opts.Term, Pos: req.Pos, End: s.end}, nil
		}
		s.cond.Wait()
	}
}

// collectLocked gathers whole frames starting at pos, up to roughly
// maxBytes (the first span is never split short, so progress is guaranteed
// even when one batch exceeds the budget).
func (s *Source) collectLocked(pos int64, maxBytes int) (frames []byte, records int) {
	for _, sp := range s.spans {
		if sp.pos+int64(sp.records) <= pos {
			continue
		}
		data, recs := sp.data, sp.records
		if pos > sp.pos {
			for skip := pos - sp.pos; skip > 0; skip-- {
				_, rest, ok := wal.NextFrame(data)
				if !ok {
					return frames, records // ring corruption would be a bug; stop cleanly
				}
				data = rest
				recs--
			}
		}
		if len(frames) > 0 && len(frames)+len(data) > maxBytes {
			return frames, records
		}
		frames = append(frames, data...)
		records += recs
		pos = sp.pos + int64(sp.records)
		if len(frames) >= maxBytes {
			return frames, records
		}
	}
	return frames, records
}

// WaitCommitted blocks until the quorum policy is satisfied for stream
// position pos: every attached standby has acked it. Async mode and a
// satisfied barrier return immediately; a barrier that cannot complete
// within quorumTimeout degrades — releases and counts — rather than wedging
// the submit path.
func (s *Source) WaitCommitted(pos int64) {
	if s.opts.Mode != ModeQuorum {
		return
	}
	deadline := time.Now().Add(quorumTimeout)
	timer := time.AfterFunc(quorumTimeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return
		}
		acked := 0
		for _, sc := range s.stands {
			if sc.acked >= pos {
				acked++
			}
		}
		if acked >= len(s.stands) { // all currently attached; none → trivially met
			return
		}
		if !time.Now().Before(deadline) {
			s.cDegraded.Inc()
			return
		}
		s.cond.Wait()
	}
}

// DropPeer detaches any standby attached over peer (connection teardown).
func (s *Source) DropPeer(p *wsrpc.Peer) {
	s.mu.Lock()
	for id, sc := range s.stands {
		if sc.peer == p {
			delete(s.stands, id)
			s.logf("replica: standby %s detached", id)
		}
	}
	s.gStandbys.Set(int64(len(s.stands)))
	s.updateLagLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// End reports the current stream position (records committed this term).
func (s *Source) End() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// updateLagLocked refreshes falkon_replica_lag_records with the worst
// attached standby's lag (0 with none attached).
func (s *Source) updateLagLocked() {
	var worst int64
	for _, sc := range s.stands {
		if lag := s.end - sc.acked; lag > worst {
			worst = lag
		}
	}
	s.gLag.Set(worst)
}

// Stats summarizes the source for falkon.stats / falkon-top.
func (s *Source) Stats() *fproto.ReplicationStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &fproto.ReplicationStats{
		Role:           "leader",
		Term:           s.opts.Term,
		Mode:           s.opts.Mode.String(),
		End:            s.end,
		QuorumDegraded: s.cDegraded.Value(),
	}
	for _, sc := range s.stands {
		st.Standbys = append(st.Standbys, fproto.StandbyStats{ID: sc.id, Acked: sc.acked, Lag: s.end - sc.acked})
	}
	return st
}

// Close releases every blocked fetch and barrier; further calls fail.
func (s *Source) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
