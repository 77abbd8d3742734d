package replica

import (
	"fmt"
	"sync"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/fproto"
	"falkon/internal/obs"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// StandbyOptions configures a standby's replication follower.
type StandbyOptions struct {
	// ID names this standby to the leader (defaults to Dir).
	ID string
	// Leader resolves the current leader's address before each (re)attach;
	// an error delays the retry. Static standbys return a fixed address; HA
	// nodes read the lease file.
	Leader func() (string, error)
	// Dir is the standby's journal directory a promotion recovers from.
	Dir string
	// Sync is the journal's fsync policy (default group: acks mean durable).
	Sync wal.SyncPolicy
	// PSK is the leader's pre-shared key, if it has one.
	PSK []byte
	// Metrics receives falkon_replica_* instruments and the journal's
	// falkon_wal_* ones; nil keeps them unregistered.
	Metrics *obs.Registry
	// Logf receives standby logs; nil silences them.
	Logf func(format string, args ...any)
}

// Standby follows a leader's replication stream into a wal.Journal of its
// own: every fetched span is verified and appended whole before its position
// is acked. It re-attaches across leader restarts and failovers, requesting
// a fresh baseline whenever its (term, position) no longer matches the
// stream.
type Standby struct {
	opts    StandbyOptions
	journal *wal.Journal

	gLag  *obs.Gauge
	gTerm *obs.Gauge
	cRebl *obs.Counter

	mu   sync.Mutex
	term uint64
	pos  int64
	end  int64 // leader's reported stream end (for lag while following)
	cli  *wsrpc.Client

	stop chan struct{}
	done chan struct{}
}

// StartStandby opens the journal directory and starts following. The
// returned Standby streams until Stop.
func StartStandby(opts StandbyOptions) (*Standby, error) {
	if opts.Leader == nil {
		return nil, fmt.Errorf("replica: standby needs a Leader resolver")
	}
	if opts.ID == "" {
		opts.ID = opts.Dir
	}
	// What the directory holds is discarded: the first attach carries a
	// baseline that replaces it.
	_, j, _, err := wal.Recover(opts.Dir, wal.Options{Sync: opts.Sync, Metrics: opts.Metrics, Logf: opts.Logf})
	if err != nil {
		return nil, err
	}
	s := &Standby{
		opts:    opts,
		journal: j,
		gLag:    opts.Metrics.Gauge("falkon_replica_lag_records"),
		gTerm:   opts.Metrics.Gauge("falkon_replica_term"),
		cRebl:   opts.Metrics.Counter("falkon_replica_baselines_total"),
		pos:     -1, // no baseline yet: first attach must send one
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	opts.Metrics.Gauge("falkon_replica_role").Set(0)
	go s.run()
	return s, nil
}

func (s *Standby) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// run is the follow loop: resolve leader, dial, attach, fetch until the
// connection or the stream breaks, back off, repeat.
func (s *Standby) run() {
	defer close(s.done)
	sched := backoff.NewSchedule(backoff.Default)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		addr, err := s.opts.Leader()
		if err != nil {
			s.logf("replica: standby %s: no leader: %v", s.opts.ID, err)
			if !s.sleep(sched.Next()) {
				return
			}
			continue
		}
		cli, err := wsrpc.Dial(addr, wsrpc.ClientOptions{PSK: s.opts.PSK})
		if err != nil {
			s.logf("replica: standby %s: dial %s: %v", s.opts.ID, addr, err)
			if !s.sleep(sched.Next()) {
				return
			}
			continue
		}
		s.mu.Lock()
		s.cli = cli
		s.mu.Unlock()
		err = s.follow(cli, sched)
		s.mu.Lock()
		s.cli = nil
		s.mu.Unlock()
		cli.Close()
		select {
		case <-s.stop:
			return
		default:
		}
		if err != nil {
			s.logf("replica: standby %s: stream from %s ended: %v", s.opts.ID, addr, err)
		}
		if !s.sleep(sched.Next()) {
			return
		}
	}
}

// follow attaches and streams over one connection. A RemoteError from a
// fetch means the stream moved past us (term change or ring trim), and a
// span whose count differs from the leader's is one the journal now holds
// but the stream does not: either resets to "no baseline" so the next attach
// requests a fresh cut.
func (s *Standby) follow(cli *wsrpc.Client, sched *backoff.Schedule) error {
	s.mu.Lock()
	term, pos := s.term, s.pos
	s.mu.Unlock()

	var att AttachReply
	err := cli.Call(MethodAttach, &AttachRequest{ID: s.opts.ID, Term: term, Pos: pos}, &att)
	if err != nil {
		return err
	}
	if !att.Resume {
		if att.Snapshot == nil {
			return fmt.Errorf("replica: attach reply carries neither resume nor snapshot")
		}
		// Rotate then snapshot: the snapshot covers every older segment, and
		// only once it is durable are they pruned.
		cut, err := s.journal.Rotate()
		if err != nil {
			return err
		}
		if err := s.journal.WriteSnapshot(cut, att.Snapshot); err != nil {
			return err
		}
		if term != 0 || pos != -1 {
			s.cRebl.Inc()
		}
		s.logf("replica: standby %s: baseline at pos %d (term %d)", s.opts.ID, att.Pos, att.Term)
	}
	s.mu.Lock()
	s.term, s.pos, s.end = att.Term, att.Pos, att.Pos
	s.mu.Unlock()
	s.gTerm.Set(int64(att.Term))

	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		s.mu.Lock()
		term, pos = s.term, s.pos
		s.mu.Unlock()
		var rep FetchReply
		err := cli.Call(MethodFetch, &FetchRequest{
			ID: s.opts.ID, Term: term, Pos: pos, WaitMillis: 1000,
		}, &rep)
		if err != nil {
			if _, remote := err.(*wsrpc.RemoteError); remote {
				s.rebaseline() // stream outran us (or a new term)
			}
			return err
		}
		// A damaged span is refused whole; a write error fails the journal
		// closed. Either way the position stays where the disk is.
		records, h, err := s.journal.AppendFrames(rep.Frames)
		if err == nil && records != rep.Records {
			s.rebaseline()
			err = fmt.Errorf("replica: span holds %d records, leader counted %d", records, rep.Records)
		}
		if err == nil {
			err = h.Wait()
		}
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.pos = pos + int64(records) // acked on the next fetch: durable per the sync policy
		s.end = rep.End
		lag := s.end - s.pos
		s.mu.Unlock()
		if lag < 0 {
			lag = 0
		}
		s.gLag.Set(lag)
		sched.Reset() // streaming: the next hiccup backs off from the base again
	}
}

// rebaseline forgets the stream position, so the next attach asks for a
// fresh baseline.
func (s *Standby) rebaseline() {
	s.mu.Lock()
	s.term, s.pos = 0, -1
	s.mu.Unlock()
}

// sleep pauses between retries, returning false if Stop fired.
func (s *Standby) sleep(d time.Duration) bool {
	select {
	case <-s.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// Stats summarizes the standby for falkon.stats.
func (s *Standby) Stats() *fproto.ReplicationStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &fproto.ReplicationStats{Role: "standby", Term: s.term, End: s.pos}
}

// Stop ends the follow loop and closes the journal; the directory stays
// recoverable (promotion runs wal.Recover over it after Stop returns).
func (s *Standby) Stop() {
	s.mu.Lock()
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	// Sever an in-flight long-poll so promotion never waits out a fetch.
	if s.cli != nil {
		s.cli.Close()
	}
	s.mu.Unlock()
	<-s.done
	s.journal.Close()
}
