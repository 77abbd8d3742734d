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
	// ID names this standby to the leader (defaults to the mirror dir).
	ID string
	// Leader resolves the current leader's address before each (re)attach;
	// an error delays the retry. Static standbys return a fixed address; HA
	// nodes read the lease file.
	Leader func() (string, error)
	// Dir is the mirror journal directory a promotion recovers from.
	Dir string
	// Sync is the mirror's fsync policy (default group: acks mean durable).
	Sync wal.SyncPolicy
	// SegmentBytes rotates mirror segments (default 16 MiB).
	SegmentBytes int64
	// Security and PSK must match the leader's server.
	Security wsrpc.SecurityProfile
	PSK      []byte
	// Backoff paces redials (default backoff.Default).
	Backoff backoff.Policy
	// Metrics receives falkon_replica_* instruments; nil keeps them
	// unregistered.
	Metrics *obs.Registry
	// Logf receives standby logs; nil silences them.
	Logf func(format string, args ...any)
}

// Standby follows a leader's replication stream into a wal.Mirror. It
// re-attaches across leader restarts and failovers, requesting a fresh
// baseline whenever its (term, position) no longer matches the stream.
type Standby struct {
	opts   StandbyOptions
	mirror *wal.Mirror

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

// StartStandby opens the mirror directory and starts following. The
// returned Standby streams until Stop.
func StartStandby(opts StandbyOptions) (*Standby, error) {
	if opts.Leader == nil {
		return nil, fmt.Errorf("replica: standby needs a Leader resolver")
	}
	if opts.ID == "" {
		opts.ID = opts.Dir
	}
	if opts.Backoff == (backoff.Policy{}) {
		opts.Backoff = backoff.Default
	}
	m, err := wal.OpenMirror(opts.Dir, wal.MirrorOptions{
		Sync: opts.Sync, SegmentBytes: opts.SegmentBytes, Logf: opts.Logf,
	})
	if err != nil {
		return nil, err
	}
	s := &Standby{
		opts:   opts,
		mirror: m,
		gLag:   opts.Metrics.Gauge("falkon_replica_lag_records"),
		gTerm:  opts.Metrics.Gauge("falkon_replica_term"),
		cRebl:  opts.Metrics.Counter("falkon_replica_baselines_total"),
		pos:    -1, // no baseline yet: first attach must send one
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
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
	sched := backoff.NewSchedule(s.opts.Backoff)
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
		cli, err := wsrpc.Dial(addr, wsrpc.ClientOptions{Security: s.opts.Security, PSK: s.opts.PSK})
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
// fetch means the stream moved past us (term change or ring trim): reset to
// "no baseline" so the next attach requests a fresh cut.
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
		if err := s.mirror.Reset(att.Snapshot, att.Pos); err != nil {
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
				// Stream outran us (or a new term): force a fresh baseline.
				s.mu.Lock()
				s.term, s.pos = 0, -1
				s.mu.Unlock()
			}
			return err
		}
		if rep.Records > 0 {
			if err := s.mirror.Append(rep.Frames, rep.Records); err != nil {
				return err
			}
		}
		s.mu.Lock()
		s.pos = pos + int64(rep.Records) // acked on the next fetch: durable (mirror synced)
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

// sleep pauses between retries, returning false if Stop fired.
func (s *Standby) sleep(d time.Duration) bool {
	select {
	case <-s.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// Pos reports the durably mirrored stream position (-1 before the first
// baseline lands).
func (s *Standby) Pos() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// Term reports the leader term the standby is following (0 before attach).
func (s *Standby) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term
}

// Stats summarizes the standby for falkon.stats.
func (s *Standby) Stats() *fproto.ReplicationStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &fproto.ReplicationStats{Role: "standby", Term: s.term, End: s.pos}
}

// Stop ends the follow loop and closes the mirror; the directory stays
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
	s.mirror.Close()
}
