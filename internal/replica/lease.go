package replica

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// LeaseState is the lease file's JSON body: who leads, at what term, until
// when. Terms are monotonic: every change of holder (including re-acquiring
// an expired lease) bumps the term, so a promoted standby always serves a
// strictly newer term than the leader it replaced — the property that lets
// standbys detect a new incarnation and re-baseline their stream.
type LeaseState struct {
	Term            uint64 `json:"term"`
	Holder          string `json:"holder"`
	Addr            string `json:"addr"`
	ExpiresUnixNano int64  `json:"expires_unix_nano"`
}

// Expired reports whether the lease has lapsed at now.
func (s LeaseState) Expired(now time.Time) bool {
	return s.ExpiresUnixNano <= now.UnixNano()
}

// Lease is a file-granted leadership lease for dispatchers sharing a
// filesystem (the deployment shape the chaos harness and single-host HA
// use). Mutual exclusion inside one acquire/renew transaction comes from
// flock on a sidecar lock file; liveness comes from the TTL — a leader that
// cannot renew in time must stop serving (fail-stop), and any node may take
// over once the lease expires.
type Lease struct {
	// Path is the lease file; Path+".lock" serializes transactions.
	Path string
	// TTL is how long each successful acquire/renew holds the lease.
	TTL time.Duration
	// ID identifies this node as holder; Addr is the dispatcher address
	// written for standbys and clients to find the leader.
	ID   string
	Addr string
}

// withLock runs fn with the sidecar lock file flocked. Crash-safe: the OS
// drops a dead holder's flock, and the lease file itself carries the TTL.
func (l *Lease) withLock(fn func() error) error {
	lockPath := l.Path + ".lock"
	if err := os.MkdirAll(filepath.Dir(lockPath), 0o755); err != nil {
		return fmt.Errorf("replica: lease: %w", err)
	}
	f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("replica: lease: %w", err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("replica: lease flock: %w", err)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	return fn()
}

// read loads the lease state (zero state if the file does not exist yet).
func (l *Lease) read() (LeaseState, error) {
	var st LeaseState
	buf, err := os.ReadFile(l.Path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, fmt.Errorf("replica: lease read: %w", err)
	}
	if len(buf) == 0 {
		return st, nil // torn write caught mid-rename; treat as vacant
	}
	if err := json.Unmarshal(buf, &st); err != nil {
		return st, fmt.Errorf("replica: lease decode: %w", err)
	}
	return st, nil
}

// write stores the lease state atomically (tmp + rename).
func (l *Lease) write(st LeaseState) error {
	buf, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := l.Path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("replica: lease write: %w", err)
	}
	if err := os.Rename(tmp, l.Path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("replica: lease write: %w", err)
	}
	return nil
}

// TakeOver attempts to take the lease for a freshly started process. It
// succeeds when the lease is vacant, expired, or held by this node, and
// always at the next term: even a live lease this node already holds is
// re-taken at a NEW term, because the previous incarnation (which may have
// died mid-stream) was a different leader as far as replication positions
// are concerned. A node that kept the same term across a crash-restart would
// let its standbys "resume" positions from the dead incarnation's stream
// against the new one's. The returned state is the lease as now written (or
// as currently held by someone else when acquired=false).
func (l *Lease) TakeOver() (st LeaseState, acquired bool, err error) {
	err = l.withLock(func() error {
		cur, rerr := l.read()
		if rerr != nil {
			return rerr
		}
		now := time.Now()
		if cur.Holder != l.ID && cur.Holder != "" && !cur.Expired(now) {
			st, acquired = cur, false // someone else holds a live lease
			return nil
		}
		// Vacant, expired, or our own previous incarnation's: take it at the
		// next term. An expired lease we ourselves held also bumps — the TTL
		// gap may have let another node serve, so this is a new incarnation
		// by definition.
		next := LeaseState{
			Term:            cur.Term + 1,
			Holder:          l.ID,
			Addr:            l.Addr,
			ExpiresUnixNano: now.Add(l.TTL).UnixNano(),
		}
		st, acquired = next, true
		return l.write(next)
	})
	return st, acquired, err
}

// Renew extends a held lease, naming Addr. ok=false means the lease was lost
// — expired past the TTL or taken by another node — and the caller must stop
// serving immediately (fail-stop: a lost lease means another leader may exist).
func (l *Lease) Renew() (ok bool, err error) {
	err = l.withLock(func() error {
		cur, rerr := l.read()
		if rerr != nil {
			return rerr
		}
		now := time.Now()
		if cur.Holder != l.ID || cur.Expired(now) {
			ok = false
			return nil
		}
		cur.ExpiresUnixNano, cur.Addr = now.Add(l.TTL).UnixNano(), l.Addr
		ok = true
		return l.write(cur)
	})
	return ok, err
}

// Read returns the current lease state without mutating it (standbys use it
// to find the leader's address).
func (l *Lease) Read() (LeaseState, error) {
	var st LeaseState
	err := l.withLock(func() error {
		cur, rerr := l.read()
		st = cur
		return rerr
	})
	return st, err
}

// Release expires a held lease in place (keeping holder and term, so the
// next acquirer still bumps past it). A lease held by someone else is left
// alone.
func (l *Lease) Release() error {
	return l.withLock(func() error {
		cur, rerr := l.read()
		if rerr != nil || cur.Holder != l.ID {
			return rerr
		}
		cur.ExpiresUnixNano = time.Now().UnixNano()
		return l.write(cur)
	})
}
