package wsrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/obs"
)

// ErrSessionClosed is what Conn reports after Close.
var ErrSessionClosed = errors.New("wsrpc: session closed")

// SessionOptions configures NewSession.
type SessionOptions struct {
	// Addrs is the address chain ("leaf", "root"): every (re)dial walks it
	// starting at the last address that completed a handshake, so a blip
	// returns to the same server and a dead one rotates to the fallback.
	Addrs []string
	// Client holds what every dial of the chain shares: security profile,
	// notify handler, metrics, fault injection.
	Client ClientOptions
	// Reconnect replaces a dropped connection instead of ending the session.
	Reconnect bool
	// ReconnectTimeout bounds one continuous outage; past it the session
	// ends (0 = redial forever).
	ReconnectTimeout time.Duration
	// Backoff paces redials (zero value = backoff.Default).
	Backoff backoff.Policy
	// Handshake runs on every fresh connection before it is published
	// (register, attach, ...); addrIdx is the connection's index in Addrs.
	// On error the connection is closed and never seen by Conn.
	Handshake func(cli *Client, addrIdx int) error
	// OnDown runs when the published connection drops and a redial begins;
	// OnUp runs after each replacement is published (never for the first
	// connection). Both run on the session's goroutine, one at a time.
	OnDown func()
	OnUp   func(cli *Client)
	// Retries, when set, counts redial attempts.
	Retries *obs.Counter

	connect func(ctx context.Context, network, addr string) (net.Conn, error) // tests dial a fake network
}

// Session is one supervised connection to whichever address of a chain
// answers: it dials, runs the caller's handshake, publishes the connection,
// and — in Reconnect mode — replaces it with jittered backoff whenever it
// drops. A generation identifies one published connection: it moves only on
// publish, so a caller whose call failed on generation g waits in Await(g)
// for the replacement instead of watching the connection itself.
//
// No hook runs under the session's lock, and Close waits for the session
// goroutine: callers must not call Close from a hook, nor while holding a
// lock that Handshake, OnDown, OnUp or OnNotify take.
type Session struct {
	opts     SessionOptions
	ctx      context.Context // cancelled by Close; aborts dials, handshakes and backoff waits
	cancel   context.CancelFunc
	loopDone chan struct{}
	done     chan struct{}

	addrIdx int // chain position of the last good address; session goroutine only

	mu   sync.Mutex
	cond *sync.Cond // broadcast on publish and on end
	cli  *Client
	gen  int
	err  error // why the session ended; nil while it lives
}

// NewSession returns an unopened session: no I/O happens and no hook runs
// before Open, so the owner can store the session where its hooks look for
// it first.
func NewSession(opts SessionOptions) *Session {
	if opts.connect == nil {
		opts.connect = new(net.Dialer).DialContext
	}
	s := &Session{opts: opts, loopDone: make(chan struct{}), done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s
}

// Open dials the chain once, runs the handshake, publishes the connection
// as generation 0 and starts supervising it. The first connection is not
// retried: a caller that cannot reach its server at start-up should fail
// loudly. Call it once.
func (s *Session) Open() error {
	if len(s.opts.Addrs) == 0 {
		return errors.New("wsrpc: session has no address")
	}
	cli, err := s.connect()
	if err != nil {
		return err
	}
	if err := s.publish(cli); err != nil {
		return err
	}
	go s.run(cli)
	return nil
}

// publish makes cli the session's connection — a new generation unless it
// is the first — or closes it if the session ended while it was set up.
func (s *Session) publish(cli *Client) error {
	s.mu.Lock()
	err := s.err
	if err == nil {
		if s.cli != nil {
			s.gen++
		}
		s.cli = cli
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if err != nil {
		cli.Close()
	}
	return err
}

// Conn returns the published connection and its generation. During an
// outage that is still the dropped connection (calls on it fail at once;
// Await its generation); the error is set only once the session has ended.
func (s *Session) Conn() (*Client, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, 0, s.err
	}
	return s.cli, s.gen, nil
}

// Await blocks until a connection newer than generation gen is published.
// It returns false if the session ended instead.
func (s *Session) Await(gen int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.gen == gen && s.err == nil {
		s.cond.Wait()
	}
	return s.err == nil
}

// Done is closed once the session has ended: Close, a drop without
// Reconnect, or an outage longer than ReconnectTimeout.
func (s *Session) Done() <-chan struct{} { return s.done }

// Close ends the session, closes its connection and waits for the session
// goroutine (hooks included) to finish. It is idempotent, and harmless on a
// session that was never opened.
func (s *Session) Close() error {
	s.end(ErrSessionClosed)
	s.cancel()
	s.mu.Lock()
	cli := s.cli
	s.mu.Unlock()
	if cli == nil {
		return nil // never opened: nothing to close, no goroutine to wait for
	}
	err := cli.Close()
	<-s.loopDone
	return err
}

// end records why the session is over and releases every waiter.
func (s *Session) end(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		close(s.done)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// run watches the published connection and replaces it when it drops.
func (s *Session) run(cli *Client) {
	defer close(s.loopDone)
	for {
		select {
		case <-cli.Done():
		case <-s.ctx.Done():
		}
		if s.ctx.Err() != nil {
			return // Close also drops the connection: check which it was
		}
		if !s.opts.Reconnect {
			s.end(fmt.Errorf("wsrpc: connection lost: %w", ErrClientClosed))
			return
		}
		if s.opts.OnDown != nil {
			s.opts.OnDown()
		}
		if cli = s.redial(); cli == nil {
			return
		}
		if s.opts.OnUp != nil {
			s.opts.OnUp(cli)
		}
	}
}

// redial is the one backoff loop: it returns the published replacement, or
// nil once the session was closed or the outage outlasted its bound.
func (s *Session) redial() *Client {
	start := time.Now()
	sched := backoff.NewSchedule(s.opts.Backoff)
	for {
		select {
		case <-s.ctx.Done():
			return nil
		case <-time.After(sched.Next()):
		}
		if t := s.opts.ReconnectTimeout; t > 0 && time.Since(start) > t {
			s.end(fmt.Errorf("wsrpc: connection lost: reconnect timed out after %v", t))
			return nil
		}
		if s.opts.Retries != nil {
			s.opts.Retries.Inc()
		}
		cli, err := s.connect()
		if err != nil {
			continue
		}
		if s.publish(cli) != nil {
			return nil
		}
		return cli
	}
}

// connect walks the chain from the last good address and returns the first
// connection that completes the handshake, or the first error.
func (s *Session) connect() (*Client, error) {
	var firstErr error
	for i := range s.opts.Addrs {
		idx := (s.addrIdx + i) % len(s.opts.Addrs)
		cli, err := dial(s.ctx, s.opts.Addrs[idx], s.opts.Client, s.opts.connect)
		if err == nil && s.opts.Handshake != nil {
			stop := context.AfterFunc(s.ctx, func() { cli.Close() })
			err = s.opts.Handshake(cli, idx)
			stop()
			if err != nil {
				cli.Close()
			}
		}
		if err == nil {
			s.addrIdx = idx
			return cli, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}
