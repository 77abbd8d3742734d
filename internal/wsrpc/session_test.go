package wsrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"falkon/internal/backoff"
)

// noDelay is the shortest expressible backoff: redials are immediate.
var noDelay = backoff.Policy{Base: 1, Max: 1}

// fakeNet is an in-memory network for Session tests: named addresses backed
// by real Servers over net.Pipe, a switch per address, a log of every dial,
// and a way to cut an address's live connections.
type fakeNet struct {
	mu    sync.Mutex
	lns   map[string]*fakeListener
	down  map[string]bool
	dials []string
	conns map[string][]net.Conn // client ends, for cut
}

type fakeListener struct {
	addr   string
	conns  chan net.Conn
	closed chan struct{}
}

func (l *fakeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}
func (l *fakeListener) Close() error   { close(l.closed); return nil }
func (l *fakeListener) Addr() net.Addr { return fakeAddr(l.addr) }

type fakeAddr string

func (a fakeAddr) Network() string { return "fake" }
func (a fakeAddr) String() string  { return string(a) }

// newFakeNet serves an "echo" method at each address.
func newFakeNet(t *testing.T, addrs ...string) *fakeNet {
	n := &fakeNet{lns: map[string]*fakeListener{}, down: map[string]bool{}, conns: map[string][]net.Conn{}}
	for _, addr := range addrs {
		ln := &fakeListener{addr: addr, conns: make(chan net.Conn), closed: make(chan struct{})}
		n.lns[addr] = ln
		srv := NewServer(ServerOptions{Logf: t.Logf})
		srv.Register("echo", func(_ *Peer, body json.RawMessage) (any, error) { return body, nil })
		srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
	}
	return n
}

func (n *fakeNet) connect(ctx context.Context, _, addr string) (net.Conn, error) {
	n.mu.Lock()
	n.dials = append(n.dials, addr)
	ln, down := n.lns[addr], n.down[addr]
	n.mu.Unlock()
	if ln == nil || down {
		return nil, fmt.Errorf("fake: %s refused", addr)
	}
	c, s := net.Pipe()
	select {
	case ln.conns <- s:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	n.mu.Lock()
	n.conns[addr] = append(n.conns[addr], c)
	n.mu.Unlock()
	return c, nil
}

func (n *fakeNet) setDown(addr string, down bool) {
	n.mu.Lock()
	n.down[addr] = down
	n.mu.Unlock()
}

// cut closes every live connection to addr.
func (n *fakeNet) cut(addr string) {
	n.mu.Lock()
	cs := n.conns[addr]
	n.conns[addr] = nil
	n.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
}

// takeDials returns and clears the dial log.
func (n *fakeNet) takeDials() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := n.dials
	n.dials = nil
	return d
}

// sessionUnderTest opens a session over n with hooks wired to channels.
type sessionUnderTest struct {
	*Session
	downs, ups chan struct{}
}

func openSession(t *testing.T, n *fakeNet, opts SessionOptions) *sessionUnderTest {
	t.Helper()
	sut := &sessionUnderTest{downs: make(chan struct{}, 16), ups: make(chan struct{}, 16)}
	opts.connect = n.connect
	opts.OnDown = func() { sut.downs <- struct{}{} }
	opts.OnUp = func(*Client) { sut.ups <- struct{}{} }
	sut.Session = NewSession(opts)
	if err := sut.Open(); err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { sut.Close() })
	return sut
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// The chain is walked from the last address that completed a handshake: a
// blip returns to the same server, a dead one rotates to the fallback, and
// the fallback then becomes where the next redial starts.
func TestSessionChainStartsAtLastGoodAddress(t *testing.T) {
	n := newFakeNet(t, "a", "b")
	n.setDown("a", true)
	s := openSession(t, n, SessionOptions{Addrs: []string{"a", "b"}, backoff: noDelay})
	if got := n.takeDials(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("first connect dialed %v, want [a b]", got)
	}
	for i, step := range []struct {
		name      string
		aDown     bool
		bDown     bool
		cut       string
		wantDials []string
	}{
		{"blip on b redials b first", false, false, "b", []string{"b"}},
		{"b dead rotates to a", false, true, "b", []string{"b", "a"}},
		{"a is now where redials start", false, false, "a", []string{"a"}},
	} {
		n.setDown("a", step.aDown)
		n.setDown("b", step.bDown)
		n.cut(step.cut)
		waitFor(t, s.ups, step.name)
		if got := n.takeDials(); !reflect.DeepEqual(got, step.wantDials) {
			t.Fatalf("%s: dialed %v, want %v", step.name, got, step.wantDials)
		}
		if _, gen, err := s.Conn(); err != nil || gen != i+1 {
			t.Fatalf("%s: gen = %d, err = %v; want gen %d", step.name, gen, err, i+1)
		}
	}
	select {
	case <-s.ups:
		t.Fatal("OnUp ran more often than the connection was replaced")
	default:
	}
}

// A connection whose handshake fails is closed and never published: the
// generation stays put, Conn keeps returning the dropped connection, and
// the redial continues until a handshake passes.
func TestSessionHandshakeFailureIsNeverPublished(t *testing.T) {
	n := newFakeNet(t, "a")
	var mu sync.Mutex
	failures, calls := 0, 0
	var rejected []*Client
	var s *sessionUnderTest
	handshake := func(cli *Client) error {
		if err := cli.Call("echo", 1, nil); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		calls++
		if failures > 0 {
			failures--
			rejected = append(rejected, cli)
			if _, gen, _ := s.Conn(); gen != 0 {
				t.Errorf("generation moved to %d before any handshake passed", gen)
			}
			return errors.New("not yet")
		}
		return nil
	}
	s = openSession(t, n, SessionOptions{Addrs: []string{"a"}, backoff: noDelay, Handshake: handshake})
	first, _, _ := s.Conn()

	mu.Lock()
	failures = 3
	mu.Unlock()
	n.cut("a")
	waitFor(t, s.ups, "reconnect after three failed handshakes")
	cli, gen, err := s.Conn()
	if err != nil || gen != 1 || cli == first {
		t.Fatalf("after reconnect: gen = %d, err = %v, same client = %v", gen, err, cli == first)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1+3+1 {
		t.Fatalf("handshake ran %d times, want 5", calls)
	}
	for _, r := range rejected {
		select {
		case <-r.Done():
		default:
			t.Fatal("a connection that failed its handshake was left open")
		}
		if r == cli {
			t.Fatal("a connection that failed its handshake was published")
		}
	}
}

// However a session ends, every Await is released with false, Done closes,
// and Conn says why.
func TestSessionEndReleasesWaiters(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    SessionOptions
		end     func(t *testing.T, n *fakeNet, s *sessionUnderTest)
		wantErr string
	}{
		{
			name: "outage past the bound",
			opts: SessionOptions{ReconnectTimeout: 20 * time.Millisecond, backoff: noDelay},
			end: func(_ *testing.T, n *fakeNet, _ *sessionUnderTest) {
				n.setDown("a", true)
				n.cut("a")
			},
			wantErr: "timed out",
		},
		{
			name: "Close during backoff",
			opts: SessionOptions{backoff: backoff.Policy{Base: time.Hour, Max: time.Hour}},
			end: func(t *testing.T, n *fakeNet, s *sessionUnderTest) {
				n.cut("a")
				<-s.downs // the redial is now asleep for an hour
				closed := make(chan struct{})
				go func() { s.Close(); close(closed) }()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Close did not return while the redial was backing off")
				}
			},
			wantErr: ErrSessionClosed.Error(),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newFakeNet(t, "a")
			tc.opts.Addrs = []string{"a"}
			s := openSession(t, n, tc.opts)
			released := make(chan bool, 4)
			for i := 0; i < cap(released); i++ {
				go func() { released <- s.Await(0) }()
			}
			tc.end(t, n, s)
			for i := 0; i < cap(released); i++ {
				select {
				case ok := <-released:
					if ok {
						t.Fatal("Await reported a new connection on a session that ended")
					}
				case <-time.After(10 * time.Second):
					t.Fatal("Await still blocked after the session ended")
				}
			}
			waitFor(t, s.Done(), "Done")
			if _, _, err := s.Conn(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Conn error = %v, want it to mention %q", err, tc.wantErr)
			}
			if len(s.ups) != 0 {
				t.Fatal("OnUp ran on a session that never reconnected")
			}
		})
	}
}

// Open does not retry: an unreachable chain is the caller's start-up error,
// and closing a session that never opened is harmless.
func TestSessionOpenFailsWithoutRetry(t *testing.T) {
	n := newFakeNet(t)
	s := NewSession(SessionOptions{Addrs: []string{"x", "y"}, backoff: noDelay, connect: n.connect})
	if err := s.Open(); err == nil || !strings.Contains(err.Error(), "x") {
		t.Fatalf("Open error = %v, want the first address's dial error", err)
	}
	if got := n.takeDials(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("dialed %v, want one pass over the chain", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := NewSession(SessionOptions{}).Open(); err == nil {
		t.Fatal("Open accepted an empty chain")
	}
}
