package wsrpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"falkon/internal/obs"
)

// Handler serves one RPC method. body is the caller's argument encoded as
// JSON; the returned value is encoded as the reply. Handlers installed with
// Register run on their own goroutine per call and may block; handlers
// installed with RegisterFast run inline on the read loop and must not.
//
// The body rule holds however a handler was installed: body lies in the read
// buffer or in the connection's recycled copy, which a reply may alias (it is
// reused once the reply is encoded), and is valid until the handler returns.
type Handler func(peer *Peer, body json.RawMessage) (any, error)

// Releaser is a reply on loan: Release is called once it has been encoded into
// the connection (or could not be), and its handler may then reuse what it
// points into. A handler that returns an error releases its own.
type Releaser interface{ Release() }

// ServerOptions configures a Server.
type ServerOptions struct {
	// PSK, when set, is the pre-shared key every connection must prove: a key
	// selects the secure profile.
	PSK []byte
	// Security names a profile with no key, for benchmark/layers.go and tests
	// (the secure one then fails every handshake).
	Security SecurityProfile
	// Logf, when set, receives connection-level error logs.
	Logf func(format string, args ...any)
	// Metrics, when set, receives per-method call counts and handler
	// latency histograms plus framed-byte counters.
	Metrics *obs.Registry
	// Faults, when set, interposes fault injection on every accepted
	// connection and on notify pushes (chaos testing only).
	Faults ConnFaults
}

// methodStats holds one method's pre-created instruments, so the hot path
// pays no registry lookup.
type methodStats struct {
	calls *obs.Counter
	lat   *obs.Histogram
}

// method is all the server knows of a registered method: one lookup a call.
type method struct {
	h           Handler
	fast        bool // dispatched inline on the read session (RegisterFast)
	methodStats      // nil instruments when unmetered
}

// Server accepts wsrpc connections and dispatches calls to registered
// handlers. It also supports server-initiated notifications to connected
// peers — the "push" half of Falkon's hybrid dispatch protocol.
type Server struct {
	opts       ServerOptions
	ln         net.Listener
	methods    map[string]*method // read-only after Listen
	rxBytes    *obs.Counter
	txBytes    *obs.Counter
	hWrite     *obs.Histogram // reply encode + cork commit time; nil when unmetered
	flushStats flushStats
	handshake  time.Duration // handshakeTimeout; a field so a test need not wait it out
	writeStall time.Duration // writeStall, likewise

	mu     sync.Mutex
	peers  map[*Peer]struct{}
	closed bool
	onDrop func(*Peer)

	wg     sync.WaitGroup
	nextID atomic.Uint64
}

// NewServer returns a server with no registered methods.
func NewServer(opts ServerOptions) *Server {
	s := &Server{
		opts:       opts,
		methods:    make(map[string]*method),
		peers:      make(map[*Peer]struct{}),
		handshake:  handshakeTimeout,
		writeStall: writeStall,
	}
	if opts.Metrics != nil {
		s.rxBytes = opts.Metrics.Counter("wsrpc_rx_bytes_total")
		s.txBytes = opts.Metrics.Counter("wsrpc_tx_bytes_total")
		s.hWrite = opts.Metrics.Histogram(obs.OverheadKey("frame_write"))
		s.flushStats = flushStats{
			flushes:  opts.Metrics.Counter("wsrpc_flushes_total"),
			perFlush: opts.Metrics.Histogram("wsrpc_frames_per_flush"),
		}
	}
	return s
}

// Register installs a handler for method. Registration must finish before
// Serve is called; re-registering a method panics.
func (s *Server) Register(name string, h Handler) {
	if _, dup := s.methods[name]; dup {
		panic("wsrpc: duplicate handler for " + name)
	}
	if h == nil {
		panic("wsrpc: nil handler for " + name)
	}
	m := &method{h: h}
	if s.opts.Metrics != nil {
		m.calls = s.opts.Metrics.Counter(obs.Labeled("wsrpc_calls_total", "method", name))
		m.lat = s.opts.Metrics.Histogram(obs.Labeled("wsrpc_call_seconds", "method", name))
	}
	s.methods[name] = m
}

// RegisterFast installs a handler dispatched inline on the connection's
// read goroutine instead of a goroutine per call. This removes the
// per-call goroutine spawn on hot methods, but the handler must be
// non-blocking: while it runs, no further frame is read from that
// connection (long-polling handlers like collect must stay on Register).
func (s *Server) RegisterFast(method string, h Handler) {
	s.Register(method, h)
	s.methods[method].fast = true
}

// OnDisconnect installs a callback invoked (once) whenever a peer's
// connection ends, before its resources are released.
func (s *Server) OnDisconnect(fn func(*Peer)) { s.onDrop = fn }

// Listen begins accepting connections on addr ("host:port"; ":0" picks an
// ephemeral port). It returns once the listener is bound; serving proceeds
// in the background.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("wsrpc: listen %s: %w", addr, err)
	}
	s.Serve(ln)
	return nil
}

// Serve begins accepting connections from ln in the background.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handleConn(c)
			}()
		}
	}()
}

// Addr returns the bound listener address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and disconnects all peers, waiting for handler
// goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	peers := make([]*Peer, 0, len(s.peers))
	for p := range s.peers {
		peers = append(peers, p)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, p := range peers {
		p.fc.Close()
	}
	s.wg.Wait()
	return err
}

// logf reports a connection-level problem.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// handleConn owns one connection for its lifetime.
func (s *Server) handleConn(c net.Conn) {
	remote := c.RemoteAddr().String()
	if s.opts.Faults != nil {
		c = s.opts.Faults.WrapConn(c)
	}
	fc, err := newFrameConn(c, profileFor(s.opts.Security, s.opts.PSK), s.opts.PSK, false, s.flushStats, s.handshake, s.writeStall)
	if err != nil {
		s.logf("wsrpc: handshake with %s: %v", remote, err)
		c.Close()
		return
	}
	peer := &Peer{fc: fc, id: s.nextID.Add(1), remote: remote, tx: s.txBytes, faults: s.opts.Faults}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		fc.Close()
		return
	}
	s.peers[peer] = struct{}{}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.peers, peer)
		drop := s.onDrop
		s.mu.Unlock()
		fc.Close()
		if drop != nil {
			drop(peer)
		}
	}()

	var calls sync.WaitGroup
	defer calls.Wait()
	// A goroutine-dispatched call's body goes into spare (or a new buffer), given
	// back once its reply is written unless it grew past corkRetainBuffer.
	spare := make(chan []byte, 1)
	strays := 0 // frames that were not calls
	err = fc.ReadFrames(func(raw []byte) error {
		if s.rxBytes != nil {
			s.rxBytes.Add(int64(len(raw)))
		}
		// One reading of the clock per call frame is its receive stamp — the
		// reply's rt field, the t1 of the client's NTP-style offset estimate —
		// and the start of its handler's latency.
		start := time.Now()
		recvNS := start.UnixNano()
		v, err := parseFrame(raw)
		if err != nil {
			return fmt.Errorf("bad frame: %w", err)
		}
		if v.kind != kindCall {
			if strays++; strays == 1 {
				s.logf("wsrpc: unexpected frame kind %d from %s (logged once per connection)", v.kind, peer.remote)
			}
			return nil
		}
		m := s.methods[string(v.method)] // no-alloc map lookup
		if m == nil {
			s.reply(peer, v.seq, v.trace, recvNS, start, nil, fmt.Errorf("wsrpc: no such method %q", v.method))
			return nil
		}
		if m.fast {
			// Inline dispatch: v.body lies in the read buffer, which the
			// session does not touch until this function returns.
			res, herr := m.h(peer, v.body)
			end := time.Now()
			if m.calls != nil {
				m.calls.Inc()
				m.lat.Observe(end.Sub(start).Seconds())
			}
			s.reply(peer, v.seq, v.trace, recvNS, end, res, herr)
			return nil
		}
		// Goroutine dispatch: the handler runs concurrently with further
		// reads, so it gets a copy of the body, its own until the reply is out.
		var buf []byte
		select {
		case buf = <-spare:
		default:
		}
		body := json.RawMessage(append(buf[:0], v.body...))
		seq, trace := v.seq, v.trace
		calls.Add(1)
		go func() {
			defer calls.Done()
			start := time.Now()
			res, herr := m.h(peer, body)
			end := time.Now()
			if m.calls != nil {
				m.calls.Inc()
				m.lat.Observe(end.Sub(start).Seconds())
			}
			s.reply(peer, seq, trace, recvNS, end, res, herr)
			if cap(body) <= corkRetainBuffer {
				select {
				case spare <- body:
				default:
				}
			}
		}()
		return nil
	})
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
		s.logf("wsrpc: read from %s: %v", peer.remote, err)
	}
}

// reply sends a kindReply frame carrying the call's trace, the receive
// stamp taken when the call frame arrived, and a send stamp — the t1/t2 pair
// of the client's clock-offset estimate. now is the caller's reading of the
// clock as the handler returned: the send stamp, and where the write's time
// starts. Errors are logged, not returned, because the reader loop owns
// connection teardown.
func (s *Server) reply(p *Peer, seq, trace uint64, recvNS int64, now time.Time, res any, herr error) {
	var errStr string
	var body frameBody
	if herr != nil {
		errStr = herr.Error()
	} else if b, err := bodyOf(res); err != nil {
		errStr = "wsrpc: marshal reply: " + err.Error()
	} else {
		body = b
	}
	meta := envMeta{trace: trace, recvNS: recvNS, sendNS: now.UnixNano(), now: now}
	n, err := p.fc.WriteEnvelope(kindReply, seq, "", errStr, meta, body)
	if s.hWrite != nil {
		s.hWrite.Observe(time.Since(now).Seconds())
	}
	if r, ok := res.(Releaser); ok {
		r.Release()
	}
	if err != nil {
		// Peer is gone; the read loop will notice and clean up.
		return
	}
	if s.txBytes != nil {
		s.txBytes.Add(int64(n))
	}
}

// isConnReset reports the resets we treat as normal disconnects; any other
// failure to read is worth a log line.
func isConnReset(err error) bool {
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// Peer is the server-side view of one connected client. Handlers receive the
// peer making the call and may push notifications to it at any time.
type Peer struct {
	fc     frameConn
	id     uint64
	remote string
	tx     *obs.Counter // server tx byte counter; nil when unmetered
	faults ConnFaults   // notify-duplication seam; nil in production

	mu      sync.Mutex
	meta    any
	scratch any // what a handler keeps on the connection from call to call (Scratch)
}

// ID returns a server-unique connection id.
func (p *Peer) ID() uint64 { return p.id }

// RemoteAddr returns the peer's network address.
func (p *Peer) RemoteAddr() string { return p.remote }

// SetMeta attaches arbitrary per-connection state (e.g. the executor
// registration).
func (p *Peer) SetMeta(v any) { p.mu.Lock(); p.meta = v; p.mu.Unlock() }

// Meta returns the state stored by SetMeta.
func (p *Peer) Meta() any { p.mu.Lock(); defer p.mu.Unlock(); return p.meta }

// Scratch hands a handler what the connection keeps for it from call to call,
// a decoder's scratch say, until KeepScratch gives it back: nil the first time,
// and while another call on the connection has it. Fast handlers run one at a
// time on the read session, so each finds what the one before it kept.
func (p *Peer) Scratch() (v any) { p.mu.Lock(); v, p.scratch = p.scratch, nil; p.mu.Unlock(); return v }

// KeepScratch gives the connection what Scratch handed out, for the next call.
func (p *Peer) KeepScratch(v any) { p.mu.Lock(); p.scratch = v; p.mu.Unlock() }

// Notify pushes a one-way notification to the peer. It is safe to call from
// any goroutine.
func (p *Peer) Notify(method string, arg any) error {
	body, err := bodyOf(arg)
	if err != nil {
		return fmt.Errorf("wsrpc: marshal notify: %w", err)
	}
	n, err := p.fc.WriteEnvelope(kindNotify, 0, method, "", envMeta{}, body)
	if err != nil {
		return err
	}
	if p.faults != nil && p.faults.DupNotify() {
		// Injected duplicate push: receivers must tolerate replayed
		// notifications (at-least-once push, exactly-once effect).
		if dn, derr := p.fc.WriteEnvelope(kindNotify, 0, method, "", envMeta{}, body); derr == nil {
			n += dn
		}
	}
	if p.tx != nil {
		p.tx.Add(int64(n))
	}
	return nil
}

// Close tears down the peer's connection.
func (p *Peer) Close() error { return p.fc.Close() }

// PeerSet is a set of connected peers some event is pushed to — the tree
// parents attached to a dispatcher or to a forwarder. The zero value is
// ready to use, and Len is one atomic load, so a hot path can skip an empty
// set for free.
type PeerSet struct {
	n  atomic.Int32
	mu sync.Mutex
	m  map[uint64]*Peer
}

// Add puts p in the set.
func (s *PeerSet) Add(p *Peer) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]*Peer)
	}
	s.m[p.ID()] = p
	s.n.Store(int32(len(s.m)))
	s.mu.Unlock()
}

// Drop removes p (a no-op if it was never added).
func (s *PeerSet) Drop(p *Peer) {
	s.mu.Lock()
	delete(s.m, p.ID())
	s.n.Store(int32(len(s.m)))
	s.mu.Unlock()
}

// Has reports whether p is in the set.
func (s *PeerSet) Has(p *Peer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[p.ID()] == p
}

// Len returns the number of peers in the set.
func (s *PeerSet) Len() int { return int(s.n.Load()) }

// Each calls fn for every peer in the set, under the set's lock: fn must not
// re-enter the set nor block beyond a corked notify write (write-stall bounded).
func (s *PeerSet) Each(fn func(*Peer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.m {
		fn(p)
	}
}
