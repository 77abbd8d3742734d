package wsrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"falkon/internal/obs"
)

// ErrClientClosed is returned by calls made on (or interrupted by) a closed
// client.
var ErrClientClosed = errors.New("wsrpc: client closed")

// RemoteError wraps an error string returned by a server handler.
type RemoteError struct{ Msg string }

// Error returns the server's message.
func (e *RemoteError) Error() string { return e.Msg }

// NotifyHandler receives server-pushed notifications. It runs on the
// client's read loop goroutine: implementations must not block (hand off to
// a channel or goroutine for real work). body lies in the connection's read
// buffer, under the package's body rule.
type NotifyHandler func(method string, body json.RawMessage)

// ClientOptions configures Dial.
type ClientOptions struct {
	// Security must match the server's profile.
	Security SecurityProfile
	// PSK is the pre-shared key for the secure profile.
	PSK []byte
	// OnNotify handles pushed notifications; may be nil.
	OnNotify NotifyHandler
	// Metrics, when set, receives per-method call counts and round-trip
	// latency histograms plus framed-byte counters (client-side view).
	Metrics *obs.Registry
	// Faults, when set, interposes fault injection on the connection
	// (chaos testing only).
	Faults ConnFaults
}

// Client is a wsrpc connection initiator: it issues concurrent calls and
// receives pushed notifications.
type Client struct {
	fc      frameConn
	opts    ClientOptions
	rxBytes *obs.Counter
	txBytes *obs.Counter

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*callSlot
	stats   map[string]*methodStats // per-method instruments, built on first call; nil when unmetered
	closed  bool

	interned map[string]string // notify method names; readLoop-only

	// Clock-offset estimator fed by reply rt/st stamps: the sample with the
	// smallest round trip bounds the asymmetry error, so it wins (NTP's
	// minimum-filter rule applied over the connection's lifetime).
	offMu   sync.Mutex
	offRTT  int64 // ns of the best (smallest) sampled round trip; 0 = none yet
	offNS   int64 // server clock minus client clock at the best sample
	offSeen int64 // samples accepted

	done chan struct{}
}

// callSlot is where one call waits for its reply: the read loop fills in the
// reply's envelope fields and copies its body into the slot's own buffer
// (the read buffer is reused by the next read), then signals ready. Slots are
// recycled through callSlots, but only by a call that received its reply:
// one abandoned on ctx.Done() may still be written by the read loop, and one
// failed by teardown has a closed channel.
type callSlot struct {
	ready          chan struct{} // buffered 1; closed by teardown
	errs           string
	recvNS, sendNS int64
	body           []byte
}

var callSlots = sync.Pool{New: func() any { return &callSlot{ready: make(chan struct{}, 1)} }}

// maxPooledBody is the largest reply buffer a recycled slot keeps.
const maxPooledBody = 64 << 10

// Dial connects to a Server at addr.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	return dial(context.Background(), addr, opts, new(net.Dialer).DialContext)
}

// dial is Dial over an arbitrary connector; cancelling ctx aborts the
// connect and the security handshake, never an established client.
func dial(ctx context.Context, addr string, opts ClientOptions, connect func(ctx context.Context, network, addr string) (net.Conn, error)) (*Client, error) {
	c, err := connect(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wsrpc: dial %s: %w", addr, err)
	}
	if opts.Faults != nil {
		c = opts.Faults.WrapConn(c)
	}
	var stats flushStats
	if opts.Metrics != nil {
		stats = flushStats{
			flushes:  opts.Metrics.Counter("wsrpc_client_flushes_total"),
			perFlush: opts.Metrics.Histogram("wsrpc_client_frames_per_flush"),
		}
	}
	stop := context.AfterFunc(ctx, func() { c.Close() })
	fc, err := newFrameConn(c, opts.Security, opts.PSK, true, stats, handshakeTimeout, writeStall)
	stop()
	if err != nil {
		c.Close()
		return nil, err
	}
	cl := &Client{fc: fc, opts: opts, pending: make(map[uint64]*callSlot), done: make(chan struct{})}
	if opts.Metrics != nil {
		cl.rxBytes = opts.Metrics.Counter("wsrpc_client_rx_bytes_total")
		cl.txBytes = opts.Metrics.Counter("wsrpc_client_tx_bytes_total")
		cl.stats = make(map[string]*methodStats)
	}
	go cl.readLoop()
	return cl, nil
}

// readLoop dispatches replies and notifications until the connection ends.
func (c *Client) readLoop() {
	c.fc.ReadFrames(func(raw []byte) error {
		if c.rxBytes != nil {
			c.rxBytes.Add(int64(len(raw)))
		}
		v, err := parseFrame(raw)
		if err != nil {
			return err
		}
		switch v.kind {
		case kindReply:
			c.mu.Lock()
			slot := c.pending[v.seq]
			delete(c.pending, v.seq)
			c.mu.Unlock()
			if slot != nil {
				// Copy out of the read buffer: the waiter consumes the reply
				// after the session has moved on.
				slot.errs, slot.recvNS, slot.sendNS = string(v.errs), v.recvNS, v.sendNS
				slot.body = append(slot.body[:0], v.body...)
				slot.ready <- struct{}{}
			}
		case kindNotify:
			if c.opts.OnNotify != nil {
				c.opts.OnNotify(c.intern(v.method), v.body)
			}
		default:
			return fmt.Errorf("wsrpc: unexpected frame kind %d from server", v.kind)
		}
		return nil
	})
	c.teardown()
}

// intern returns the string for a notify method name, reusing one
// allocation per distinct name (the set is small and stable). Called only
// from readLoop, so the map needs no lock; the size cap guards against a
// misbehaving server minting unbounded names.
func (c *Client) intern(b []byte) string {
	if s, ok := c.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if c.interned == nil {
		c.interned = make(map[string]string, 8)
	}
	if len(c.interned) < 64 {
		c.interned[s] = s
	}
	return s
}

// teardown fails all pending calls and signals closure.
func (c *Client) teardown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pend := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.fc.Close()
	for _, slot := range pend {
		close(slot.ready)
	}
	close(c.done)
}

// Close shuts the connection down. Pending calls fail with ErrClientClosed.
func (c *Client) Close() error {
	c.fc.Close() // wakes the read loop, which runs teardown
	<-c.done
	return nil
}

// Done is closed when the connection has fully shut down.
func (c *Client) Done() <-chan struct{} { return c.done }

// Call invokes method with arg, decoding the server's reply into reply
// (which may be nil to discard). It blocks until the reply arrives or the
// connection fails.
func (c *Client) Call(method string, arg, reply any) error {
	return c.CallContext(context.Background(), method, arg, reply)
}

// CallContext is Call with cancellation: when ctx ends first, the call
// returns ctx's error and the eventual reply is discarded (the connection
// stays usable — wsrpc has no per-call cancel on the wire, matching WS
// semantics).
func (c *Client) CallContext(ctx context.Context, method string, arg, reply any) error {
	return c.call(ctx, method, arg, reply, 0, 0)
}

// CallTrace is Call with a trace context: the call frame carries the trace
// and parent span IDs in its envelope, so the server can attribute the RPC
// to a distributed task timeline without decoding the body.
func (c *Client) CallTrace(method string, arg, reply any, trace, parent uint64) error {
	return c.call(context.Background(), method, arg, reply, trace, parent)
}

func (c *Client) call(ctx context.Context, method string, arg, reply any, trace, parent uint64) error {
	body, err := bodyOf(arg)
	if err != nil {
		return fmt.Errorf("wsrpc: marshal %s arg: %w", method, err)
	}
	slot := callSlots.Get().(*callSlot)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		callSlots.Put(slot)
		return ErrClientClosed
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = slot
	var ms *methodStats
	if c.stats != nil {
		// The labeled registry keys are built once per method, not per call.
		if ms = c.stats[method]; ms == nil {
			ms = &methodStats{
				calls: c.opts.Metrics.Counter(obs.Labeled("wsrpc_client_calls_total", "method", method)),
				lat:   c.opts.Metrics.Histogram(obs.Labeled("wsrpc_client_seconds", "method", method)),
			}
			c.stats[method] = ms
		}
	}
	c.mu.Unlock()

	start := time.Now()
	n, err := c.fc.WriteEnvelope(kindCall, seq, method, "", envMeta{trace: trace, parent: parent, now: start}, body)
	if err == nil && c.txBytes != nil {
		c.txBytes.Add(int64(n))
	}
	if err != nil {
		c.mu.Lock()
		if c.pending != nil {
			delete(c.pending, seq)
		}
		c.mu.Unlock()
		return fmt.Errorf("wsrpc: call %s: %w", method, err)
	}

	select {
	case _, ok := <-slot.ready:
		if !ok {
			return ErrClientClosed
		}
		end := time.Now()
		if slot.recvNS > 0 && slot.sendNS > 0 {
			c.noteOffset(start, end, slot.recvNS, slot.sendNS)
		}
		if ms != nil {
			ms.calls.Inc()
			ms.lat.Observe(end.Sub(start).Seconds())
		}
		if slot.errs != "" {
			err = &RemoteError{Msg: slot.errs}
		} else if reply != nil && len(slot.body) > 0 {
			// Both decoders copy what they keep, so the buffer is free again.
			if d, ok := reply.(BodyDecoder); ok {
				err = d.DecodeJSON(slot.body)
			} else {
				err = json.Unmarshal(slot.body, reply)
			}
			if err != nil {
				err = fmt.Errorf("wsrpc: decode %s reply: %w", method, err)
			}
		}
		if cap(slot.body) > maxPooledBody {
			slot.body = nil
		}
		slot.errs = ""
		callSlots.Put(slot)
		return err
	case <-ctx.Done():
		// Abandon the call; drop the pending slot so a late reply is
		// discarded by the read loop.
		c.mu.Lock()
		if c.pending != nil {
			delete(c.pending, seq)
		}
		c.mu.Unlock()
		return ctx.Err()
	}
}

// noteOffset folds one round trip's (t0, t3) client stamps and (t1, t2)
// server stamps into the offset estimate:
//
//	rtt    = (t3 - t0) - (t2 - t1)
//	offset = ((t1 - t0) + (t2 - t3)) / 2
//
// Only the minimum-RTT sample is kept: its offset error is bounded by
// rtt/2, so tighter round trips strictly improve the estimate.
func (c *Client) noteOffset(t0, t3 time.Time, t1, t2 int64) {
	t0n, t3n := t0.UnixNano(), t3.UnixNano()
	rtt := (t3n - t0n) - (t2 - t1)
	if rtt < 0 {
		return // clock stepped mid-call; discard
	}
	off := ((t1 - t0n) + (t2 - t3n)) / 2
	c.offMu.Lock()
	c.offSeen++
	if c.offSeen == 1 || rtt < c.offRTT {
		c.offRTT, c.offNS = rtt, off
	}
	c.offMu.Unlock()
}

// ClockOffset returns the estimated offset of the server's clock relative
// to this process (server = local + offset) and the round trip that bounds
// it. ok is false until at least one stamped reply has been seen.
func (c *Client) ClockOffset() (offset, rtt time.Duration, ok bool) {
	c.offMu.Lock()
	defer c.offMu.Unlock()
	if c.offSeen == 0 {
		return 0, 0, false
	}
	return time.Duration(c.offNS), time.Duration(c.offRTT), true
}
