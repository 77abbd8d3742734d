// Package wsrpc is the communication substrate of the Falkon reproduction.
// The paper's components exchange Web Services (SOAP over GT4) messages plus
// a custom TCP notification protocol; this package replaces both with
// length-prefixed JSON frames over TCP, preserving the properties the
// evaluation depends on: per-message cost, request/response call semantics,
// server-initiated notifications (the "push" half of the hybrid model), and
// an optional security profile that authenticates and encrypts every frame
// (standing in for GSISecureConversation).
//
// The body rule: a body handed to a Handler or a NotifyHandler is valid until
// the handler returns, and then reused; a handler copies what it keeps.
package wsrpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"syscall"
	"time"
)

// MaxFrameSize bounds a single frame; large task bundles fit comfortably,
// while corrupt length prefixes fail fast.
const MaxFrameSize = 64 << 20

// frameKind discriminates wire messages.
type frameKind uint8

const (
	kindCall frameKind = iota + 1
	kindReply
	kindNotify
)

// frame is the wire envelope. The trace/timing fields are optional: calls
// may carry a trace context (tr/ps), replies echo the trace and stamp the
// server's receive/send clock (rt/st, unix nanos) so clients can estimate
// the per-connection clock offset NTP-style from ordinary round trips. Old
// peers ignore the extra fields (encoding/json drops unknown keys), so the
// wire stays compatible in both directions.
type frame struct {
	Kind   frameKind       `json:"k"`
	Seq    uint64          `json:"seq"`
	Method string          `json:"m,omitempty"`
	Err    string          `json:"e,omitempty"`
	Trace  uint64          `json:"tr,omitempty"`
	Parent uint64          `json:"ps,omitempty"`
	RecvNS int64           `json:"rt,omitempty"`
	SendNS int64           `json:"st,omitempty"`
	Body   json.RawMessage `json:"b,omitempty"`
}

// envMeta carries a frame's optional trace/timing envelope fields through
// the write path without widening every call site to nine parameters. now is
// not on the wire: it is a reading of the clock the caller has just taken
// (zero for none), which the cork's write-stall check uses for its own.
type envMeta struct {
	trace, parent  uint64
	recvNS, sendNS int64
	now            time.Time
}

// BodyAppender is a message body that encodes itself. AppendJSON appends
// one JSON document that decodes as json.Marshal's encoding of the value
// would. Call, a handler's reply and Notify write such a body straight into
// the connection's cork buffer; any other value goes through json.Marshal.
//
// AppendJSON runs under the connection's write lock, so it must neither
// block nor write to that connection.
type BodyAppender interface {
	AppendJSON(dst []byte) []byte
}

// BodyDecoder is a reply body that decodes itself. DecodeJSON accepts what
// json.Unmarshal into the zero value accepts, with the same result, and
// copies whatever it keeps of b. Call decodes such a reply without
// encoding/json; any other goes through json.Unmarshal.
type BodyDecoder interface {
	DecodeJSON(b []byte) error
}

// frameBody is a frame's payload on the write path: pre-marshalled JSON, or
// a body that appends itself.
type frameBody struct {
	raw []byte
	app BodyAppender
}

// bodyOf prepares v (nil for none) as a frame payload.
func bodyOf(v any) (frameBody, error) {
	switch v := v.(type) {
	case nil:
		return frameBody{}, nil
	case BodyAppender:
		return frameBody{app: v}, nil
	}
	b, err := json.Marshal(v)
	return frameBody{raw: b}, err
}

// frameConn reads and writes whole frames. Implementations must support one
// concurrent reader and any number of concurrent writers.
type frameConn interface {
	// ReadFrames is the connection's read session: it hands fn each frame
	// until the connection fails or fn does, and returns that error. raw lies
	// in the read buffer, valid only until fn returns; no further frame is
	// read until then. Called again, it carries on where it stopped.
	ReadFrames(fn func(raw []byte) error) error
	// WriteEnvelope encodes a frame envelope, body included, straight into
	// the connection's corked write buffer — the fast path. It returns the
	// envelope's encoded size for byte accounting.
	WriteEnvelope(kind frameKind, seq uint64, method, errStr string, meta envMeta, body frameBody) (int, error)
	// WriteFrame sends an already-encoded payload verbatim (compat/test
	// path; the fast path is WriteEnvelope).
	WriteFrame(p []byte) error
	// Close never waits for the read session (corkedWriter.close).
	Close() error
}

// readBufSize is a read buffer's size at rest (frameReader.space).
const readBufSize = 64 << 10

// eofProbe bounds how long a raw session trusts a short read: a FIN the
// poller harvested together with the data before it raises no wake-up of its
// own, so the session ends its wait once, at most eofProbe after a short
// read, and reads again. An idle connection arms nothing.
const eofProbe = 200 * time.Millisecond

// frameReader is a connection's read session (DESIGN.md §9): one buffer, one
// parse loop (drain) and two ways to fill the buffer, chosen by what the
// connection is. One with a descriptor is read inside syscall.RawConn.Read:
// a read that came back short emptied the socket (epoll(7), Q9), so the
// session waits on the poller instead of issuing the read that would say
// EAGAIN. That wait is sound only inside the RawConn.Read that saw the short
// read — a new one resets the poller's record, and a readiness with it — so
// each new one starts with a read. Any other connection (a fault-injecting
// wrapper, net.Pipe) is filled by its Read.
type frameReader struct {
	c       net.Conn
	rc      syscall.RawConn // nil: filled by c.Read
	trailer int             // bytes of each frame behind its payload (the secure profile's MAC)
	buf     []byte          // buf[r:w] is read and not yet yielded
	r, w    int
	probe   time.Duration // eofProbe; a field so a test can tell a probe from a wake-up
	probing bool          // a probe read deadline is armed
}

func (fr *frameReader) init(c net.Conn, trailer int) {
	fr.c, fr.trailer, fr.probe = c, trailer, eofProbe
	if sc, ok := c.(syscall.Conn); ok && rawRead != nil {
		fr.rc, _ = sc.SyscallConn() // on error rc stays nil
	}
}

// run is ReadFrames over records (payload and trailer).
func (fr *frameReader) run(fn func(rec []byte) error) (err error) {
	defer func() {
		if err == io.EOF && fr.w > fr.r {
			err = io.ErrUnexpectedEOF // the stream ended inside a frame
		}
	}()
	if err = fr.drain(fn); err != nil {
		return err
	}
	for fr.rc == nil {
		n, rerr := fr.c.Read(fr.space())
		fr.w += n
		if err = fr.drain(fn); err != nil {
			return err
		}
		if rerr != nil {
			return rerr
		}
	}
	session := func(fd uintptr) bool {
		for {
			p := fr.space()
			n, rerr := rawRead(int(fd), p)
			switch {
			case rerr == syscall.EINTR:
				continue
			case rerr == syscall.EAGAIN:
				return false
			case rerr != nil:
				err = rerr
				return true
			case n == 0:
				err = io.EOF
				return true
			}
			fr.w += n
			if err = fr.drain(fn); err != nil || n == len(p) {
				return true // a full read: read again, in a new RawConn.Read, where a Close is noticed
			}
			if !fr.probing {
				fr.probing = true
				fr.c.SetReadDeadline(time.Now().Add(fr.probe)) // fails only on a closed socket, as will the wait
			}
			return false
		}
	}
	for {
		werr := fr.rc.Read(session)
		if err != nil {
			return err
		}
		if werr != nil {
			if !errors.Is(werr, os.ErrDeadlineExceeded) {
				return werr
			}
			fr.probing = false
			fr.c.SetReadDeadline(time.Time{})
		}
	}
}

// drain yields every complete record in the buffer.
func (fr *frameReader) drain(fn func(rec []byte) error) error {
	for fr.w-fr.r >= 4 {
		n := binary.BigEndian.Uint32(fr.buf[fr.r:])
		if n > MaxFrameSize {
			return fmt.Errorf("wsrpc: frame of %d bytes exceeds limit", n)
		}
		end := fr.r + 4 + int(n) + fr.trailer
		if end > fr.w {
			break
		}
		rec := fr.buf[fr.r+4 : end]
		fr.r = end
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// space moves the unread bytes to the front and returns the room behind them.
// The buffer is made anew when the frame they begin does not fit, and when it
// is over 1 MiB and under an eighth in use: a giant frame pins nothing.
func (fr *frameReader) space() []byte {
	need := readBufSize
	if fr.w-fr.r >= 4 {
		need = max(need, 4+int(binary.BigEndian.Uint32(fr.buf[fr.r:]))+fr.trailer)
	}
	buf := fr.buf
	if cap(buf) < need || (cap(buf) > 1<<20 && need < cap(buf)/8) {
		buf = make([]byte, 1<<bits.Len(uint(need-1))) // need is readBufSize at least
	}
	if fr.r > 0 || cap(buf) != cap(fr.buf) {
		fr.w = copy(buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	fr.buf = buf
	return buf[fr.w:]
}

// plainConn is the no-security frame transport: 4-byte big-endian length
// prefix followed by the payload. Writes coalesce through a corkedWriter;
// reads are one frameReader session.
type plainConn struct {
	fr frameReader
	cw corkedWriter
}

func newPlainConn(c net.Conn, stats flushStats, stall time.Duration) *plainConn {
	p := &plainConn{}
	p.fr.init(c, 0)
	p.cw.init(c, stats, stall)
	return p
}

func (p *plainConn) ReadFrames(fn func(raw []byte) error) error { return p.fr.run(fn) }

func (p *plainConn) WriteEnvelope(kind frameKind, seq uint64, method, errStr string, meta envMeta, body frameBody) (int, error) {
	buf, now, err := p.cw.beginFrame(meta.now)
	if err != nil {
		return 0, err
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length prefix, backfilled below
	buf = appendFrame(buf, kind, seq, method, errStr, meta, body)
	n := len(buf) - start - 4
	if n > MaxFrameSize {
		p.cw.cancel(buf[:start])
		return 0, fmt.Errorf("wsrpc: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return n, p.cw.endFrame(buf, now)
}

func (p *plainConn) WriteFrame(b []byte) error {
	if len(b) > MaxFrameSize {
		return fmt.Errorf("wsrpc: frame of %d bytes exceeds limit", len(b))
	}
	buf, now, err := p.cw.beginFrame(time.Time{})
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, b...)
	return p.cw.endFrame(buf, now)
}

func (p *plainConn) Close() error { return p.cw.close() }

// encodeFrame marshals a frame envelope through encoding/json — the
// reference encoding that WriteEnvelope's appendFrame must stay
// decode-equivalent with (the property tests compare the two).
func encodeFrame(f *frame) ([]byte, error) {
	b, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("wsrpc: marshal frame: %w", err)
	}
	return b, nil
}

// decodeFrame unmarshals a frame envelope. The input may be a reused read
// buffer: json.RawMessage's UnmarshalJSON copies the body bytes, so the
// returned frame does not alias b.
func decodeFrame(b []byte) (*frame, error) {
	var f frame
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("wsrpc: unmarshal frame: %w", err)
	}
	if f.Kind < kindCall || f.Kind > kindNotify {
		return nil, fmt.Errorf("wsrpc: invalid frame kind %d", f.Kind)
	}
	return &f, nil
}
