// Package wsrpc is the communication substrate of the Falkon reproduction.
// The paper's components exchange Web Services (SOAP over GT4) messages plus
// a custom TCP notification protocol; this package replaces both with
// length-prefixed JSON frames over TCP, preserving the properties the
// evaluation depends on: per-message cost, request/response call semantics,
// server-initiated notifications (the "push" half of the hybrid model), and
// an optional security profile that authenticates and encrypts every frame
// (standing in for GSISecureConversation).
package wsrpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
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
// the write path without widening every call site to nine parameters.
type envMeta struct {
	trace, parent  uint64
	recvNS, sendNS int64
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
//
// ReadFrame returns a buffer owned by the connection, valid only until the
// next ReadFrame; callers that keep payload bytes past that point must copy
// (decodeFrame's json.RawMessage copy satisfies this).
type frameConn interface {
	ReadFrame() ([]byte, error)
	// WriteEnvelope encodes a frame envelope, body included, straight into
	// the connection's corked write buffer — the fast path. It returns the
	// envelope's encoded size for byte accounting.
	WriteEnvelope(kind frameKind, seq uint64, method, errStr string, meta envMeta, body frameBody) (int, error)
	// WriteFrame sends an already-encoded payload verbatim (compat/test
	// path; the fast path is WriteEnvelope).
	WriteFrame(p []byte) error
	Close() error
}

// plainConn is the no-security frame transport: 4-byte big-endian length
// prefix followed by the payload. Writes coalesce through a corkedWriter;
// reads reuse a per-connection scratch buffer.
type plainConn struct {
	r    *bufio.Reader
	rbuf []byte
	hdr  [4]byte // read-side length prefix scratch (avoids an escape per frame)
	cw   corkedWriter
}

func newPlainConn(c net.Conn, stats flushStats, stall time.Duration) *plainConn {
	p := &plainConn{r: bufio.NewReaderSize(c, 64<<10)}
	p.cw.init(c, stats, stall)
	return p
}

func (p *plainConn) ReadFrame() ([]byte, error) {
	if _, err := io.ReadFull(p.r, p.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(p.hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wsrpc: frame of %d bytes exceeds limit", n)
	}
	p.rbuf = growScratch(p.rbuf, int(n))
	if _, err := io.ReadFull(p.r, p.rbuf); err != nil {
		return nil, err
	}
	return p.rbuf, nil
}

func (p *plainConn) WriteEnvelope(kind frameKind, seq uint64, method, errStr string, meta envMeta, body frameBody) (int, error) {
	buf, err := p.cw.beginFrame()
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
	return n, p.cw.endFrame(buf)
}

func (p *plainConn) WriteFrame(b []byte) error {
	if len(b) > MaxFrameSize {
		return fmt.Errorf("wsrpc: frame of %d bytes exceeds limit", len(b))
	}
	buf, err := p.cw.beginFrame()
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, b...)
	return p.cw.endFrame(buf)
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
