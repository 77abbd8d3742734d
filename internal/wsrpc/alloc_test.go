//go:build !race

package wsrpc

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// nopConn is a net.Conn that discards writes and serves reads from a
// repeating pre-recorded frame stream.
type nopConn struct {
	stream []byte // repeated on wrap-around; empty means reads block forever
	off    int
}

func (c *nopConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		select {} // the encode tests never read
	}
	if c.off == len(c.stream) {
		c.off = 0
	}
	n := copy(p, c.stream[c.off:])
	c.off += n
	return n, nil
}

func (c *nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *nopConn) Close() error                     { return nil }
func (c *nopConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *nopConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *nopConn) SetDeadline(time.Time) error      { return nil }
func (c *nopConn) SetReadDeadline(time.Time) error  { return nil }
func (c *nopConn) SetWriteDeadline(time.Time) error { return nil }

// The encode path — envelope construction plus cork commit — must stay
// allocation-free in steady state: it runs twice per task (call + reply) at
// dispatch rates where every object becomes GC pressure.
func TestWriteEnvelopeAllocFree(t *testing.T) {
	p := newPlainConn(&nopConn{}, flushStats{}, writeStall)
	body, _ := json.Marshal("ping")
	meta := envMeta{recvNS: 1700000000000000000, sendNS: 1700000000000000100}
	for i := 0; i < 8; i++ { // warm the cork buffer to steady-state capacity
		if _, err := p.WriteEnvelope(kindCall, uint64(i), "falkon.deliver", "", meta, frameBody{raw: body}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := p.WriteEnvelope(kindCall, 9, "falkon.deliver", "", meta, frameBody{raw: body}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("WriteEnvelope allocates %.1f objects/op, want 0", avg)
	}
	// A body that appends itself goes straight into the (warm) cork buffer.
	self := frameBody{app: &selfCoded{N: 7, Text: "ping"}}
	avg = testing.AllocsPerRun(200, func() {
		if _, err := p.WriteEnvelope(kindCall, 9, "falkon.deliver", "", meta, self); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("WriteEnvelope of a BodyAppender allocates %.1f objects/op, want 0", avg)
	}
}

// The read session reuses one buffer: decode work is the callers' business,
// but framing itself allocates nothing per frame. (This is the portable
// filler; TestSessionAllocFree reads a socket.)
func TestReadFrameAllocFree(t *testing.T) {
	raw := appendFrame(nil, kindCall, 42, "falkon.deliver", "", envMeta{}, frameBody{raw: []byte(`"ping"`)})
	one := append(binary.BigEndian.AppendUint32(nil, uint32(len(raw))), raw...)
	p := newPlainConn(&nopConn{stream: one}, flushStats{}, writeStall)
	const frames = 1000
	n := 0
	fn := func([]byte) error {
		if n++; n%frames == 0 {
			return errStop
		}
		return nil
	}
	p.ReadFrames(fn)
	avg := testing.AllocsPerRun(20, func() {
		if err := p.ReadFrames(fn); err != errStop {
			t.Fatal(err)
		}
	})
	if avg/frames >= 0.01 {
		t.Fatalf("a session allocates %.0f objects over %d frames, want 0 per frame", avg, frames)
	}
}
