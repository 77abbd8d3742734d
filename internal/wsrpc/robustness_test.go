package wsrpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"testing/quick"
	"time"
)

// Property: decodeFrame never panics and never returns a frame with an
// invalid kind, whatever bytes arrive.
func TestDecodeFrameRobustness(t *testing.T) {
	prop := func(raw []byte) bool {
		f, err := decodeFrame(raw)
		if err != nil {
			return f == nil
		}
		return f.Kind >= kindCall && f.Kind <= kindNotify
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: frame envelopes round-trip through encode/decode.
func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(seq uint64, method string, body []byte) bool {
		in := &frame{Kind: kindCall, Seq: seq, Method: method}
		if len(body) > 0 {
			b, err := json.Marshal(string(body))
			if err != nil {
				return false
			}
			in.Body = b
		}
		raw, err := encodeFrame(in)
		if err != nil {
			return false
		}
		out, err := decodeFrame(raw)
		if err != nil {
			return false
		}
		return out.Kind == in.Kind && out.Seq == in.Seq && out.Method == in.Method
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A server must survive garbage bytes on a fresh connection: the offending
// connection drops, others keep working.
func TestServerSurvivesGarbageConnection(t *testing.T) {
	s := startEcho(t, ServerOptions{Logf: func(string, ...any) {}})

	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A plausible length prefix followed by junk that is not JSON.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 16)
	raw.Write(hdr[:])
	raw.Write([]byte("this is not json"))
	// Server should close the connection.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server kept a garbage connection open with data")
	}
	raw.Close()

	// A healthy client still works.
	c, err := Dial(s.Addr(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got string
	if err := c.Call("echo", "still alive", &got); err != nil || got != "still alive" {
		t.Fatalf("call after garbage: %q, %v", got, err)
	}
}

// An oversized length prefix must be rejected, not allocated.
func TestServerRejectsHugeLengthPrefix(t *testing.T) {
	s := startEcho(t, ServerOptions{Logf: func(string, ...any) {}})
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<31)
	raw.Write(hdr[:])
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server accepted a 2 GiB frame header")
	}
}

// Flipping ciphertext bits must fail authentication, not decode garbage.
func TestSecureFrameTamperDetected(t *testing.T) {
	psk := []byte("tamper-test-key")
	// Build a raw secure pipe: server side on a listener, client direct.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		fc  frameConn
		err error
	}
	srvc := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvc <- res{nil, err}
			return
		}
		fc, err := newSecureConn(c, psk, false, flushStats{}, handshakeTimeout, writeStall)
		srvc <- res{fc, err}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Tampering man-in-the-middle: wrap the client conn to flip a bit in
	// the first data frame after the handshake.
	tc := &tamperConn{Conn: cc, skip: 32 + 32} // nonce + proof pass through
	cli, err := newSecureConn(tc, psk, true, flushStats{}, handshakeTimeout, writeStall)
	if err != nil {
		t.Fatal(err)
	}
	sr := <-srvc
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	tc.arm() // start tampering now that the handshake is done
	if err := cli.WriteFrame([]byte("sensitive payload")); err != nil {
		t.Fatal(err)
	}
	err = sr.fc.ReadFrames(func([]byte) error { return nil })
	if !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered frame error = %v, want ErrBadMAC", err)
	}
}

// tamperConn flips one bit of the first write after arm().
type tamperConn struct {
	net.Conn
	skip    int
	armed   bool
	flipped bool
}

func (c *tamperConn) arm() { c.armed = true }

func (c *tamperConn) Write(p []byte) (int, error) {
	if c.armed && !c.flipped && len(p) > 6 {
		q := make([]byte, len(p))
		copy(q, p)
		q[5] ^= 0x40 // flip a ciphertext bit past the length prefix
		c.flipped = true
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

var _ io.Writer = (*tamperConn)(nil)

// A peer that starts the secure handshake and stalls must not pin the
// server: the handshake deadline closes the connection, the goroutine that
// owned it exits, and Close (which waits for every connection goroutine)
// returns.
func TestSecureHandshakeStallReleasesServer(t *testing.T) {
	s := NewServer(ServerOptions{Security: SecuritySecureConversation, PSK: []byte("k"), Logf: func(string, ...any) {}})
	s.handshake = 200 * time.Millisecond
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{1, 2, 3}); err != nil { // a nonce is 32 bytes
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server did not hang up on a stalled handshake: read err = %v", err)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close still waits on the stalled connection's goroutine")
	}
}

// The initiating side is bounded too: a listener that accepts and says
// nothing fails the handshake instead of hanging the dial.
func TestSecureHandshakeStallFailsClient(t *testing.T) {
	cc, sc := net.Pipe()
	defer sc.Close()
	go io.Copy(io.Discard, sc) // swallow the client's nonce, answer nothing
	start := time.Now()
	_, err := newFrameConn(cc, SecuritySecureConversation, []byte("k"), true, flushStats{}, 200*time.Millisecond, writeStall)
	if !errors.Is(err, errHandshake) || time.Since(start) > 5*time.Second {
		t.Fatalf("handshake against a silent peer: err = %v after %v", err, time.Since(start))
	}
}

// After a handshake the deadline is gone: an idle secured connection
// outlives it.
func TestSecureHandshakeDeadlineCleared(t *testing.T) {
	s := NewServer(ServerOptions{Security: SecuritySecureConversation, PSK: []byte("k"), Logf: t.Logf})
	s.handshake = 100 * time.Millisecond
	s.Register("echo", func(_ *Peer, body json.RawMessage) (any, error) { return body, nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr(), ClientOptions{Security: SecuritySecureConversation, PSK: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	time.Sleep(3 * s.handshake)
	var out string
	if err := c.Call("echo", "still here", &out); err != nil || out != "still here" {
		t.Fatalf("call after the handshake deadline passed: %q, %v", out, err)
	}
}

// The write-stall rule on a bare connection, against a peer that never
// reads: the write fails after at least half the bound and about the whole of
// it, the socket is closed under the peer, and the failure is sticky. The
// half matters after an idle spell, when most of the armed deadline is spent:
// the flusher re-arms rather than let the next write inherit the remainder.
func TestWriteStallFailsAndClosesConn(t *testing.T) {
	const stall = 200 * time.Millisecond
	cc, sc := net.Pipe()
	defer sc.Close()
	p := newPlainConn(cc, flushStats{}, stall)

	read := make(chan struct{})
	go func() { io.ReadFull(sc, make([]byte, 5)); close(read) }()
	if err := p.WriteFrame([]byte("a")); err != nil { // arms the deadline
		t.Fatal(err)
	}
	<-read
	time.Sleep(stall * 3 / 5) // under half is left

	start := time.Now()
	err := p.WriteFrame([]byte("b"))
	if el := time.Since(start); !errors.Is(err, os.ErrDeadlineExceeded) || el < stall/2 || el > 10*stall {
		t.Fatalf("write to a peer that never reads: err = %v after %v, want a deadline error within [%v, %v]", err, el, stall/2, stall)
	}
	sc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := sc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled connection not closed: peer's read err = %v", err)
	}
	if err := p.WriteFrame([]byte("c")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write after the stall: err = %v, want the sticky failure", err)
	}
}

// A peer that takes bytes slowly is not stalled: a frame that needs several
// deadlines' worth of time still goes out whole.
func TestWriteStallToleratesSlowReader(t *testing.T) {
	const stall = 100 * time.Millisecond
	cc, sc := net.Pipe()
	defer sc.Close()
	p := newPlainConn(cc, flushStats{}, stall)
	payload := make([]byte, 4<<10)
	got := make(chan int)
	go func() {
		n, chunk := 0, make([]byte, 256)
		for n < 4+len(payload) {
			time.Sleep(stall / 4)
			m, err := sc.Read(chunk)
			if err != nil {
				break
			}
			n += m
		}
		got <- n
	}()
	if err := p.WriteFrame(payload); err != nil {
		t.Fatalf("write to a slow reader: %v", err)
	}
	if n := <-got; n != 4+len(payload) {
		t.Fatalf("slow reader received %d of %d bytes", n, 4+len(payload))
	}
}

// The overload case the rule exists for: a peer that connects and then never
// reads, while several writers push at it (as many Deliver handlers pushing
// results at one client). The first to find the socket full sits in the
// write as flusher, the rest park on the full cork buffer; every one of them
// must come back with the error, the server must run its disconnect
// handling for the peer, and a healthy peer must be served throughout.
func TestWriteStallDropsNeverReadingPeer(t *testing.T) {
	s := NewServer(ServerOptions{Logf: t.Logf})
	s.writeStall = 300 * time.Millisecond
	peers := make(chan *Peer, 2)
	s.RegisterFast("hello", func(p *Peer, _ json.RawMessage) (any, error) { peers <- p; return nil, nil })
	dropped := make(chan *Peer, 2)
	s.OnDisconnect(func(p *Peer) { dropped <- p })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	hello, err := encodeFrame(&frame{Kind: kindCall, Seq: 1, Method: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(hello))), hello...)); err != nil {
		t.Fatal(err)
	}
	stalled := <-peers // and raw reads nothing, ever

	var pings atomic.Int64
	cli, err := Dial(s.Addr(), ClientOptions{OnNotify: func(string, json.RawMessage) { pings.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Call("hello", nil, nil); err != nil {
		t.Fatal(err)
	}
	healthy := <-peers

	const writers = 4
	blob := strings.Repeat("x", 64<<10)
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		go func() {
			for {
				if err := stalled.Notify("blob", blob); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < writers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("writer %d: err = %v, want the write-stall failure", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d writers still wait on the peer that never reads", writers-i, writers)
		}
		// One push to the healthy peer per stalled writer accounted for: the
		// first of them goes out while the others are still parked.
		if err := healthy.Notify("ping", nil); err != nil {
			t.Fatalf("healthy peer: %v", err)
		}
	}
	select {
	case p := <-dropped:
		if p != stalled {
			t.Fatalf("dropped peer %d, want the stalled peer %d", p.ID(), stalled.ID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no disconnect handling for the stalled peer")
	}
	for deadline := time.Now().Add(5 * time.Second); pings.Load() < writers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("healthy peer received %d of %d pushes", pings.Load(), writers)
		}
	}
}

// Only a reset is a disconnect not worth a log line: the server used to take
// every *net.OpError for one, time-outs and bad descriptors included, so the
// only read failure it ever logged was a malformed frame.
func TestIsConnReset(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{syscall.ECONNRESET, true}, // as a raw read session reports it
		{syscall.EPIPE, true},
		{&net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.ECONNRESET)}, true},
		{&net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}, false},
		{&net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.EBADF)}, false},
		{syscall.EBADF, false},
		{io.ErrUnexpectedEOF, false},
	} {
		if got := isConnReset(tc.err); got != tc.want {
			t.Errorf("isConnReset(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// failingReads wraps every accepted connection so that its first read fails
// with err (ConnFaults, the chaos seam).
type failingReads struct{ err error }

func (f failingReads) DupNotify() bool { return false }
func (f failingReads) WrapConn(c net.Conn) net.Conn {
	return failingConn{Conn: c, err: f.err}
}

type failingConn struct {
	net.Conn
	err error
}

func (c failingConn) Read([]byte) (int, error) { return 0, c.err }

// logLines collects a server's log for a test to read.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logLines) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// A read that fails with anything but a reset or the end of the stream is
// logged, with the peer it failed on.
func TestServerLogsReadFailure(t *testing.T) {
	var log logLines
	s := NewServer(ServerOptions{Logf: log.logf, Faults: failingReads{
		err: &net.OpError{Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.EBADF)},
	}})
	dropped := make(chan struct{}, 1)
	s.OnDisconnect(func(*Peer) { dropped <- struct{}{} })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case <-dropped:
	case <-time.After(5 * time.Second):
		t.Fatal("connection whose read failed was never dropped")
	}
	if log.count("read from") != 1 || log.count("bad file descriptor") != 1 {
		t.Fatalf("log after a failed read = %q, want one line naming it", log.lines)
	}
}

// Frames that are not calls are skipped and said so once per connection, not
// once per frame: a confused peer must not be able to write the log.
func TestServerLogsStrayFramesOnce(t *testing.T) {
	var log logLines
	s := NewServer(ServerOptions{Logf: log.logf})
	s.RegisterFast("echo", func(_ *Peer, body json.RawMessage) (any, error) { return body, nil })
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for conn := 1; conn <= 2; conn++ {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wire []byte
		for i := 0; i < 50; i++ {
			stray, _ := encodeFrame(&frame{Kind: kindReply, Seq: uint64(i)})
			wire = append(binary.BigEndian.AppendUint32(wire, uint32(len(stray))), stray...)
		}
		call, _ := encodeFrame(&frame{Kind: kindCall, Seq: 7, Method: "echo", Body: json.RawMessage(`"still served"`)})
		wire = append(binary.BigEndian.AppendUint32(wire, uint32(len(call))), call...)
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := legacyReadFrame(c)
		if err != nil || reply.Seq != 7 || string(reply.Body) != `"still served"` {
			t.Fatalf("call behind 50 stray frames: reply %+v, err %v", reply, err)
		}
		if n := log.count("unexpected frame kind"); n != conn {
			t.Fatalf("%d log lines for stray frames after %d connections of 50 each, want one per connection:\n%q", n, conn, log.lines)
		}
	}
}
