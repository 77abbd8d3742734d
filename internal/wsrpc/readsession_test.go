//go:build linux

package wsrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// portable hides a connection's descriptor, as a fault-injecting wrapper
// does, so its frames are read by the portable filler. It counts the reads
// that return bytes.
type portable struct {
	net.Conn
	reads *atomic.Int64
}

func (c portable) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// steppedConn cuts every write into pieces of step bytes (0: whole) and lets
// each be read before it sends the next: how a test decides where the
// reader's reads end.
type steppedConn struct {
	net.Conn
	step   atomic.Int64
	reader net.Conn // the far end, for unread
}

func (c *steppedConn) Write(p []byte) (int, error) {
	step := int(c.step.Load())
	if step == 0 {
		return c.Conn.Write(p)
	}
	for off := 0; off < len(p); off += step {
		if _, err := c.Conn.Write(p[off:min(off+step, len(p))]); err != nil {
			return off, err
		}
		for unread(c.reader) > 0 {
			runtime.Gosched()
		}
	}
	return len(p), nil
}

// unread is how many bytes sit in c's socket that no read has taken.
func unread(c net.Conn) int {
	rc, err := c.(syscall.Conn).SyscallConn()
	if err != nil {
		return 0
	}
	var n int32
	rc.Control(func(fd uintptr) {
		syscall.Syscall(syscall.SYS_IOCTL, fd, syscall.TIOCINQ, uintptr(unsafe.Pointer(&n)))
	})
	return int(n)
}

// sessionPair is a writing frameConn and the frameConn that reads it, over
// loopback TCP, with the writer's raw connection for bytes no frameConn would
// send. raw picks the reader's filler; reads counts the portable filler's
// reads that returned bytes.
type sessionPair struct {
	w, r  frameConn
	wire  *steppedConn
	reads atomic.Int64
}

func newSessionPair(t *testing.T, profile SecurityProfile, raw bool) *sessionPair {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	psk := []byte("session-test-key")
	sp := &sessionPair{}
	type res struct {
		fc  frameConn
		err error
	}
	acc := make(chan res, 1)
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acc <- res{err: err}
			return
		}
		accepted <- c
		rc := c
		if !raw {
			rc = portable{c, &sp.reads}
		}
		fc, err := newFrameConn(rc, profile, psk, false, flushStats{}, handshakeTimeout, writeStall)
		acc <- res{fc, err}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sp.wire = &steppedConn{Conn: cc, reader: <-accepted}
	if sp.w, err = newFrameConn(sp.wire, profile, psk, true, flushStats{}, handshakeTimeout, writeStall); err != nil {
		t.Fatal(err)
	}
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	sp.r = a.fc
	t.Cleanup(func() { sp.w.Close(); a.fc.Close() })
	return sp
}

// countRawReads counts in n, until the test ends, the raw filler's read(2)s
// that return bytes. It swaps the filler's read for its own, so it is called
// before the test makes a connection and while nothing else reads.
func countRawReads(t *testing.T, n *atomic.Int64) {
	read := rawRead
	rawRead = func(fd int, p []byte) (int, error) {
		k, err := read(fd, p)
		if k > 0 {
			n.Add(1)
		}
		return k, err
	}
	t.Cleanup(func() { rawRead = read })
}

// reader returns the frameReader under a frameConn.
func readerOf(fc frameConn) *frameReader {
	switch c := fc.(type) {
	case *plainConn:
		return &c.fr
	case *secureConn:
		return &c.fr
	}
	panic("unknown frameConn")
}

// collect reads want frames from fc and returns copies of them.
func collect(t *testing.T, fc frameConn, want int) [][]byte {
	t.Helper()
	var got [][]byte
	err := fc.ReadFrames(func(raw []byte) error {
		got = append(got, bytes.Clone(raw))
		if len(got) == want {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("after %d of %d frames: %v", len(got), want, err)
	}
	return got
}

// send writes p as the body of a frame through WriteEnvelope, the one way the
// product writes a frame.
func send(fc frameConn, p []byte) error {
	_, err := fc.WriteEnvelope(kindCall, 0, "", "", envMeta{}, frameBody{raw: p})
	return err
}

// framed is the frames send writes of ps, as a reader is handed them.
func framed(ps ...[]byte) [][]byte {
	out := make([][]byte, len(ps))
	for i, p := range ps {
		out[i] = appendFrame(nil, kindCall, 0, "", "", envMeta{}, frameBody{raw: p})
	}
	return out
}

func payloads(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%06d:%s", i, strings.Repeat("x", size)))
	}
	return out
}

func sameFrames(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d = %.40q (%d bytes), want %.40q (%d bytes)", i, got[i], len(got[i]), want[i], len(want[i]))
		}
	}
}

// The read session over both fillers and both profiles: however the stream is
// cut into reads, the frames that went in come out, the buffer grows by
// doubling with the bursts it is handed and goes back to its first size after
// a giant frame, and what cannot be a frame ends the session.
func TestReadSession(t *testing.T) {
	for _, filler := range []string{"raw", "portable"} {
		for _, profile := range []SecurityProfile{SecurityNone, SecuritySecureConversation} {
			pair := func(t *testing.T) *sessionPair { return newSessionPair(t, profile, filler == "raw") }
			name := filler + "/" + profile.String()

			t.Run(name+"/split-at-every-byte", func(t *testing.T) {
				p := pair(t)
				sent := payloads(5, 40)
				sent = append(sent, []byte{}) // a frame without a body is a frame too
				for step := int64(1); step <= 7; step += 2 {
					p.wire.step.Store(step)
					go func() {
						for _, b := range sent {
							send(p.w, b)
						}
					}()
					sameFrames(t, collect(t, p.r, len(sent)), framed(sent...))
				}
			})

			t.Run(name+"/many-frames-in-one-read", func(t *testing.T) {
				p := pair(t)
				want := framed(payloads(300, 20)...)
				for _, b := range payloads(300, 20) {
					if err := send(p.w, b); err != nil {
						t.Fatal(err)
					}
				}
				for unread(p.wire.reader) < 300*(4+len(want[0])) { // all of it waits in the socket
					runtime.Gosched()
				}
				sameFrames(t, collect(t, p.r, len(want)), want)
			})

			t.Run(name+"/burst-grows-the-buffer", func(t *testing.T) {
				var rawReads atomic.Int64
				if filler == "raw" {
					countRawReads(t, &rawReads)
				}
				p := pair(t)
				fr, reads := readerOf(p.r), &p.reads
				if filler == "raw" {
					reads = &rawReads
				}
				// burst writes n frames of 107 bytes and waits until all of them
				// sit in the reader's socket: how many reads take them is the
				// buffer's doing.
				envelope := len(framed([]byte("0"))[0]) - 1 // what a frame adds to its body
				burst := func(n int) [][]byte {
					sent := payloads(n, 100-envelope)
					want := framed(sent...)
					size := 0
					for i, b := range sent {
						if err := send(p.w, b); err != nil {
							t.Fatal(err)
						}
						size += 4 + len(want[i]) + fr.trailer
					}
					for unread(p.wire.reader) < size {
						runtime.Gosched()
					}
					reads.Store(0)
					return want
				}
				// 33–43 KB: reads of 4, 8 and 16 KiB each fill the buffer and
				// double it; a fourth, into 32 KiB, takes the rest.
				want := burst(300)
				sameFrames(t, collect(t, p.r, len(want)), want)
				if n, c := reads.Load(), cap(fr.buf); n != 4 || c != 32<<10 {
					t.Fatalf("a burst of %d frames took %d reads and left a %d-byte buffer, want 4 and %d", len(want), n, c, 32<<10)
				}
				// A burst the grown buffer holds is one read.
				want = burst(200)
				sameFrames(t, collect(t, p.r, len(want)), want)
				if n, c := reads.Load(), cap(fr.buf); n != 1 || c != 32<<10 {
					t.Fatalf("a burst of %d frames took %d reads and left a %d-byte buffer, want 1 and %d", len(want), n, c, 32<<10)
				}
				// However long the stream, doubling stops at readBufGrown.
				sent := payloads(3000, 100)
				go func() {
					for _, b := range sent {
						send(p.w, b)
					}
				}()
				want = framed(sent...)
				sameFrames(t, collect(t, p.r, len(want)), want)
				if c := cap(fr.buf); c > readBufGrown {
					t.Fatalf("read buffer grew to %d bytes on frames of %d, want at most %d", c, len(want[0]), readBufGrown)
				}
			})

			t.Run(name+"/large-frame-then-small", func(t *testing.T) {
				p := pair(t)
				big := bytes.Repeat([]byte("0123456789abcdef"), 3<<20/16) // 3 MiB: past the buffer, past the shrink rule's 1 MiB
				sent := append([][]byte{[]byte(`"before"`), big}, payloads(3, 10)...)
				go func() {
					for _, b := range sent {
						send(p.w, b)
					}
				}()
				sameFrames(t, collect(t, p.r, len(sent)), framed(sent...))
				// The next fill finds a buffer of 4 MiB with nothing to hold.
				go send(p.w, []byte(`"after"`))
				sameFrames(t, collect(t, p.r, 1), framed([]byte(`"after"`)))
				if c := cap(readerOf(p.r).buf); c != readBufSize {
					t.Fatalf("read buffer is %d bytes after a large frame has gone, want %d", c, readBufSize)
				}
			})

			t.Run(name+"/oversized-frame-refused", func(t *testing.T) {
				p := pair(t)
				if _, err := p.wire.Conn.Write(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)); err != nil {
					t.Fatal(err)
				}
				err := p.r.ReadFrames(func([]byte) error { return nil })
				if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
					t.Fatalf("frame over MaxFrameSize: err = %v", err)
				}
				if c := cap(readerOf(p.r).buf); c > readBufSize {
					t.Fatalf("a refused length grew the buffer to %d bytes", c)
				}
			})

			t.Run(name+"/eof-mid-frame", func(t *testing.T) {
				p := pair(t)
				if err := send(p.w, []byte(`"whole"`)); err != nil {
					t.Fatal(err)
				}
				if _, err := p.wire.Conn.Write([]byte{0, 0, 1, 0, 'p', 'a', 'r', 't'}); err != nil {
					t.Fatal(err)
				}
				p.wire.Conn.Close()
				n := 0
				err := p.r.ReadFrames(func([]byte) error { n++; return nil })
				if n != 1 || err != io.ErrUnexpectedEOF {
					t.Fatalf("stream cut inside a frame: %d frames, err = %v, want 1 and unexpected EOF", n, err)
				}
			})

			t.Run(name+"/eof", func(t *testing.T) {
				p := pair(t)
				if err := send(p.w, []byte(`"last words"`)); err != nil {
					t.Fatal(err)
				}
				p.wire.Conn.Close()
				n := 0
				err := p.r.ReadFrames(func([]byte) error { n++; return nil })
				if n != 1 || err != io.EOF {
					t.Fatalf("stream closed between frames: %d frames, err = %v, want 1 and EOF", n, err)
				}
			})
		}
	}
}

// A peer's last frame and its FIN can reach the poller as one event: the read
// that takes the frame comes back short, and nothing will ever announce the
// FIN. Every one of these sessions is parked when its peer writes and closes;
// each must still see the end, within the session's probe of a short read.
// (With the short-read rule alone about a third of them wait for ever on two
// Ps, and all of them on one.)
func TestSessionSeesEOFBehindData(t *testing.T) {
	const conns = 32
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		p := newSessionPair(t, SecurityNone, true)
		done := make(chan error, 1)
		go func() { done <- p.r.ReadFrames(func([]byte) error { return nil }) }()
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(5 * time.Millisecond) // the session parks
			send(p.w, []byte(`"goodbye"`))
			p.wire.Conn.Close()
			select {
			case err := <-done:
				if err != io.EOF {
					t.Errorf("session ended with %v, want EOF", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("session never saw its peer's FIN")
			}
		}()
	}
	wg.Wait()
}

// The lost wake-up the session form exists to exclude. Two sessions play
// ping-pong, one frame in flight, and each yields the processor between its
// short read and its wait — long enough for the other side's answer to arrive
// and for the poller to harvest that readiness. A session that waits inside
// the RawConn.Read that saw the short read finds the readiness there; one
// that starts a new RawConn.Read to wait in has had it reset, and sleeps on a
// socket with data in it. The probe is put out of reach, so such a sleep is a
// stall and not a slow round.
func TestSessionLosesNoWakeup(t *testing.T) {
	rounds := 100_000
	if testing.Short() {
		rounds = 10_000
	}
	p := newSessionPair(t, SecurityNone, true)
	// The far end of p.r's socket is p.w's; p.w reads what p.r writes.
	readerOf(p.w).probe, readerOf(p.r).probe = time.Hour, time.Hour
	var n atomic.Int64
	done := make(chan error, 2)
	pong := func(self frameConn) func([]byte) error {
		return func([]byte) error {
			if n.Add(1) >= int64(rounds) {
				return errStop
			}
			if err := send(self, []byte(`"ball"`)); err != nil {
				return err
			}
			runtime.Gosched()
			runtime.Gosched()
			return nil
		}
	}
	go func() { done <- p.r.ReadFrames(pong(p.r)) }()
	go func() { done <- p.w.ReadFrames(pong(p.w)) }()
	if err := send(p.w, []byte(`"ball"`)); err != nil {
		t.Fatal(err)
	}
	watchdog := time.NewTimer(2 * time.Minute)
	defer watchdog.Stop()
	for last := int64(0); ; {
		select {
		case err := <-done:
			if err != errStop {
				t.Fatalf("after %d rounds: %v", n.Load(), err)
			}
			return
		case <-time.After(5 * time.Second):
			if now := n.Load(); now == last {
				t.Fatalf("stalled after %d of %d rounds: a session sleeps on a socket that has data", now, rounds)
			} else {
				last = now
			}
		case <-watchdog.C:
			t.Fatalf("%d of %d rounds in two minutes", n.Load(), rounds)
		}
	}
}

// Closing a connection never waits for its read session, which is held for as
// long as a handler runs inside it: a handler may close the connection it is
// serving, and anyone may close one whose handler is blocked. (With Close
// waiting for the descriptor's read lock, the first never returns and the
// second returns only when the handler does.)
func TestCloseDoesNotWaitForTheSession(t *testing.T) {
	s := NewServer(ServerOptions{Logf: t.Logf})
	s.RegisterFast("hang-up", func(p *Peer, _ json.RawMessage) (any, error) {
		return nil, p.Close()
	})
	entered, release := make(chan *Peer), make(chan struct{})
	s.RegisterFast("block", func(p *Peer, _ json.RawMessage) (any, error) {
		entered <- p
		<-release
		return nil, nil
	})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sawEOF := func(t *testing.T, c *Client) {
		t.Helper()
		select {
		case <-c.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("the peer of a closed connection never saw it end")
		}
	}

	t.Run("from-inside-an-inline-handler", func(t *testing.T) {
		c, err := Dial(s.Addr(), ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Call("hang-up", nil, nil); err == nil {
			t.Fatal("call whose handler closed the connection was answered")
		}
		sawEOF(t, c)
	})

	t.Run("while-a-handler-blocks", func(t *testing.T) {
		c, err := Dial(s.Addr(), ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go c.Call("block", nil, nil)
		peer := <-entered
		closed := make(chan struct{})
		go func() { peer.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close waits for the handler inside the read session")
		}
		close(release)
		sawEOF(t, c)
	})
}
