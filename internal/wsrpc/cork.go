package wsrpc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"falkon/internal/jsonwire"
	"falkon/internal/obs"
)

// flushStats instruments the corked write path. Both sides of a connection
// report into the owning component's registry: flushes counts socket writes,
// perFlush observes how many frames each write carried (the coalescing
// factor). Instruments are never nil; init defaults missing ones to
// unregistered instances so the hot path takes no nil checks.
type flushStats struct {
	flushes  *obs.Counter   // wsrpc_flushes_total
	perFlush *obs.Histogram // wsrpc_frames_per_flush
}

// corkMaxBuffer bounds bytes buffered ahead of the socket. Writers that
// would push the cork buffer past this block until the flusher drains,
// preserving the backpressure a direct socket write used to provide.
const corkMaxBuffer = 4 << 20

// corkRetainBuffer caps the capacity a drained cork buffer keeps between
// flushes, so one burst of large frames does not pin memory forever.
const corkRetainBuffer = 1 << 20

// writeStall bounds how long a connection may take no bytes while frames
// wait for it: past it the connection is failed and closed, so neither a
// writer parked on a full cork buffer nor the flusher inside the socket
// write waits on a wedged peer for ever.
const writeStall = 10 * time.Second

// corkedWriter coalesces frame writes into single socket writes. Writers
// append complete wire frames to buf under mu (beginFrame/endFrame); the
// first writer to find no flush in progress becomes the flusher and loops —
// swapping buf for a spare, releasing mu, and issuing one Write for
// everything accumulated. Frames appended by other writers while that
// syscall is in flight ride the next iteration's single Write, so
// back-to-back pushes to one peer coalesce without any flush timer: a lone
// frame still hits the wire immediately (the writer itself flushes inline),
// which keeps call latency identical to the old flush-per-frame path.
type corkedWriter struct {
	c     net.Conn
	stats flushStats
	stall time.Duration // writeStall; a field so a test need not wait it out
	// deadline is the write deadline armed on c. Only the flusher touches it,
	// and the flusher role changes hands under mu.
	deadline time.Time

	mu       sync.Mutex
	room     *sync.Cond // signals drain below corkMaxBuffer (and errors)
	buf      []byte     // frames accumulated since the last swap
	spare    []byte     // buffer handed to writers while a flush is in flight
	frames   int64      // frames in buf
	flushing bool       // a flusher owns the socket
	err      error      // first write error; sticky
}

// init prepares the writer. Nil stats instruments are replaced with
// unregistered ones.
func (cw *corkedWriter) init(c net.Conn, stats flushStats, stall time.Duration) {
	if stats.flushes == nil {
		stats.flushes = &obs.Counter{}
	}
	if stats.perFlush == nil {
		stats.perFlush = &obs.Histogram{}
	}
	cw.c = c
	cw.stats = stats
	cw.stall = stall
	cw.room = sync.NewCond(&cw.mu)
	cw.buf = make([]byte, 0, 16<<10)
	cw.spare = make([]byte, 0, 16<<10)
}

// beginFrame blocks until there is room in the cork buffer, then returns it
// with mu held. Callers append exactly one complete wire frame and pass the
// result to endFrame (or cancel on encode failure). The append runs under
// mu, which is what serializes stateful per-frame work (cipher streams, MAC
// counters) with frame order. now is the caller's reading of the clock for
// endFrame, handed back zero if the wait for room has made it stale.
func (cw *corkedWriter) beginFrame(now time.Time) ([]byte, time.Time, error) {
	cw.mu.Lock()
	for cw.err == nil && len(cw.buf) >= corkMaxBuffer {
		cw.room.Wait()
		now = time.Time{}
	}
	if cw.err != nil {
		cw.mu.Unlock()
		return nil, now, cw.err
	}
	return cw.buf, now, nil
}

// cancel abandons an in-progress frame, restoring the buffer to its
// beginFrame state and releasing mu.
func (cw *corkedWriter) cancel(restore []byte) {
	cw.buf = restore
	cw.mu.Unlock()
}

// endFrame commits a frame appended after beginFrame and flushes: if a
// flusher is already running the frame simply rides its next iteration;
// otherwise the caller becomes the flusher and drains the buffer, releasing
// mu around each Write so concurrent writers keep appending into the spare.
// now is a clock reading taken just before beginFrame, or zero: the first
// Write's stall check uses it.
func (cw *corkedWriter) endFrame(buf []byte, now time.Time) error {
	cw.buf = buf
	cw.frames++
	if cw.flushing {
		cw.mu.Unlock()
		return nil
	}
	cw.flushing = true
	for cw.err == nil && len(cw.buf) > 0 {
		out, n := cw.buf, cw.frames
		cw.buf, cw.frames = cw.spare[:0], 0
		cw.mu.Unlock()
		werr := cw.write(out, now)
		now = time.Time{}
		cw.stats.flushes.Inc()
		cw.stats.perFlush.Observe(float64(n))
		if cap(out) > corkRetainBuffer {
			out = make([]byte, 0, 16<<10)
		}
		cw.mu.Lock()
		cw.spare = out[:0]
		if werr != nil && cw.err == nil {
			// Closing ends the read session, whose owner then runs its disconnect
			// handling: a peer that merely stopped reading would otherwise never
			// be noticed. The error is recorded first, or that teardown's plain
			// "closed" could get in ahead and mask the cause.
			cw.err = werr
			go cw.c.Close() // as in close: this writer may be a handler inside the session
		}
		cw.room.Broadcast()
	}
	cw.flushing = false
	err := cw.err
	cw.mu.Unlock()
	return err
}

// write sends out under the write-stall rule. The socket's write deadline is
// kept between stall/2 and stall ahead, re-armed only once less than half
// remains, so a busy connection pays a SetWriteDeadline every stall/2 and
// reads the clock only where its caller had no reading to pass (now is zero:
// a Notify, a flusher's second Write, a retry). A Write that times out having
// moved no byte is the stall; one that moved some re-arms and carries on (the
// peer is slow, not stalled).
func (cw *corkedWriter) write(out []byte, now time.Time) error {
	for {
		if now.IsZero() {
			now = time.Now()
		}
		if cw.deadline.Sub(now) < cw.stall/2 {
			cw.deadline = now.Add(cw.stall)
			cw.c.SetWriteDeadline(cw.deadline) // fails only on a closed socket, and then so does the Write
		}
		now = time.Time{}
		n, err := cw.c.Write(out)
		if err == nil {
			return nil
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			if n > 0 {
				out = out[n:]
				continue
			}
			err = fmt.Errorf("wsrpc: %s took no bytes for over %v: %w", cw.c.RemoteAddr(), cw.stall/2, err)
		}
		return err
	}
}

// close marks the writer broken, waking blocked writers, and has the socket
// closed by a goroutine of its own: net.Conn.Close waits for the read session
// to leave the descriptor, and the caller may be a handler inside it. Its
// first step wakes the session; every write from here on fails on err.
func (cw *corkedWriter) close() error {
	cw.mu.Lock()
	if cw.err == nil { // else a close, or the failed write, has started one
		cw.err = net.ErrClosed
		go cw.c.Close()
	}
	cw.room.Broadcast()
	cw.mu.Unlock()
	return nil
}

// appendFrame appends the JSON wire envelope for one frame to dst. It
// produces exactly the document json.Marshal(frame{...}) would — same field
// order and omitempty rules — without re-marshalling the body: pre-encoded
// bytes are spliced in raw (they must be valid JSON), and a body that
// encodes itself appends straight into dst, which on the write path is the
// cork buffer — no intermediate []byte at all.
func appendFrame(dst []byte, kind frameKind, seq uint64, method, errStr string, meta envMeta, body frameBody) []byte {
	dst = append(dst, `{"k":`...)
	dst = jsonwire.AppendUint(dst, uint64(kind))
	dst = append(dst, `,"seq":`...)
	dst = jsonwire.AppendUint(dst, seq)
	if method != "" {
		dst = append(dst, `,"m":`...)
		dst = jsonwire.AppendString(dst, method)
	}
	if errStr != "" {
		dst = append(dst, `,"e":`...)
		dst = jsonwire.AppendString(dst, errStr)
	}
	if meta.trace != 0 {
		dst = append(dst, `,"tr":`...)
		dst = jsonwire.AppendUint(dst, meta.trace)
	}
	if meta.parent != 0 {
		dst = append(dst, `,"ps":`...)
		dst = jsonwire.AppendUint(dst, meta.parent)
	}
	if meta.recvNS != 0 {
		dst = append(dst, `,"rt":`...)
		dst = jsonwire.AppendInt(dst, meta.recvNS)
	}
	if meta.sendNS != 0 {
		dst = append(dst, `,"st":`...)
		dst = jsonwire.AppendInt(dst, meta.sendNS)
	}
	switch {
	case body.app != nil:
		dst = append(dst, `,"b":`...)
		dst = body.app.AppendJSON(dst)
	case len(body.raw) > 0:
		dst = append(dst, `,"b":`...)
		dst = append(dst, body.raw...)
	}
	return append(dst, '}')
}
