package wsrpc

import (
	"io"
	"net"
	"sync"

	"falkon/internal/jsonwire"
	"falkon/internal/metrics"
)

// flushStats instruments the corked write path. Both sides of a connection
// report into the owning component's registry: flushes counts socket writes,
// perFlush observes how many frames each write carried (the coalescing
// factor). Instruments are never nil; init defaults missing ones to
// unregistered instances so the hot path takes no nil checks.
type flushStats struct {
	flushes  *metrics.Counter        // wsrpc_flushes_total
	perFlush *metrics.FixedHistogram // wsrpc_frames_per_flush
}

// corkMaxBuffer bounds bytes buffered ahead of the socket. Writers that
// would push the cork buffer past this block until the flusher drains,
// preserving the backpressure a direct socket write used to provide.
const corkMaxBuffer = 4 << 20

// corkRetainBuffer caps the capacity a drained cork buffer keeps between
// flushes, so one burst of large frames does not pin memory forever.
const corkRetainBuffer = 1 << 20

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
	w     io.Writer
	stats flushStats

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
func (cw *corkedWriter) init(w io.Writer, stats flushStats) {
	if stats.flushes == nil {
		stats.flushes = &metrics.Counter{}
	}
	if stats.perFlush == nil {
		stats.perFlush = &metrics.FixedHistogram{}
	}
	cw.w = w
	cw.stats = stats
	cw.room = sync.NewCond(&cw.mu)
	cw.buf = make([]byte, 0, 16<<10)
	cw.spare = make([]byte, 0, 16<<10)
}

// beginFrame blocks until there is room in the cork buffer, then returns it
// with mu held. Callers append exactly one complete wire frame and pass the
// result to endFrame (or cancel on encode failure). The append runs under
// mu, which is what serializes stateful per-frame work (cipher streams, MAC
// counters) with frame order.
func (cw *corkedWriter) beginFrame() ([]byte, error) {
	cw.mu.Lock()
	for cw.err == nil && len(cw.buf) >= corkMaxBuffer {
		cw.room.Wait()
	}
	if cw.err != nil {
		cw.mu.Unlock()
		return nil, cw.err
	}
	return cw.buf, nil
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
func (cw *corkedWriter) endFrame(buf []byte) error {
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
		_, werr := cw.w.Write(out)
		cw.stats.flushes.Inc()
		cw.stats.perFlush.Observe(float64(n))
		if cap(out) > corkRetainBuffer {
			out = make([]byte, 0, 16<<10)
		}
		cw.mu.Lock()
		cw.spare = out[:0]
		if werr != nil && cw.err == nil {
			cw.err = werr
		}
		cw.room.Broadcast()
	}
	cw.flushing = false
	err := cw.err
	cw.mu.Unlock()
	return err
}

// fail marks the writer broken (e.g. on Close), waking blocked writers.
func (cw *corkedWriter) fail(err error) {
	if err == nil {
		err = net.ErrClosed
	}
	cw.mu.Lock()
	if cw.err == nil {
		cw.err = err
	}
	cw.room.Broadcast()
	cw.mu.Unlock()
}

// growScratch returns a buffer of length n reusing b's storage when it
// fits. The read path calls this once per frame on a single goroutine, so
// each connection amortizes to zero read allocations; a shrink rule stops a
// one-off giant frame from pinning its buffer forever.
func growScratch(b []byte, n int) []byte {
	if cap(b) >= n && (cap(b) <= 1<<20 || n >= cap(b)/8) {
		return b[:n]
	}
	c := 16 << 10
	for c < n {
		c <<= 1
	}
	return make([]byte, n, c)
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
