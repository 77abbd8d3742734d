package wal

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"falkon/internal/obs"
	"falkon/internal/task"
)

// SyncMode selects when appended records are fsynced.
type SyncMode uint8

const (
	// SyncGroup fsyncs every commit batch: concurrent appenders landing in
	// the same batch share one fsync (group commit), and AppendWait
	// releases only after the sync — full durability.
	SyncGroup SyncMode = iota
	// SyncOff never fsyncs; the OS flushes at its leisure. Survives process
	// crashes (kill -9) but not power loss.
	SyncOff
)

// SyncPolicy is the journal's fsync policy.
type SyncPolicy struct {
	Mode SyncMode
}

// String renders the policy the way ParseSyncPolicy reads it.
func (p SyncPolicy) String() string {
	if p.Mode == SyncOff {
		return "off"
	}
	return "group"
}

// ParseSyncPolicy reads a -journal-sync flag value: "group" (default) or
// "off".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.TrimSpace(s) {
	case "", "group", "always":
		return SyncPolicy{Mode: SyncGroup}, nil
	case "off", "never", "none":
		return SyncPolicy{Mode: SyncOff}, nil
	}
	return SyncPolicy{}, fmt.Errorf("wal: bad sync policy %q (want group or off)", s)
}

// Options configures a Journal.
type Options struct {
	// Sync selects the fsync policy (default group commit).
	Sync SyncPolicy
	// SegmentBytes rotates segments past this size (default 16 MiB).
	SegmentBytes int64
	// Metrics receives the journal's instruments (falkon_wal_*); nil keeps
	// them unregistered.
	Metrics *obs.Registry
	// Logf receives journal logs; nil silences them.
	Logf func(format string, args ...any)
	// FS is the filesystem the journal writes through (default the real
	// OS). Tests and the chaos harness substitute a fault-injecting FS.
	FS FS
	// OnError, when set, is invoked once with the journal's first sticky
	// I/O error, on the goroutine that flushed and after the waiters were
	// released with it. A journal that cannot write is fail-stop: a
	// dispatcher stops itself here and lets recovery replay the intact prefix.
	OnError func(error)
	// Mirror, when set, receives every committed batch of framed records
	// immediately after its write (and fsync, per the sync policy) succeeds
	// and before any AppendWait waiter is released — so a handler that
	// passed its durability barrier can rely on the batch already being
	// visible to the replication stream. Calls are serialized in exact file
	// order (every flush invokes it under the write mutex). The batch
	// aliases an internal buffer and is valid only for the duration of the
	// call; implementations copy what they keep.
	Mirror func(batch []byte)
}

// Handle is one waited append's durability barrier: the number of the commit
// its record goes out in.
type Handle struct {
	j   *Journal
	gen uint64
}

// Wait blocks until the record is committed per the sync policy and
// returns the write error, if any. The zero Handle waits for nothing.
func (h Handle) Wait() error {
	j := h.j
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.committed < h.gen && j.err == nil {
		j.flushed.Wait()
	}
	if j.committed >= h.gen {
		return nil
	}
	return j.err
}

// advisoryBound is how long an advisory record — one nobody waits on — waits
// for a commit to ride: past it the committer writes it alone. Losing that
// tail in a crash only re-runs tasks (DESIGN.md §10). It is a variable so
// that tests can stretch it.
var advisoryBound = 5 * time.Millisecond

// advisoryBytes is the buffered size past which an append wakes the committer
// whether or not anyone waits on it.
const advisoryBytes = 1 << 20

var (
	errClosed  = errors.New("wal: journal closed")
	errAborted = errors.New("wal: aborted")
)

// Journal is a segmented append-only write-ahead log. Appends go to one
// buffer under a short mutex, and a committer goroutine flushes it, so many
// concurrent appends amortize one write+fsync (group commit). Only an append
// someone waits on wakes the committer; an advisory one rides the next such
// commit, or is written once the buffer passes advisoryBytes or advisoryBound
// after it. Every write to a segment is a flush (see flush).
type Journal struct {
	dir  string
	opts Options
	fs   FS

	cAppends *obs.Counter
	cFsyncs  *obs.Counter
	cBytes   *obs.Counter
	gSegs    *obs.Gauge
	hCommit  *obs.Histogram

	// mu guards the append buffer and the lifecycle state: an append takes
	// only mu, never blocking on I/O. Lock order: wmu, then mu.
	mu  sync.Mutex
	buf []byte
	// spare recycles the buffer the last flush wrote, so steady-state
	// appends never grow a fresh array.
	spare []byte
	// gen is the number of the commit the buffered records go out in, and
	// committed the last commit written per the sync policy; flushed is
	// broadcast once a flush is done, written or failed.
	gen       uint64
	committed uint64
	flushed   sync.Cond
	// armed says tail is set to go off for advisory records buffered since
	// it last went off.
	armed  bool
	tail   *time.Timer
	err    error // sticky I/O error: the journal fails closed
	closed bool

	// wmu serializes flushes and guards the segment.
	wmu      sync.Mutex
	seg      File
	segIndex uint64
	segSize  int64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// Appender is the journal under the name benchmark/layers.go still uses
// (ROADMAP item 3 deletes it).
type Appender = Journal

// Appenders returns n (at least 1) references to the journal for
// benchmark/layers.go: whatever they append shares the one buffer and its
// order.
func (j *Journal) Appenders(n int) []*Appender {
	apps := make([]*Appender, max(n, 1))
	for i := range apps {
		apps[i] = j
	}
	return apps
}

const defaultSegmentBytes = 16 << 20

func segName(i uint64) string  { return fmt.Sprintf("seg-%08d.wal", i) }
func snapName(i uint64) string { return fmt.Sprintf("snap-%08d.snap", i) }

// parseIndexed extracts the index from "prefix-XXXXXXXX.ext" names.
func parseIndexed(name, prefix, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(ext)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// open creates a journal appending to a fresh segment numbered next. It is
// called by Recover, which chooses next past every existing segment.
func open(dir string, next uint64, opts Options) (*Journal, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FS == nil {
		opts.FS = OS
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	j := &Journal{
		dir:      dir,
		fs:       opts.FS,
		opts:     opts,
		cAppends: opts.Metrics.Counter("falkon_wal_appends_total"),
		cFsyncs:  opts.Metrics.Counter("falkon_wal_fsyncs_total"),
		cBytes:   opts.Metrics.Counter("falkon_wal_bytes_total"),
		gSegs:    opts.Metrics.Gauge("falkon_wal_segments"),
		hCommit:  opts.Metrics.Histogram("falkon_wal_commit_seconds"),
		gen:      1,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	j.flushed.L = &j.mu
	j.tail = time.AfterFunc(advisoryBound, j.tailDue)
	j.tail.Stop()
	seg, err := j.createSegment(next)
	if err != nil {
		return nil, err
	}
	j.seg, j.segIndex = seg, next
	j.refreshSegGauge()
	go j.run()
	return j, nil
}

func (j *Journal) logf(format string, args ...any) {
	if j.opts.Logf != nil {
		j.opts.Logf(format, args...)
	}
}

func (j *Journal) createSegment(i uint64) (File, error) {
	f, err := j.fs.Create(filepath.Join(j.dir, segName(i)), true)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	return f, nil
}

// Append buffers one advisory record. Its callers hand
// it the cold records (benchmark/layers.go, the per-task kinds too); the
// dispatcher's per-task transitions go through the typed entry points below,
// which box nothing.
func (j *Journal) Append(kind Kind, v any) error {
	_, err := j.append(kind, v, false)
	return err
}

// AppendWait buffers one record and returns a Handle whose Wait releases
// once the record is committed per the sync policy. Used for transitions
// that must be durable before they are acknowledged (instance creation and
// destruction).
func (j *Journal) AppendWait(kind Kind, v any) (Handle, error) {
	return j.append(kind, v, true)
}

func (j *Journal) append(kind Kind, v any, wait bool) (Handle, error) {
	start, err := j.begin(kind)
	if err != nil {
		return Handle{}, err
	}
	if j.buf, err = appendBody(j.buf, kind, v); err != nil {
		j.buf = j.buf[:start]
		j.mu.Unlock()
		return Handle{}, err
	}
	return j.end(start, wait), nil
}

// AppendAccept buffers one accept record — an AcceptRec's, of the tasks a
// dispatcher accepted into instance epr, each appended as received — and
// returns its durability Handle: the submit acknowledgment waits on it. array,
// when not nil, is the tasks' array as received (fproto.Bundle.Array), which
// is copied instead of encoding them again. Like the two below it encodes
// straight into the append buffer, behind a header sealed afterwards.
func (j *Journal) AppendAccept(epr, tenant string, tasks []task.Relayed, array []byte) (Handle, error) {
	start, err := j.begin(KindAccept)
	if err != nil {
		return Handle{}, err
	}
	j.buf = appendAcceptHead(j.buf, epr)
	if array != nil {
		j.buf = append(j.buf, array...)
	} else {
		j.buf = task.AppendArray(j.buf, tasks, (*task.Relayed).AppendJSON)
	}
	j.buf = appendAcceptTail(j.buf, tenant)
	return j.end(start, true), nil
}

// AppendDispatches buffers one grant's dispatch record, advisory as
// AppendCompletes's delivery records are: losing the tail only means a task
// re-runs, and downstream dedupe keeps delivery exactly-once.
func (j *Journal) AppendDispatches(rec *DispatchBatchRec) error {
	start, err := j.begin(KindDispatchBatch)
	if err == nil {
		j.buf = rec.appendJSON(j.buf)
		j.end(start, false)
	}
	return err
}

// AppendCompletes buffers one complete record — a CompleteBatchRec's — for
// the results finalized together, each copied as its caller encoded it (see
// AppendDispatches).
func (j *Journal) AppendCompletes(done []Finalized) error {
	start, err := j.begin(KindCompleteBatch)
	if err == nil {
		j.buf = append(j.buf, `{"results":[`...)
		for i := range done {
			if i > 0 {
				j.buf = append(j.buf, ',')
			}
			j.buf = append(appendCompleteHead(j.buf, done[i].EPR), done[i].Result...)
			j.buf = append(j.buf, '}')
		}
		j.buf = append(j.buf, `]}`...)
		j.end(start, false)
	}
	return err
}

// AppendFrames buffers a span of whole records that another journal framed
// — a standby's copy of its leader's stream — and returns how many it holds
// and their durability Handle. The whole span is checked with NextFrame
// before any of it is buffered: a torn or corrupt span is refused entire, so
// nothing is ever appended behind a damaged record.
func (j *Journal) AppendFrames(frames []byte) (records int, h Handle, err error) {
	for rest := frames; len(rest) > 0; records++ {
		var ok bool
		if _, rest, ok = NextFrame(rest); !ok {
			return 0, Handle{}, fmt.Errorf("wal: span damaged after %d whole records", records)
		}
	}
	if records == 0 {
		return 0, Handle{}, nil
	}
	if err := j.lock(); err != nil {
		return 0, Handle{}, err
	}
	j.buf = append(j.buf, frames...)
	return records, j.release(records, true), nil
}

// begin opens one record of kind in the append buffer, unless the journal no
// longer takes any: the header is reserved, and the caller, which now holds
// mu, writes the body onto j.buf and calls end.
func (j *Journal) begin(kind Kind) (start int, err error) {
	if err := j.lock(); err != nil {
		return 0, err
	}
	j.buf, start = beginRecord(j.buf, kind)
	return start, nil
}

// lock takes mu unless the journal no longer takes records: closed, or
// failed with a sticky error.
func (j *Journal) lock() error {
	j.mu.Lock()
	if j.err == nil && !j.closed {
		return nil
	}
	err := j.err
	j.mu.Unlock()
	if err == nil {
		err = errClosed
	}
	return err
}

// end seals the record begun at start and releases mu (see release).
func (j *Journal) end(start int, wait bool) Handle {
	sealRecord(j.buf, start)
	return j.release(1, wait)
}

// release unlocks mu after records were buffered and counts them. With wait
// it wakes the committer and returns the barrier of the commit they go out in;
// advisory records wake it only past advisoryBytes, and otherwise set tail.
func (j *Journal) release(records int, wait bool) Handle {
	var h Handle
	kick := wait || len(j.buf) >= advisoryBytes
	if wait {
		h = Handle{j: j, gen: j.gen}
	} else if !kick && !j.armed {
		j.armed = true
		j.tail.Reset(advisoryBound)
	}
	j.mu.Unlock()
	j.cAppends.Add(int64(records))
	if kick {
		j.wake()
	}
	return h
}

func (j *Journal) wake() {
	select {
	case j.kick <- struct{}{}:
	default:
	}
}

// tailDue is tail going off: the advisory records buffered since it was set
// are written now, unless a commit has taken them.
func (j *Journal) tailDue() {
	j.mu.Lock()
	j.armed = false
	due := len(j.buf) > 0
	j.mu.Unlock()
	if due {
		j.wake()
	}
}

// run is the committer loop: every kick flushes what the appends buffered.
func (j *Journal) run() {
	defer close(j.done)
	for {
		select {
		case <-j.stop:
			return
		case <-j.kick:
			j.flush(flushCommit)
		}
	}
}

// flushMode is what a flush does besides writing its batch.
type flushMode uint8

const (
	// flushCommit switches segments once the current one has reached
	// SegmentBytes (the committer, Close).
	flushCommit flushMode = iota
	// flushRotate always switches segments (Rotate).
	flushRotate
	// flushDrop fails the batch unwritten, as a crash would lose it (Abort).
	flushDrop
)

// flush is the journal's one write path. It takes the buffered batch and,
// unless the journal has failed or mode drops it, writes it to the segment,
// fsyncs it per the sync policy and hands it to Mirror; then it switches
// segments if mode or the segment's size asks. It releases the batch's
// waiters with the outcome, makes a failure the sticky error (the first one
// fires OnError, unless the journal is closing) and returns the index of the
// segment records now go to.
func (j *Journal) flush(mode flushMode) (uint64, error) {
	j.wmu.Lock()
	j.mu.Lock()
	closed, err := j.closed, j.err
	if closed && mode == flushRotate {
		j.mu.Unlock()
		j.wmu.Unlock()
		return 0, errClosed
	}
	buf, gen := j.buf, j.gen
	j.buf, j.spare = j.spare[:0], nil
	j.gen++
	j.mu.Unlock()

	if err == nil && mode == flushDrop {
		err = errAborted
	}
	if err == nil && len(buf) > 0 {
		start := time.Now()
		if _, err = j.seg.Write(buf); err == nil {
			j.cBytes.Add(int64(len(buf)))
			j.segSize += int64(len(buf))
			if j.opts.Sync.Mode != SyncOff {
				err = j.seg.Sync()
				j.cFsyncs.Inc()
			}
			// One batch's write + fsync: the committer-side half of the
			// wal_wait appenders observe.
			j.hCommit.Observe(time.Since(start).Seconds())
		}
		if err == nil && j.opts.Mirror != nil {
			// Under wmu: mirror calls land in exact file order, and every
			// waiter released below finds its batch already streamed.
			j.opts.Mirror(buf)
		}
	}
	if err == nil && (mode == flushRotate || !closed && j.segSize >= j.opts.SegmentBytes) {
		err = j.nextSegment()
	}

	// The buffer is kept as a connection's read buffer is: made anew only when
	// it is over 1 MiB and this flush used under an eighth of it. One that
	// held over an eighth of advisoryBytes is made that size at once, outside
	// mu, rather than left to grow there in steps as its records are appended.
	keep := buf[:0]
	if len(buf) > advisoryBytes/8 && cap(buf) < advisoryBytes {
		keep = make([]byte, 0, advisoryBytes)
	}
	j.mu.Lock()
	if j.spare == nil && (cap(keep) <= 1<<20 || len(buf) >= cap(keep)/8) {
		j.spare = keep
	}
	first := err != nil && j.err == nil
	if first {
		j.err = err
	} else if err == nil {
		j.committed = gen
	}
	closed = j.closed
	j.flushed.Broadcast()
	j.mu.Unlock()
	index := j.segIndex
	j.wmu.Unlock()
	if first && !closed {
		j.logf("wal: %v", err)
		if j.opts.OnError != nil {
			j.opts.OnError(err)
		}
	}
	if err != nil {
		return 0, err
	}
	return index, nil
}

// nextSegment closes the current segment and opens the one after it.
// Callers hold wmu.
func (j *Journal) nextSegment() error {
	next := j.segIndex + 1
	f, err := j.createSegment(next)
	if err != nil {
		return err
	}
	j.seg.Close()
	j.seg, j.segIndex, j.segSize = f, next, 0
	j.refreshSegGauge()
	return nil
}

// Rotate flushes the buffered batch into the current segment and opens the
// next. It returns the new segment's index: every record appended before the
// call is in a segment below that index, which is the snapshot boundary
// invariant WriteSnapshot relies on.
func (j *Journal) Rotate() (uint64, error) { return j.flush(flushRotate) }

// refreshSegGauge recounts on-disk segments (cheap: one readdir).
func (j *Journal) refreshSegGauge() {
	ents, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return
	}
	n := 0
	for _, e := range ents {
		if _, ok := parseIndexed(e.Name(), "seg-", ".wal"); ok {
			n++
		}
	}
	j.gSegs.Set(int64(n))
}

// Appends and Fsyncs expose the journal's lifetime counters for stats.
func (j *Journal) Appends() int64 { return j.cAppends.Value() }
func (j *Journal) Fsyncs() int64  { return j.cFsyncs.Value() }

// Close flushes and fsyncs everything buffered, then seals the journal.
// Safe to call twice.
func (j *Journal) Close() error { return j.shut(flushCommit) }

// Abort closes the journal without writing its buffered batch — the
// crash-simulation path used by tests: only records a flush already wrote
// survive, exactly as after a kill -9.
func (j *Journal) Abort() { j.shut(flushDrop) }

// shut refuses appends from now on, takes the last batch through flush in
// mode, stops the committer and closes the segment.
func (j *Journal) shut(mode flushMode) error {
	j.mu.Lock()
	closed := j.closed
	j.closed = true
	j.mu.Unlock()
	if closed {
		<-j.done
		return nil
	}
	_, err := j.flush(mode)
	j.tail.Stop()
	close(j.stop)
	<-j.done
	j.wmu.Lock()
	defer j.wmu.Unlock()
	if mode == flushCommit && err == nil && j.opts.Sync.Mode == SyncOff {
		j.seg.Sync() // off mode: make the seal durable anyway
	}
	if cerr := j.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteSnapshot durably stores st as the snapshot covering every segment
// below boundary (the index returned by Rotate), then prunes segments and
// snapshots the new snapshot supersedes. The install is atomic — tmp file,
// fsync, rename, directory fsync — so a crash leaves the directory with or
// without the whole snapshot, never part of one, and nothing is pruned until
// it is durable. A standby's baseline is Rotate then WriteSnapshot: a crash
// at any point recovers either the old state or the new one, never a mix.
func (j *Journal) WriteSnapshot(boundary uint64, st *State) error {
	frame, err := marshalRecord(nil, KindSnapshot, st)
	if err == nil && uint64(len(frame)-headerSize) > math.MaxUint32 {
		err = fmt.Errorf("wal: snapshot of %d bytes does not fit a record", len(frame))
	}
	if err != nil {
		return err
	}
	durable := j.opts.Sync.Mode != SyncOff
	tmp := filepath.Join(j.dir, "snap.tmp")
	f, err := j.fs.Create(tmp, false)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err = f.Write(frame); err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = j.fs.Rename(tmp, filepath.Join(j.dir, snapName(boundary)))
	}
	if err != nil {
		j.fs.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if durable {
		j.fs.SyncDir(j.dir)
	}
	prune(j.fs, j.dir, boundary)
	j.refreshSegGauge()
	return nil
}

// prune removes segments and snapshots wholly covered by the snapshot at
// boundary.
func prune(fsys FS, dir string, boundary uint64) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if n, ok := parseIndexed(e.Name(), "seg-", ".wal"); ok && n < boundary {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
		if n, ok := parseIndexed(e.Name(), "snap-", ".snap"); ok && n < boundary {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// sortedIndexed lists the indices of dir entries matching prefix/ext in
// ascending order.
func sortedIndexed(fsys FS, dir, prefix, ext string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if n, ok := parseIndexed(e.Name(), prefix, ext); ok {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}
