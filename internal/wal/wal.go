package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	// I/O error. A journal that cannot write is fail-stop: daemons use
	// this hook to crash and let recovery replay the intact prefix.
	OnError func(error)
	// Mirror, when set, receives every committed batch of framed records
	// immediately after its write (and fsync, per the sync policy) succeeds
	// and before any AppendWait waiter is released — so a handler that
	// passed its durability barrier can rely on the batch already being
	// visible to the replication stream. Calls are serialized in exact file
	// order (the committer and Rotate both invoke it under the write
	// mutex). The batch aliases an internal buffer and is valid only for
	// the duration of the call; implementations copy what they keep.
	Mirror func(batch []byte)
}

// Handle represents one AppendWait's durability barrier.
type Handle struct{ w *waiter }

// Wait blocks until the record is committed per the sync policy and
// returns the write error, if any. The zero Handle waits for nothing.
func (h Handle) Wait() error {
	if h.w == nil {
		return nil
	}
	<-h.w.ch
	return h.w.err
}

type waiter struct {
	err error
	ch  chan struct{}
}

// Journal is a segmented append-only write-ahead log. Appends are buffered
// in an Appender under its short mutex and flushed by a single committer
// goroutine, so many concurrent appends amortize one write+fsync (group
// commit). Only the committer and Rotate touch the segment files.
type Journal struct {
	dir  string
	opts Options

	cAppends *obs.Counter
	cFsyncs  *obs.Counter
	cBytes   *obs.Counter
	gSegs    *obs.Gauge
	hCommit  *obs.Histogram

	fs FS

	// wmu serializes file writes and rotation; mu guards the appender list,
	// segment pointer, and lifecycle state. Record appends take only their
	// Appender's own mutex (never block on I/O or on each other).
	wmu sync.Mutex
	mu  sync.Mutex
	// apps are every Appender ever handed out; def (== apps[0]) is the
	// journal's default appender behind Append/AppendWait. A commit drains
	// appenders in index order, which is what makes cross-appender record
	// ordering within one batch deterministic (see Appenders).
	apps []*Appender
	def  *Appender
	// scratch assembles one commit batch from the appender buffers so the
	// segment sees a single write per commit.
	scratch  []byte
	seg      File
	segIndex uint64
	segSize  int64
	err      error // sticky I/O error: the journal fails closed
	erred    bool  // OnError already fired
	closed   bool
	// bad flips once the journal can no longer accept appends (closed or
	// sticky error): the appenders' fast-path reject check.
	bad atomic.Bool

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// Appender is one append buffer into the journal; the dispatcher uses only
// the default one (Journal.Append/AppendWait). Appenders are
// independent FIFOs: records appended through one Appender commit in append
// order, while records on different Appenders only order by commit batch
// (within a batch, lower appender index first). Callers that need two
// records ordered (a task's accept before its dispatch before its complete)
// must route them through the same Appender.
type Appender struct {
	j *Journal

	mu  sync.Mutex
	buf []byte
	ws  []*waiter
	// spare recycles the drained append buffer, so steady-state appends
	// never grow a fresh array.
	spare []byte
	// dead marks the final drain (close/abort): late appends fail instead
	// of parking records in a buffer no commit will ever visit.
	dead bool
}

// Append buffers one record without waiting for durability (see
// Journal.Append).
func (a *Appender) Append(kind Kind, v any) error {
	_, err := a.append(kind, v, false)
	return err
}

// AppendWait buffers one record and returns its durability Handle (see
// Journal.AppendWait). Beyond the default appender its remaining caller is
// benchmark/layers.go.
func (a *Appender) AppendWait(kind Kind, v any) (Handle, error) {
	return a.append(kind, v, true)
}

func (a *Appender) append(kind Kind, v any, wait bool) (Handle, error) {
	start, err := a.begin(kind)
	if err != nil {
		return Handle{}, err
	}
	if a.buf, err = appendBody(a.buf, kind, v); err != nil {
		a.buf = a.buf[:start]
		a.mu.Unlock()
		return Handle{}, err
	}
	return a.end(start, wait), nil
}

// begin opens one record of kind in the appender's buffer, unless the
// journal no longer takes any: the header is reserved, and the caller, which
// now holds the appender's lock, writes the body onto a.buf and calls end.
func (a *Appender) begin(kind Kind) (start int, err error) {
	if err := a.lock(); err != nil {
		return 0, err
	}
	a.buf, start = beginRecord(a.buf, kind)
	return start, nil
}

// lock takes the appender's lock unless the journal no longer takes records.
func (a *Appender) lock() error {
	if a.j.bad.Load() {
		return a.j.stickyErr()
	}
	a.mu.Lock()
	if a.dead {
		a.mu.Unlock()
		return a.j.stickyErr()
	}
	return nil
}

// end seals the record begun at start and releases the appender (see
// release).
func (a *Appender) end(start int, wait bool) Handle {
	sealRecord(a.buf, start)
	return a.release(1, wait)
}

// release unlocks the appender after records were buffered, counts them and
// wakes the committer. With wait it returns their durability barrier.
func (a *Appender) release(records int, wait bool) Handle {
	var h Handle
	if wait {
		w := &waiter{ch: make(chan struct{})}
		a.ws = append(a.ws, w)
		h = Handle{w: w}
	}
	a.mu.Unlock()
	a.j.cAppends.Add(int64(records))
	select {
	case a.j.kick <- struct{}{}:
	default:
	}
	return h
}

// take removes the appender's buffered batch, optionally sealing it against
// further appends (the final drain of close/abort).
func (a *Appender) take(final bool) (buf []byte, ws []*waiter) {
	a.mu.Lock()
	buf, ws = a.buf, a.ws
	a.buf, a.spare = a.spare[:0], nil
	a.ws = nil
	if final {
		a.dead = true
	}
	a.mu.Unlock()
	return buf, ws
}

// recycle returns a drained buffer for reuse (bounded so one burst doesn't
// park megabytes per appender).
func (a *Appender) recycle(buf []byte) {
	if cap(buf) > 1<<20 {
		return
	}
	a.mu.Lock()
	if a.spare == nil {
		a.spare = buf[:0]
	}
	a.mu.Unlock()
}

// stickyErr reports why the journal rejects appends.
func (j *Journal) stickyErr() error {
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	if err == nil {
		err = fmt.Errorf("wal: journal closed")
	}
	return err
}

// Appenders grows the appender set to n (minimum 1) and returns it; its
// remaining caller is benchmark/layers.go (wal.records_per_fsync). Appender
// 0 is the journal's own default (Journal.Append). Within one commit batch,
// appender 0's records land before appender 1's and so on — cross-appender
// ordering beyond that is by batch only.
func (j *Journal) Appenders(n int) []*Appender {
	if n < 1 {
		n = 1
	}
	j.mu.Lock()
	for len(j.apps) < n {
		j.apps = append(j.apps, &Appender{j: j})
	}
	apps := j.apps[:n]
	j.mu.Unlock()
	return apps
}

// appenders snapshots the current appender list.
func (j *Journal) appenders() []*Appender {
	j.mu.Lock()
	apps := j.apps
	j.mu.Unlock()
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
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	j.def = &Appender{j: j}
	j.apps = []*Appender{j.def}
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

// Append buffers one record on the default appender without waiting for
// durability. Its callers hand it the cold records (benchmark/layers.go, the
// per-task kinds too); the dispatcher's per-task transitions go through the
// typed entry points below, which box nothing.
func (j *Journal) Append(kind Kind, v any) error {
	return j.def.Append(kind, v)
}

// AppendWait buffers one record on the default appender and returns a
// Handle whose Wait releases once the record is committed per the sync
// policy. Used for transitions that must be durable before they are
// acknowledged (instance creation and destruction).
func (j *Journal) AppendWait(kind Kind, v any) (Handle, error) {
	return j.def.AppendWait(kind, v)
}

// AppendAccept buffers one accept record — an AcceptRec's, of the tasks a
// dispatcher accepted into instance epr, each appended as received — and
// returns its durability Handle: the submit acknowledgment waits on it. Like
// the two below it encodes straight into the appender's buffer, behind a
// header sealed afterwards.
func (j *Journal) AppendAccept(epr, tenant string, tasks []task.Relayed) (Handle, error) {
	start, err := j.def.begin(KindAccept)
	if err != nil {
		return Handle{}, err
	}
	j.def.buf = appendAccept(j.def.buf, epr, tasks, (*task.Relayed).AppendJSON, tenant)
	return j.def.end(start, true), nil
}

// AppendDispatches buffers one grant's dispatch record without waiting for
// durability, as AppendCompletes does a delivery's results: losing the tail
// only means a task re-runs, and downstream dedupe keeps delivery
// exactly-once.
func (j *Journal) AppendDispatches(rec *DispatchBatchRec) error {
	start, err := j.def.begin(KindDispatchBatch)
	if err == nil {
		j.def.buf = rec.appendJSON(j.def.buf)
		j.def.end(start, false)
	}
	return err
}

// AppendCompletes buffers one complete record for the results finalized
// together (see AppendDispatches).
func (j *Journal) AppendCompletes(rec *CompleteBatchRec) error {
	start, err := j.def.begin(KindCompleteBatch)
	if err == nil {
		j.def.buf = rec.appendJSON(j.def.buf)
		j.def.end(start, false)
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
	if err := j.def.lock(); err != nil {
		return 0, Handle{}, err
	}
	j.def.buf = append(j.def.buf, frames...)
	return records, j.def.release(records, true), nil
}

// run is the committer loop: drain the appender buffers, write them as one
// batch, fsync per policy, release the batch's waiters.
func (j *Journal) run() {
	defer close(j.done)
	for {
		select {
		case <-j.stop:
			j.commit(true)
			return
		case <-j.kick:
			j.commit(false)
		}
	}
}

// commit drains every appender (index order), writes the concatenated
// batch, and fsyncs it per policy. File I/O runs under wmu only, so appenders
// never block behind a sync. final seals the appenders (close/shutdown):
// any append racing the last commit fails instead of parking.
func (j *Journal) commit(final bool) {
	j.wmu.Lock()
	apps := j.appenders()
	j.mu.Lock()
	batch := j.scratch[:0]
	seg, err := j.seg, j.err
	j.mu.Unlock()
	var ws []*waiter
	for _, a := range apps {
		buf, aws := a.take(final)
		batch = append(batch, buf...)
		ws = append(ws, aws...)
		a.recycle(buf)
	}

	wrote := false
	ioStart := time.Now()
	if err == nil && len(batch) > 0 {
		_, err = seg.Write(batch)
		if err == nil {
			wrote = true
			j.cBytes.Add(int64(len(batch)))
		}
	}
	if err == nil && wrote && j.opts.Sync.Mode != SyncOff {
		err = seg.Sync()
		j.cFsyncs.Inc()
	}
	if wrote {
		// One group-commit batch's write + fsync: the committer-side half of
		// the wal_wait appenders observe.
		j.hCommit.Observe(time.Since(ioStart).Seconds())
	}
	if wrote && err == nil && j.opts.Mirror != nil {
		// Still under wmu: mirror calls land in exact file order, and every
		// waiter released below observes its batch already streamed.
		j.opts.Mirror(batch)
	}
	j.wmu.Unlock()

	j.mu.Lock()
	if err != nil && j.err == nil {
		j.err = err
		j.bad.Store(true)
	}
	fireErr := err != nil && !j.erred && !j.closed
	if fireErr {
		j.erred = true
	}
	if cap(batch) <= 8<<20 {
		j.scratch = batch[:0]
	} else {
		j.scratch = nil
	}
	grown := false
	if wrote {
		j.segSize += int64(len(batch))
		grown = j.segSize >= j.opts.SegmentBytes
	}
	j.mu.Unlock()
	if err != nil {
		j.logf("wal: commit: %v", err)
	}
	if fireErr && j.opts.OnError != nil {
		j.opts.OnError(err)
	}
	for _, w := range ws {
		w.err = err
		close(w.ch)
	}
	if grown {
		if _, rerr := j.Rotate(); rerr != nil {
			j.logf("wal: rotate: %v", rerr)
		}
	}
}

// Rotate seals the current segment (flushing and fsyncing any buffered
// records from every appender into it) and opens the next. It returns the
// new segment's index: every record appended before the call is in a
// segment below that index, which is the snapshot boundary invariant
// WriteSnapshot relies on.
func (j *Journal) Rotate() (uint64, error) {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	apps := j.appenders()
	j.mu.Lock()
	seg, next := j.seg, j.segIndex+1
	closed := j.closed
	j.mu.Unlock()
	var buf []byte
	var ws []*waiter
	for _, a := range apps {
		abuf, aws := a.take(closed)
		buf = append(buf, abuf...)
		ws = append(ws, aws...)
		a.recycle(abuf)
	}
	if closed {
		err := fmt.Errorf("wal: journal closed")
		for _, w := range ws {
			w.err = err
			close(w.ch)
		}
		return 0, err
	}

	var err error
	if len(buf) > 0 {
		if _, err = seg.Write(buf); err == nil {
			j.cBytes.Add(int64(len(buf)))
		}
	}
	if err == nil && j.opts.Sync.Mode != SyncOff {
		err = seg.Sync()
		j.cFsyncs.Inc()
	}
	if err == nil && len(buf) > 0 && j.opts.Mirror != nil {
		j.opts.Mirror(buf) // under wmu, same ordering contract as commit
	}
	for _, w := range ws {
		w.err = err
		close(w.ch)
	}
	if err != nil {
		j.noteErr(err)
		return 0, err
	}
	newSeg, err := j.createSegment(next)
	if err != nil {
		j.noteErr(err)
		return 0, err
	}
	seg.Close()
	j.mu.Lock()
	j.seg, j.segIndex, j.segSize = newSeg, next, 0
	j.mu.Unlock()
	j.refreshSegGauge()
	return next, nil
}

func (j *Journal) noteErr(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
		j.bad.Store(true)
	}
	fire := !j.erred && !j.closed
	if fire {
		j.erred = true
	}
	j.mu.Unlock()
	if fire && j.opts.OnError != nil {
		j.opts.OnError(err)
	}
}

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
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return nil
	}
	j.closed = true
	j.bad.Store(true)
	j.mu.Unlock()
	close(j.stop)
	<-j.done
	j.wmu.Lock()
	defer j.wmu.Unlock()
	if j.opts.Sync.Mode == SyncOff && j.err == nil {
		j.seg.Sync() // off mode: make the seal durable anyway
	}
	err := j.seg.Close()
	if j.err != nil {
		return j.err
	}
	return err
}

// Abort closes the journal without flushing its in-memory batch — the
// crash-simulation path used by tests: only records the committer already
// wrote survive, exactly as after a kill -9.
func (j *Journal) Abort() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.done
		return
	}
	j.closed = true
	if j.err == nil {
		j.err = fmt.Errorf("wal: aborted")
	}
	j.bad.Store(true)
	j.mu.Unlock()
	// Drop every appender's unwritten batch: a crash would have lost it.
	// Sealing (final take) makes racing appends fail instead of parking
	// records no commit will visit.
	for _, a := range j.appenders() {
		buf, ws := a.take(true)
		_ = buf
		for _, w := range ws {
			w.err = fmt.Errorf("wal: aborted")
			close(w.ch)
		}
	}
	close(j.stop)
	<-j.done
	j.wmu.Lock()
	j.seg.Close()
	j.wmu.Unlock()
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
