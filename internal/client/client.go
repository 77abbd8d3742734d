// Package client implements the Falkon client library: it creates a
// dispatcher instance (factory/instance pattern), submits tasks with
// client-dispatcher bundling, and receives their results as the dispatcher
// pushes them on the client's own connection (message {8} of Figure 2, which
// here carries the results themselves: there is no call that fetches them).
//
// Every client rides out a dispatcher restart: it redials with jittered
// backoff, re-attaches to its instance (which a journaling dispatcher recovers
// from disk), idempotently resubmits every task still awaiting a result, and
// delivers a result only while its task is still awaited — so the application
// sees each result exactly once no matter how many times the dispatcher
// crashed in between. For that it keeps each bundle as it encoded it, once,
// until the last of its results is in, and hands the bundle's storage to a
// later Submit: its state is the tasks in flight only.
package client

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/jsonwire"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// Options configures Connect.
type Options struct {
	// DispatcherAddr is the dispatcher's wsrpc address, or a comma-separated
	// chain of addresses tried in order ("leaf:5001,root:5000"): in a
	// hierarchical tree the client attaches to its leaf and fails over to
	// the next address in the chain — typically the root — when the leaf
	// dies. Failing over to a dispatcher that doesn't know the instance
	// falls back to a fresh instance plus resubmission of owed tasks, the
	// same path as a journal-less restart.
	DispatcherAddr string
	// Name labels the client in dispatcher logs.
	Name string
	// Tenant names the tenant this client's instance belongs to ("" =
	// the dispatcher's default tenant). Against a multi-tenant dispatcher
	// the tenant determines fair-share weight, quota, and rate limit; a
	// pre-tenancy dispatcher ignores the field.
	Tenant string
	// PSK is the dispatcher's pre-shared key, if it has one.
	PSK []byte
	// BundleSize groups submissions into bundles of this many tasks
	// (default 1 = no bundling). Figure 5 sweeps this parameter.
	BundleSize int

	// ReconnectTimeout bounds one continuous outage (default 30s); past it
	// the client gives up and Submit/WaitN fail.
	ReconnectTimeout time.Duration

	// Faults, when set, interposes transport fault injection on every
	// dial (chaos testing only).
	Faults wsrpc.ConnFaults
}

// Client is a connected Falkon client owning one dispatcher instance.
type Client struct {
	opts Options

	// sess owns the dispatcher connection: the address chain, redial with
	// backoff, and the create-or-reattach handshake below.
	sess *wsrpc.Session

	// traceBase is the random per-client base trace IDs are derived from:
	// a task's trace is traceBase + its ID, so the mapping is stable across
	// resubmission and unique across concurrent clients with overwhelming
	// probability.
	traceBase uint64

	mu  sync.Mutex
	epr string

	submitted   int64
	resubmitted int64 // tasks sent again after a reconnect
	deduped     int64 // resubmitted tasks the dispatcher already held
	dupDrops    int64 // redelivered results dropped client-side
	reconnects  int64
	throttled   int64 // bundles the dispatcher deferred with retry-after

	// owed holds the IDs of the tasks awaiting results, from just before their
	// bundle is sent until their result is delivered, and sent each bundle
	// holding one, as it was sent, for a resubmission (held counts their
	// tasks, since the results delivered since the last sweep). A result is
	// delivered only if its task is owed, the rule a tree's root applies to its
	// links. free is the bundles the sweep released, freeBytes of storage at
	// most, for Submit to encode into. So the client holds O(in-flight) state.
	owed      task.Owed
	sent      []*bundle
	held      int
	since     int
	free      []*bundle
	freeBytes int

	results chan task.Result

	// pushed is what every results push is decoded into, and so the one array
	// their results pass through (DESIGN.md §9, "Scratch"). It is the read
	// loop's: a session's connections follow one another, and so do their
	// read loops.
	pushed fproto.ResultsNotify
	execs  fproto.Seen // the executor IDs pushes name, the read loop's too
}

// Connect dials the dispatcher and creates a fresh instance.
func Connect(opts Options) (*Client, error) {
	if opts.BundleSize <= 0 {
		opts.BundleSize = 1
	}
	if opts.ReconnectTimeout <= 0 {
		opts.ReconnectTimeout = 30 * time.Second
	}
	c := &Client{
		opts:      opts,
		traceBase: randTraceBase(),
		results:   make(chan task.Result, 4096),
	}
	addrs := fproto.SplitAddrs(opts.DispatcherAddr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: no dispatcher address")
	}
	c.sess = wsrpc.NewSession(wsrpc.SessionOptions{
		Addrs: addrs,
		Client: wsrpc.ClientOptions{
			PSK:      opts.PSK,
			OnNotify: c.onNotify,
			Faults:   opts.Faults,
		},
		ReconnectTimeout: opts.ReconnectTimeout,
		Handshake:        c.handshake,
		OnUp:             c.resubmitOwed,
	})
	if err := c.sess.Open(); err != nil {
		return nil, err
	}
	return c, nil
}

// randTraceBase draws the per-client trace-ID base. A failed read falls
// back to the wall clock — uniqueness degrades, tracing still works.
func randTraceBase() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// EPR returns the instance endpoint reference.
func (c *Client) EPR() string { c.mu.Lock(); defer c.mu.Unlock(); return c.epr }

// handshake gives a fresh connection its instance before the session
// publishes it: the first connection creates one; a replacement re-attaches
// to it, at whichever address of the chain answered (a journaling dispatcher
// recovers it across restarts, an HA standby from the leader's journal), and
// falls back to a fresh instance where the EPR is unknown. The EPR is unique
// when minted, so no other dispatcher resolves it to a stranger's instance.
func (c *Client) handshake(cli *wsrpc.Client) error {
	c.mu.Lock()
	req := fproto.CreateInstanceRequest{ClientName: c.opts.Name, EPR: c.epr, Tenant: c.opts.Tenant}
	c.mu.Unlock()
	var reply fproto.CreateInstanceReply
	err := cli.Call(fproto.MethodCreateInstance, req, &reply)
	var remote *wsrpc.RemoteError
	if errors.As(err, &remote) && req.EPR != "" {
		// The dispatcher is up but doesn't know the instance (no journal,
		// another dispatcher, or it was pruned): start fresh; resubmitOwed
		// re-sends everything.
		req.EPR = ""
		err = cli.Call(fproto.MethodCreateInstance, req, &reply)
	}
	if err != nil {
		return fmt.Errorf("client: create instance: %w", err)
	}
	c.mu.Lock()
	c.epr = reply.EPR
	c.mu.Unlock()
	return nil
}

// resubmitOwed runs after every reconnect: it idempotently resubmits each
// task still awaiting a result, its bytes as they were sent, in bundles of
// BundleSize. The dispatcher drops the ones it still holds (reply.Deduped) and
// re-runs the ones that died with the crash. An error here needs no handling:
// if the connection died again the session redials and calls back, and a
// rejected bundle is no worse off than before.
func (c *Client) resubmitOwed(*wsrpc.Client) {
	c.mu.Lock()
	c.reconnects++
	var owed bundle // a copy: a sent bundle's storage may go to a Submit
	for _, b := range c.sent {
		for i := range b.ends {
			if c.owed.Has(b.id(i)) {
				owed.array = append(append(owed.array, b.span(i, i+1)...), ',')
				owed.ends = append(owed.ends, uint32(len(owed.array)))
			}
		}
	}
	c.mu.Unlock()
	call := submitCalls.Get().(*submitCall)
	defer putCall(call)
	for i := 0; i < len(owed.ends); i += c.opts.BundleSize {
		j := min(i+c.opts.BundleSize, len(owed.ends))
		if c.send(call, owed.span(i, j), j-i, true) != nil {
			return
		}
	}
}

// onNotify receives pushed results. It runs on the read loop; the results
// channel is buffered, and genuine backpressure falls back to a goroutine
// per overflow batch (rare).
func (c *Client) onNotify(method string, body json.RawMessage) {
	if method != fproto.NotifyResults {
		return
	}
	if err := c.pushed.DecodeInterned(body, c.ownEPR, c.execs.Intern); err != nil {
		return
	}
	c.deliver(c.pushed.Results)
}

// ownEPR is the fproto.Intern of a client: the one EPR pushes name.
func (c *Client) ownEPR(b []byte) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epr == string(b) {
		return c.epr
	}
	return ""
}

// deliver drops every result whose task is not owed — redeliveries are
// expected after a crash (the journal redelivers anything not provably
// delivered) and after resubmission races, and this filter is what makes
// delivery exactly-once — and pushes the rest to the channel, spilling to a
// goroutine if full so the transport read loop never stalls (the channel is
// buffered; genuine backpressure is rare); a spill gives up once the session
// has ended. rs is the caller's to reuse afterwards: the filter runs in place
// and the spill copies what it keeps.
func (c *Client) deliver(rs []task.Result) {
	c.mu.Lock()
	fresh := rs[:0]
	for _, r := range rs {
		if !c.owed.Remove(r.ID) {
			c.dupDrops++
			continue
		}
		fresh = append(fresh, r)
	}
	rs = fresh
	if c.since += len(rs); c.since > c.held/2 || c.owed.Len() == 0 {
		c.sweepLocked()
	}
	c.mu.Unlock()
	for i, r := range rs {
		select {
		case c.results <- r:
		default:
			go func(rest []task.Result) {
				for _, r := range rest {
					select {
					case c.results <- r:
					case <-c.sess.Done():
						return
					}
				}
			}(append([]task.Result(nil), rs[i:]...))
			return
		}
	}
}

// maxFree bounds the storage the free list keeps, as corkRetainBuffer bounds
// a drained cork: enough for a steady load to encode every bundle into storage
// a released one left, little for a drained client to hold.
const maxFree = 64 << 10

// sweepLocked releases every bundle none of whose tasks is owed, to the free
// list while it has room. It runs once the results since the last outnumber
// half the tasks held: O(1) a result.
func (c *Client) sweepLocked() {
	c.held, c.since = 0, 0
	c.sent = slices.DeleteFunc(c.sent, func(b *bundle) bool {
		for i := range b.ends {
			if b.busy || c.owed.Has(b.id(i)) {
				c.held += len(b.ends)
				return false
			}
		}
		if size := cap(b.array) + 4*cap(b.ends); c.freeBytes+size <= maxFree {
			c.free, c.freeBytes = append(c.free, b), c.freeBytes+size
		}
		return true
	})
}

// Submit sends tasks to the dispatcher in bundles of BundleSize. With a
// journaling dispatcher the acknowledgment means the bundle is durable; a
// bundle interrupted by a connection drop is retried after the reconnect
// (the dispatcher dedupes tasks it already accepted).
//
// Submit assigns each task a trace ID (in the caller's slice, so callers
// can correlate with span dumps) unless one is already set; a resubmitted
// task keeps its original trace, so every attempt joins one timeline.
func (c *Client) Submit(tasks []task.Task) error {
	for i := range tasks {
		if tasks[i].Trace == 0 {
			tasks[i].Trace = c.traceBase + uint64(tasks[i].ID)
			if tasks[i].Trace == 0 {
				tasks[i].Trace = 1
			}
		}
	}
	call := submitCalls.Get().(*submitCall)
	defer putCall(call)
	for len(tasks) > 0 {
		n := min(c.opts.BundleSize, len(tasks))
		var b *bundle // storage a released one left, if the sweep left any
		c.mu.Lock()
		if k := len(c.free); k > 0 {
			b, c.free[k-1], c.free = c.free[k-1], nil, c.free[:k-1]
			c.freeBytes -= cap(b.array) + 4*cap(b.ends)
		} else {
			b = new(bundle)
		}
		c.mu.Unlock()
		b.array, b.ends = b.array[:0], slices.Grow(b.ends[:0], n)
		for i := range tasks[:n] {
			b.array = append(tasks[i].AppendJSON(b.array), ',')
			b.ends = append(b.ends, uint32(len(b.array)))
			if i == 0 { // the rest differ from the first in their digits
				b.array = slices.Grow(b.array, (n-1)*len(b.array)+n)
			}
		}
		// Owed before it is sent: a result pushed ahead of the submit's reply
		// finds its task awaited.
		c.mu.Lock()
		for i := range tasks[:n] {
			c.owed.Add(tasks[i].ID)
		}
		b.busy = true
		c.sent, c.held = append(c.sent, b), c.held+n
		c.mu.Unlock()
		err := c.send(call, b.span(0, n), n, false)
		c.mu.Lock()
		b.busy = false
		if err != nil { // refused: no result is owed for it
			for i := range tasks[:n] {
				c.owed.Remove(tasks[i].ID)
			}
		}
		c.mu.Unlock()
		if err != nil {
			return err
		}
		tasks = tasks[n:]
	}
	return nil
}

// bundle is a bundle as the client sent it, kept until none of its tasks is
// owed, so that a reattach can send those again: its tasks as encoded, once,
// each followed by a comma, and the offset past each one's comma. A task's ID
// is read back from its bytes. busy marks a bundle a Submit is still sending,
// and so reading, which the sweep keeps.
type bundle struct {
	array []byte
	ends  []uint32
	busy  bool
}

// span is the encoding of tasks i to j-1 of the bundle, as a JSON array holds
// them.
func (b *bundle) span(i, j int) []byte {
	start := 0
	if i > 0 {
		start = int(b.ends[i-1])
	}
	return b.array[start : b.ends[j-1]-1]
}

// id is the bundle's i-th task's ID: Task.AppendJSON writes it first.
func (b *bundle) id(i int) task.ID {
	id, _, _ := jsonwire.ParseUint(b.span(i, i+1)[len(`{"id":`):])
	return task.ID(id)
}

// submitCall is what a submit hands wsrpc by pointer, bundle after bundle
// (DESIGN.md §9, "Scratch": a body handed to Call is state its call site
// holds): the body, a SubmitRequest whose tasks are encoded already, and the
// reply. Pooled, since Submit may be concurrent.
type submitCall struct {
	epr   string
	tasks []byte
	reply fproto.SubmitReply
}

var submitCalls = sync.Pool{New: func() any { return new(submitCall) }}

func putCall(call *submitCall) {
	call.tasks = nil // the tasks are not the pool's to keep
	submitCalls.Put(call)
}

// AppendJSON writes the bytes SubmitRequest.AppendJSON would.
func (call *submitCall) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"epr":`...)
	dst = jsonwire.AppendString(dst, call.epr)
	dst = append(dst, `,"tasks":[`...)
	return append(append(dst, call.tasks...), ']', '}')
}

// send sends the bundle of n tasks encoded in tasks over the current
// connection. resubmit marks the reconnect path, where failures bounce back to
// the supervisor instead of waiting here.
func (c *Client) send(call *submitCall, tasks []byte, n int, resubmit bool) error {
	reply := &call.reply
	for {
		cli, gen, err := c.sess.Conn()
		if err != nil {
			return fmt.Errorf("client: submit: %w", err)
		}
		// Reset the reply each attempt: its fields are omitempty on the
		// wire, so a retried call must not inherit the previous attempt's
		// throttle hint.
		*reply = fproto.SubmitReply{}
		call.epr, call.tasks = c.EPR(), tasks
		err = cli.Call(fproto.MethodSubmit, call, reply)
		if err == nil {
			if reply.RetryAfterMillis > 0 {
				// Admission backpressure: the dispatcher deferred the whole
				// bundle (tenant quota or rate limit). Honor the hint with
				// jitter — throttled clients must not re-flood in lockstep —
				// then retry the same bundle.
				c.mu.Lock()
				c.throttled++
				c.mu.Unlock()
				wait := time.Duration(reply.RetryAfterMillis) * time.Millisecond
				wait += time.Duration(rand.Int63n(int64(wait)/4 + 1))
				select {
				case <-time.After(wait):
				case <-c.sess.Done():
					return fmt.Errorf("client: closed while awaiting retry-after")
				}
				continue
			}
			break
		}
		var remote *wsrpc.RemoteError
		if resubmit || errors.As(err, &remote) {
			return fmt.Errorf("client: submit: %w", err)
		}
		// Connection-level failure: wait out the outage and retry this
		// bundle on the replacement connection. Tasks the dispatcher
		// already journaled before the crash come back Deduped. If the
		// session ends instead, the next Conn says why.
		c.sess.Await(gen)
	}
	if reply.Accepted != n {
		return fmt.Errorf("client: submitted %d tasks, dispatcher accepted %d", n, reply.Accepted)
	}
	c.mu.Lock()
	c.deduped += int64(reply.Deduped)
	if resubmit {
		c.resubmitted += int64(n)
	} else {
		c.submitted += int64(n)
	}
	c.mu.Unlock()
	return nil
}

// Results exposes the stream of finished task results. Results not taken
// before the client closes (or its session ends) are dropped.
func (c *Client) Results() <-chan task.Result { return c.results }

// WaitN blocks until n results arrive (cumulative across calls is not
// tracked; n results are read from the stream) or the timeout expires. It
// keeps waiting across dispatcher restarts and only fails once the client
// closes or gives up reconnecting.
func (c *Client) WaitN(n int, timeout time.Duration) ([]task.Result, error) {
	out := make([]task.Result, 0, n)
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for len(out) < n {
		select {
		case r := <-c.results:
			out = append(out, r)
		case <-c.sess.Done():
			return out, fmt.Errorf("client: connection closed with %d/%d results", len(out), n)
		case <-deadline:
			return out, fmt.Errorf("client: timeout with %d/%d results", len(out), n)
		}
	}
	return out, nil
}

// Submitted returns the number of tasks submitted so far.
func (c *Client) Submitted() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.submitted }

// Reconnects counts successful reconnect+reattach cycles.
func (c *Client) Reconnects() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.reconnects }

// Throttled counts submit bundles the dispatcher deferred with a
// retry-after hint (tenant admission control) before eventually accepting.
func (c *Client) Throttled() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.throttled }

// Resubmitted counts tasks sent again after a reconnect; those the dispatcher
// did not hold any more (all but Deduped) it admitted, ran and counted again.
func (c *Client) Resubmitted() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.resubmitted }

// Deduped counts resubmitted tasks the dispatcher already held (its side
// of the exactly-once story).
func (c *Client) Deduped() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.deduped }

// DuplicatesDropped counts redelivered results discarded client-side (this
// side of the exactly-once story).
func (c *Client) DuplicatesDropped() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.dupDrops }

// call runs one request/reply method on the current connection.
func call[T any](c *Client, method string, arg any) (T, error) {
	var reply T
	cli, _, err := c.sess.Conn()
	if err == nil {
		err = cli.Call(method, arg, &reply)
	}
	return reply, err
}

// Stats fetches the dispatcher's state over the wire (the provisioner's
// {POLL} request, available to any client).
func (c *Client) Stats() (fproto.StatsReply, error) {
	return call[fproto.StatsReply](c, fproto.MethodStats, nil)
}

// Metrics fetches the dispatcher's full instrument snapshot — counters,
// gauges, and stage/RPC latency histograms (falkon.metrics). Through a
// forwarder the reply is the merge of every downstream dispatcher.
func (c *Client) Metrics() (fproto.MetricsReply, error) {
	return call[fproto.MetricsReply](c, fproto.MethodMetrics, nil)
}

// Events fetches task-lifecycle trace events recorded after sinceSeq (0 for
// the oldest retained); max bounds the batch (0 = all retained). The reply's
// NextSeq tails the stream on a direct dispatcher connection; through a
// forwarder it is 0 (pagination unavailable).
func (c *Client) Events(sinceSeq uint64, max int) (fproto.EventsReply, error) {
	return call[fproto.EventsReply](c, fproto.MethodEvents, fproto.EventsRequest{SinceSeq: sinceSeq, Max: max})
}

// Close destroys the instance and disconnects.
func (c *Client) Close() error {
	if cli, _, err := c.sess.Conn(); err == nil {
		_ = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: c.EPR()}, nil)
	}
	return c.sess.Close()
}
