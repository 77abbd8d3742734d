// Package client implements the Falkon client library: it creates a
// dispatcher instance (factory/instance pattern), submits tasks with
// client-dispatcher bundling, and collects results either through pushed
// notifications (message {8} of Figure 2) or by polling.
//
// With Reconnect enabled the client also rides out dispatcher restarts:
// it redials with jittered backoff, re-attaches to its instance (which a
// journaling dispatcher recovers from disk), idempotently resubmits every
// task still awaiting a result, and delivers a result only while its task
// is still awaited — so the application sees each result exactly once no
// matter how many times the dispatcher crashed in between, and the client
// keeps state for the tasks in flight only.
package client

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/fproto"
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
	// Poll disables pushed result notifications in favour of Collect
	// polling (the firewall-friendly mode of §6).
	Poll bool

	// Reconnect enables crash-safe operation: on a dropped connection the
	// client redials with jittered backoff, re-attaches to its instance,
	// resubmits tasks still awaiting results (the dispatcher dedupes ones
	// it already holds), and drops a result whose task is no longer
	// awaited.
	Reconnect bool
	// ReconnectTimeout bounds one continuous outage (default 30s); past it
	// the client gives up and Submit/WaitN fail.
	ReconnectTimeout time.Duration
	// Backoff tunes the redial schedule (zero value = backoff.Default).
	Backoff backoff.Policy

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
	// eprIdx is the chain address the current instance was created on — EPRs
	// are per-dispatcher, so a reconnect that lands elsewhere must not
	// reattach by EPR (the same name could be a stranger's instance there)
	// and starts fresh instead.
	eprIdx int
	// cluster is the HA cluster id the dispatcher reported at create time
	// ("" for a standalone dispatcher). Within a cluster the EPR is valid
	// on every member — standbys replay the leader's journal — so a
	// failover to another address in the chain reattaches by EPR (scoped by
	// the cluster id) instead of abandoning the instance.
	cluster string

	submitted   int64
	resubmitted int64 // tasks sent again after a reconnect
	deduped     int64 // resubmitted tasks the dispatcher already held
	dupDrops    int64 // redelivered results dropped client-side
	reconnects  int64
	throttled   int64 // bundles the dispatcher deferred with retry-after

	// pending holds the tasks still awaiting results, from just before their
	// bundle is sent until their result is delivered; it exists only in
	// Reconnect mode. It drives resubmission, and exactly-once delivery: a
	// result is delivered only if its task is still here, the rule a tree's
	// root applies to its links. So the client holds O(in-flight) state.
	pending map[task.ID]task.Task

	results  chan task.Result
	pollDone chan struct{}

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
	if opts.Reconnect {
		c.pending = make(map[task.ID]task.Task)
	}
	c.sess = wsrpc.NewSession(wsrpc.SessionOptions{
		Addrs: addrs,
		Client: wsrpc.ClientOptions{
			PSK:      opts.PSK,
			OnNotify: c.onNotify,
			Faults:   opts.Faults,
		},
		Reconnect:        opts.Reconnect,
		ReconnectTimeout: opts.ReconnectTimeout,
		Backoff:          opts.Backoff,
		Handshake:        c.handshake,
		OnUp:             c.resubmitOwed,
	})
	if err := c.sess.Open(); err != nil {
		return nil, err
	}
	if opts.Poll {
		c.pollDone = make(chan struct{})
		go c.pollLoop()
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
// to it (a journaling dispatcher recovers it across restarts) and falls back
// to a fresh instance where the EPR is unknown.
func (c *Client) handshake(cli *wsrpc.Client, addrIdx int) error {
	c.mu.Lock()
	req := fproto.CreateInstanceRequest{
		ClientName:        c.opts.Name,
		WantNotifications: !c.opts.Poll,
		EPR:               c.epr,
		Cluster:           c.cluster,
		Tenant:            c.opts.Tenant,
	}
	if addrIdx != c.eprIdx && req.Cluster == "" {
		// Failed over to a standalone dispatcher: the EPR means nothing
		// (or worse) there. Within an HA cluster the EPR stays valid on
		// every member, so keep it and let the new leader replay it.
		req.EPR = ""
	}
	c.mu.Unlock()
	var reply fproto.CreateInstanceReply
	err := cli.Call(fproto.MethodCreateInstance, req, &reply)
	var remote *wsrpc.RemoteError
	if errors.As(err, &remote) && req.EPR != "" {
		// The dispatcher is up but doesn't know the instance (no journal,
		// or it was pruned): start fresh; resubmitOwed re-sends everything.
		req.EPR, req.Cluster = "", ""
		err = cli.Call(fproto.MethodCreateInstance, req, &reply)
	}
	if err != nil {
		return fmt.Errorf("client: create instance: %w", err)
	}
	c.mu.Lock()
	c.epr, c.eprIdx, c.cluster = reply.EPR, addrIdx, reply.Cluster
	c.mu.Unlock()
	return nil
}

// resubmitOwed runs after every reconnect: it idempotently resubmits each
// task still awaiting a result. The dispatcher drops the ones it still holds
// (reply.Deduped) and re-runs the ones that died with the crash. An error
// here needs no handling: if the connection died again the session redials
// and calls back, and a rejected bundle is no worse off than before.
func (c *Client) resubmitOwed(*wsrpc.Client) {
	c.mu.Lock()
	c.reconnects++
	resubmit := make([]task.Task, 0, len(c.pending))
	for _, t := range c.pending {
		resubmit = append(resubmit, t)
	}
	c.mu.Unlock()
	_ = c.submitTasks(resubmit, true)
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

// deliver pushes results to the channel, spilling to a goroutine if full so
// the transport read loop never stalls (the channel is buffered; genuine
// backpressure is rare); a spill gives up once the session has ended. In
// Reconnect mode it first drops every result whose task is not pending —
// redeliveries are expected after a crash (the journal redelivers anything
// not provably collected) and after resubmission races, and this filter is
// what makes delivery exactly-once. rs is the caller's to reuse afterwards:
// the filter runs in place and the spill copies what it keeps.
func (c *Client) deliver(rs []task.Result) {
	if c.pending != nil {
		c.mu.Lock()
		fresh := rs[:0]
		for _, r := range rs {
			if _, owed := c.pending[r.ID]; !owed {
				c.dupDrops++
				continue
			}
			delete(c.pending, r.ID)
			fresh = append(fresh, r)
		}
		rs = fresh
		c.mu.Unlock()
	}
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

// pollLoop drives Collect when notifications are disabled. In Reconnect
// mode it survives connection swaps by waiting out each outage.
func (c *Client) pollLoop() {
	defer close(c.pollDone)
	for {
		cli, gen, err := c.sess.Conn()
		if err != nil {
			return
		}
		var reply fproto.CollectReply
		err = cli.Call(fproto.MethodCollect, fproto.CollectRequest{
			EPR:        c.EPR(),
			WaitMillis: 50, // a long poll: it returns as soon as results arrive
		}, &reply)
		if err != nil {
			var remote *wsrpc.RemoteError
			if !c.opts.Reconnect || errors.As(err, &remote) || !c.sess.Await(gen) {
				return
			}
			continue
		}
		if len(reply.Results) > 0 {
			c.deliver(reply.Results)
		}
	}
}

// Submit sends tasks to the dispatcher in bundles of BundleSize. With a
// journaling dispatcher the acknowledgment means the bundle is durable; in
// Reconnect mode a bundle interrupted by a connection drop is retried
// after the reconnect (the dispatcher dedupes tasks it already accepted).
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
	return c.submitTasks(tasks, false)
}

// submitCall is what one submitTasks hands wsrpc by pointer, bundle after
// bundle: the request and the reply (DESIGN.md §9, "Scratch": a body handed to
// Call is state its call site holds). Pooled, since Submit may be concurrent.
type submitCall struct {
	req   fproto.SubmitRequest
	reply fproto.SubmitReply
}

var submitCalls = sync.Pool{New: func() any { return new(submitCall) }}

// submitTasks bundles tasks over the current connection; resubmit marks
// the reconnect path, where the tasks are already pending and failures
// bounce back to the supervisor instead of waiting here.
func (c *Client) submitTasks(tasks []task.Task, resubmit bool) (err error) {
	call := submitCalls.Get().(*submitCall)
	owe := !resubmit && c.pending != nil
	var bundle []task.Task
	defer func() {
		call.req = fproto.SubmitRequest{} // the caller's tasks are not the pool's to keep
		submitCalls.Put(call)
		if err != nil && owe {
			c.mu.Lock()
			for _, t := range bundle { // refused: no result is owed for it
				delete(c.pending, t.ID)
			}
			c.mu.Unlock()
		}
	}()
	reply := &call.reply
	for len(tasks) > 0 {
		n := min(c.opts.BundleSize, len(tasks))
		bundle = tasks[:n]
		if owe {
			// Pending before it is sent: a result pushed ahead of the
			// submit's reply finds its task awaited.
			c.mu.Lock()
			for _, t := range bundle {
				c.pending[t.ID] = t
			}
			c.mu.Unlock()
		}
		for {
			cli, gen, err := c.sess.Conn()
			if err != nil {
				return fmt.Errorf("client: submit: %w", err)
			}
			// The envelope carries the bundle head's trace so transport-level
			// tooling can follow the submission hop; per-task context rides in
			// the task bodies. Reset the reply each attempt: its fields are
			// omitempty on the wire, so a retried call must not inherit the
			// previous attempt's throttle hint.
			*reply = fproto.SubmitReply{}
			call.req = fproto.SubmitRequest{EPR: c.EPR(), Tasks: bundle}
			err = cli.CallTrace(fproto.MethodSubmit, &call.req, reply, bundle[0].Trace, 0)
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
			if resubmit || !c.opts.Reconnect || errors.As(err, &remote) {
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
		tasks = tasks[n:]
	}
	return nil
}

// Results exposes the stream of finished task results. Results not taken
// before the client closes (or its session ends) are dropped.
func (c *Client) Results() <-chan task.Result { return c.results }

// WaitN blocks until n results arrive (cumulative across calls is not
// tracked; n results are read from the stream) or the timeout expires. In
// Reconnect mode it keeps waiting across dispatcher restarts and only
// fails once the client closes or gives up reconnecting.
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
	err := c.sess.Close()
	if c.pollDone != nil {
		<-c.pollDone
	}
	return err
}
