package dispatch

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"falkon/internal/fproto"
	"falkon/internal/sched"
	"falkon/internal/wsrpc"
)

// rootName identifies a root to its leaves (attach-parent, downstream
// instance names).
const rootName = "falkon-forwarder"

// link is one leaf dispatcher as its root sees it (DESIGN.md §13): an
// executor of the root's scheduling core, registered with the worker slots
// the leaf last reported (its capacity hint's Executors) and deregistered
// while it reports none or its connection is down — which has the root
// requeue what the link held, as for any executor that goes away. Holding
// fewer tasks than slots, the link is on offer like any executor with a free
// slot: told of work, it pulls. Past that it keeps its leaf stocked as deep as
// dispatch-ahead's rule allows (due), pulling after every result frame it
// delivers and when a submit arrives at the root. Which tasks it holds is the
// root's outstanding table.
type link struct {
	d    *Dispatcher
	id   string // the executor ID the link registers under
	addr string
	sess *wsrpc.Session // set once in newLink, before the leaf is dialed

	// mu guards the fields below, and is held across the root's Register and
	// Deregister so that slot counts take effect in the order they came (the
	// root calls back only into Notify, which takes no lock).
	mu    sync.Mutex
	row   fproto.LeafStats // Leaf, Up and the link's own counters
	cap   fproto.CapacityHint
	slots int             // registered with the root; 0 = not registered
	sizer sched.PullSizer // fed the leaf's submit round trip and its results' run times
	// down maps a root instance's EPR to the instance the link created for it
	// on the leaf (on the first grant that carries its work); real maps back.
	down, real map[string]string

	// dmu guards the link's scratch for a delivery: pushed, what the leaf's push
	// is read into, and delivered, the same results as handed to the root. smu
	// guards what goes down the wire (the link's goroutine and submit handlers
	// take turns, so a downstream instance is created once), stocked, a
	// stocking's grants, and sub and rep, the submit that carries a run of
	// them down and its reply, handed to Call by pointer.
	dmu, smu  sync.Mutex
	pushed    fproto.RelayedResults
	delivered fproto.Delivery
	stocked   []fproto.Relay
	sub       fproto.Bundle
	rep       fproto.SubmitReply

	// kick (buffered 1) has the link's goroutine stock the leaf: a downstream
	// call from a root handler or this leaf's read loop could wait on itself.
	kick chan struct{}
}

// newLink builds the link and (unopened) the session that owns its connection:
// redialed for ever, attached as a tree parent before the link can register.
func newLink(d *Dispatcher, idx int, addr string) *link {
	l := &link{
		d: d, id: fmt.Sprintf("leaf-%d@%s", idx, addr), addr: addr, row: fproto.LeafStats{Leaf: addr},
		down: make(map[string]string), real: make(map[string]string), kick: make(chan struct{}, 1),
	}
	l.sess = wsrpc.NewSession(wsrpc.SessionOptions{
		Addrs:     []string{addr},
		Client:    wsrpc.ClientOptions{PSK: d.opts.PSK, OnNotify: l.onNotify, Metrics: d.reg},
		Handshake: l.attach,
		OnDown: func() {
			d.logf("dispatch: leaf %s down, its tasks go back on the root's queue", addr)
			l.update(func() { l.row.Up = false })
		},
		OnUp: func(*wsrpc.Client) {
			d.logf("dispatch: leaf %s reconnected", addr)
			l.update(func() { l.row.Up, l.row.Reconnects = true, l.row.Reconnects+1 })
		},
	})
	d.leafWG.Add(1)
	go l.run()
	return l
}

// call is one call on the leaf's current connection; on a down leaf it fails.
func (l *link) call(method string, arg, reply any) error {
	cli, _, err := l.sess.Conn()
	if err == nil {
		err = cli.Call(method, arg, reply)
	}
	return err
}

// attach is the session's handshake: attach the root as a tree parent, then
// destroy the downstream instances an earlier connection left on the leaf
// (they hold only work this root sent, requeued when that connection dropped).
func (l *link) attach(cli *wsrpc.Client) error {
	var hint fproto.CapacityHint
	if err := cli.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{Parent: rootName}, &hint); err != nil {
		return err
	}
	l.mu.Lock()
	olds := l.real
	l.down, l.real = make(map[string]string), make(map[string]string)
	l.mu.Unlock()
	for down := range olds {
		_ = cli.Call(fproto.MethodDestroyInstance, fproto.DestroyInstanceRequest{EPR: down}, nil)
	}
	// Absorbed, not assigned: a fresher push can beat this snapshot here.
	l.absorbHint(hint)
	return nil
}

// absorbHint installs a capacity report if it is fresher than the current
// one, by (Epoch, Seq): Seq restarts when the leaf process does, so a restarted
// leaf's hints must beat the dead incarnation's high-Seq leftovers on epoch —
// raw Seq would freeze the link at its pre-crash size.
func (l *link) absorbHint(h fproto.CapacityHint) {
	l.update(func() {
		if h.Epoch > l.cap.Epoch || (h.Epoch == l.cap.Epoch && h.Seq >= l.cap.Seq) {
			l.cap = h
		}
	})
}

// update changes the link's state, then makes its registration at the root
// what its leaf can run: the hinted slots while the leaf is up, else none.
// Going to none deregisters, and the root requeues what the link held, whether
// the leaf died or only lost its last executor.
func (l *link) update(change func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	change()
	want := 0
	if l.row.Up {
		want = l.cap.Executors
	}
	switch {
	case want == l.slots:
	case want > 0:
		// Under an ID this pusher already holds, a resize: what it holds stays.
		l.d.Register(fproto.RegisterRequest{ExecutorID: l.id, Slots: want}, l)
	default:
		l.row.Reroutes += int64(l.d.Deregister(l.id))
	}
	l.slots = want
}

// Notify makes the link a Pusher: the root's work-available push has
// the link's goroutine stock the leaf. (The link does not announce that it
// takes grants in the push: one cut for an idle slot would split a bundle that
// stock is about to take whole.)
func (l *link) Notify(string, any) error {
	select {
	case l.kick <- struct{}{}:
	default:
	}
	return nil
}

// due is how many more tasks the link would hold — per worker slot what runs
// in one round trip to the leaf, a bundle at most, one task while tasks outlast
// the round trip. Work past that waits at the root, for the first leaf with
// room.
func (l *link) due() int {
	l.mu.Lock()
	depth := l.slots * l.sizer.Ask(l.d.opts.Bundle)
	l.mu.Unlock()
	return max(depth-l.d.held(l.id), 0)
}

// onNotify handles the leaf's pushes, on its read loop: capacity hints resize
// the link; a result notification is one delivery to the root, after which the
// link's goroutine restocks the leaf. The results go to the root as they were
// read, their bytes a view of the push, which the root splices into its own.
func (l *link) onNotify(method string, body json.RawMessage) {
	if method == fproto.NotifyCapacity {
		var h fproto.CapacityHint
		if json.Unmarshal(body, &h) == nil {
			l.absorbHint(h)
		}
		return
	} else if method != fproto.NotifyResults {
		return
	}
	// One delivery at a time (an old connection's read loop may be draining
	// beside its replacement's), through one buffer: the root keeps nothing
	// of a request.
	l.dmu.Lock()
	defer l.dmu.Unlock()
	n := &l.pushed
	if n.DecodeInterned(body, l.downEPR) != nil {
		return
	}
	l.mu.Lock()
	epr, ok := l.real[n.EPR]
	if ok {
		l.row.Results += int64(len(n.Results))
		for i := range n.Results {
			l.sizer.Observe(n.Results[i].RunDur, 0)
		}
	}
	l.mu.Unlock()
	if !ok {
		return // an instance this root dropped or destroyed
	}
	for i := range n.Results {
		n.Results[i].EPR = epr
	}
	l.delivered.ExecutorID, l.delivered.Results = l.id, n.Results
	f := l.d.fxs.get()
	// An error means the link is not registered: the root requeued these tasks.
	err := l.d.deliver(f, &l.delivered)
	f.release()
	l.delivered.Results = nil
	clear(n.Results) // views of the push
	if err == nil {
		l.Notify("", nil)
	}
}

// downEPR is the fproto.Intern of a leaf's result push: the downstream EPR, as
// the link already holds it, of an instance it created.
func (l *link) downEPR(b []byte) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down[l.real[string(b)]]
}

// run is the link's goroutine: it restocks the leaf when kicked, until the
// session ends.
func (l *link) run() {
	defer l.d.leafWG.Done()
	for {
		select {
		case <-l.sess.Done():
			return
		case <-l.kick:
			l.stock(true)
		}
	}
}

// stock has the link take what it has room for of the root's queue and send it
// to its leaf before it returns, and reports whether the root may have more.
// The link's goroutine waits its turn to send; a submit handler (about to
// acknowledge) that finds another sending to this leaf leaves the link to that
// goroutine, so no client waits on a round trip that is not for its own work.
func (l *link) stock(wait bool) bool {
	if !l.smu.TryLock() {
		if !wait {
			l.Notify("", nil)
			return true
		}
		l.smu.Lock()
	}
	defer l.smu.Unlock()
	want := l.due()
	if want == 0 {
		return true
	}
	var err error
	l.stocked, err = l.d.Stock(l.id, min(want, l.d.opts.Bundle), want, fproto.Recycle(l.stocked))
	l.send(l.stocked)
	clear(l.stocked) // the tasks' strings
	return err != nil || len(l.stocked) >= want
}

// send runs a grant: each run of tasks from one root instance, a bundle at
// most, is one submit to that instance's counterpart on the leaf. The leaf
// admits it whole — the tenant was admitted here, where its client attaches
// (DESIGN.md §13) — so a submit the leaf does not fully accept is refused, and
// that, like a submit the connection fails under, ends the connection: the
// session redials, and going down hands all the link held, sent or not, back
// to the root's queue. Callers hold smu.
func (l *link) send(as []fproto.Relay) {
	cli, _, err := l.sess.Conn()
	for start, end := 0, 0; err == nil && start < len(as); start = end {
		for end = start + 1; end < len(as) && as[end].EPR == as[start].EPR && end-start < l.d.opts.Bundle; end++ {
		}
		var down string
		if down, err = l.ensureDown(cli, as[start].EPR); down == "" {
			continue // destroyed since the grant: the root has swept its tasks
		}
		l.sub.EPR, l.sub.Tasks, l.rep = down, l.sub.Tasks[:0], fproto.SubmitReply{}
		for _, a := range as[start:end] {
			l.sub.Tasks = append(l.sub.Tasks, *a.Task)
		}
		sent := time.Now()
		err = cli.Call(fproto.MethodSubmit, &l.sub, &l.rep)
		clear(l.sub.Tasks) // the bundles the tasks' bytes are in
		if err == nil && l.rep.Accepted != end-start {
			err = fmt.Errorf("leaf accepted %d of %d tasks (retry after %d ms)", l.rep.Accepted, end-start, l.rep.RetryAfterMillis)
		}
		if err != nil {
			break
		}
		l.mu.Lock()
		l.sizer.RTT = time.Since(sent)
		l.row.Bundles++
		l.row.Tasks += int64(end - start)
		l.mu.Unlock()
	}
	if err != nil && cli != nil {
		l.d.logf("dispatch: submit to leaf %s: %v", l.addr, err)
		cli.Close()
	}
}

// ensureDown returns root instance epr's EPR on this leaf, creating the
// downstream instance on first use; "" if the root instance is gone.
func (l *link) ensureDown(cli *wsrpc.Client, epr string) (string, error) {
	l.mu.Lock()
	down := l.down[epr]
	l.mu.Unlock()
	l.d.imu.RLock()
	inst := l.d.instances[epr]
	l.d.imu.RUnlock()
	if inst == nil {
		return "", nil
	} else if down != "" {
		return down, nil
	}
	// Results stream upward as they finish; the tenant goes down verbatim,
	// so the leaf admits under the right name.
	var rep fproto.CreateInstanceReply
	err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{
		ClientName: rootName + "/" + epr, Tenant: inst.tenant,
	}, &rep)
	if err == nil {
		l.mu.Lock()
		l.down[epr], l.real[rep.EPR] = rep.EPR, epr
		l.mu.Unlock()
	}
	return rep.EPR, err
}
