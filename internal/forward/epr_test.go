package forward_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/task"
)

// linkGate is a leaf's transport that holds what every connection but a
// direct client's sends it until release: a root's link and an executor that
// redial the leaf wait while a client attached to the leaf itself connects.
// A direct client's transport (direct) names its end of the connection before
// it writes a byte, so by the time the leaf has read any, it knows.
type linkGate struct {
	mu      sync.Mutex
	direct  map[string]bool
	release chan struct{}
	once    sync.Once
}

func newLinkGate() *linkGate {
	return &linkGate{direct: map[string]bool{}, release: make(chan struct{})}
}

func (g *linkGate) open() { g.once.Do(func() { close(g.release) }) }

func (g *linkGate) WrapConn(nc net.Conn) net.Conn { return &gatedConn{Conn: nc, g: g} }

func (*linkGate) DupNotify() bool { return false }

type gatedConn struct {
	net.Conn
	g *linkGate
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.g.mu.Lock()
	direct := c.g.direct[c.RemoteAddr().String()]
	c.g.mu.Unlock()
	if !direct {
		<-c.g.release
	}
	return n, err
}

// directEnd is a direct client's transport: it tells the gate its address.
type directEnd struct{ g *linkGate }

func (d directEnd) WrapConn(nc net.Conn) net.Conn {
	d.g.mu.Lock()
	d.g.direct[nc.LocalAddr().String()] = true
	d.g.mu.Unlock()
	return nc
}

func (directEnd) DupNotify() bool { return false }

// A root's link, reconnecting to a leaf, destroys by name every downstream
// instance its last connection made there. A leaf restarted without a journal
// holds none of them — but a client attached to the leaf directly may have
// created an instance on it before the link is back. That instance's EPR is
// no name the link made, so the link's cleanup leaves it alone, and the
// client gets its results. (While EPRs were a per-process sequence, the
// client was handed the new incarnation's first name, the link's old
// downstream instance's, and the link destroyed the client's instance.)
func TestInstanceNameLeafRestartSparesADirectClient(t *testing.T) {
	leaf := startLeaf(t, "127.0.0.1:0", dispatch.Options{})
	addr := leaf.Addr()
	startExec(t, executor.Options{ID: "leaf-exec", DispatcherAddr: addr})
	root, viaRoot := startRoot(t, client.Options{BundleSize: 10}, leaf)
	var rootGen, directGen task.IDGen
	if err := viaRoot.Submit(task.Batch(&rootGen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := viaRoot.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	leaf.Abort()
	gate := newLinkGate()
	defer gate.open()
	leaf = startLeaf(t, addr, dispatch.Options{Faults: gate})
	direct, err := client.Connect(client.Options{DispatcherAddr: addr, Name: "direct", BundleSize: 10, Faults: directEnd{gate}})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	gate.open()
	if !within(30*time.Second, func() bool { st := root.Stats(); return st.Leaves[0].Up && st.Leaves[0].Reconnects > 0 }) {
		t.Fatal("the root's link never reconnected to the restarted leaf")
	}

	if err := direct.Submit(task.Batch(&directGen, 10, 0)); err != nil {
		t.Fatalf("the direct client's instance %q, after the link reconnected: %v", direct.EPR(), err)
	}
	if _, err := direct.WaitN(10, 30*time.Second); err != nil {
		t.Fatalf("the direct client's instance %q: %v", direct.EPR(), err)
	}
	if err := viaRoot.Submit(task.Batch(&rootGen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := viaRoot.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}
