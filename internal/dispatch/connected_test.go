//go:build unix && !race

package dispatch_test

import (
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"falkon/internal/dispatch"
	"falkon/internal/fproto"
	"falkon/internal/wsrpc"
)

// connectedExecutors is how many executors the connected-executor test
// registers, each over a connection of its own.
const connectedExecutors = 500

// What a registered idle executor weighs with a wsrpc connection behind it,
// both ends of the connection in this process (heap in use after two
// collections, less the heap before, ÷ connectedExecutors). Each end holds a
// 4 KiB read buffer and a cork buffer and its spare of 1 KiB, as a connection
// that has carried only a register does: measured 15,903–16,909 bytes at -cpu
// 1, 2 and 4 (the most in a process's first run), against 200,224–201,229
// while each end kept a 64 KiB read buffer and two 16 KiB cork buffers
// whatever its traffic. The ceiling is 24 KiB. Stack is two goroutines a
// connection, the dispatcher's read session and the client's read loop:
// 6,357–8,192 bytes either way here, up to 8,225 in BenchmarkConnectedExecutors
// (another goroutine's stack moves the reading too). The ceiling is 9 KiB: a
// third goroutine a connection, 2 KiB at least, fails it.
const (
	connectedExecutorBytesCeiling = 24 << 10
	connectedExecutorStackCeiling = 9 << 10
)

// TestBytesPerConnectedExecutor registers connectedExecutors executors of one
// slot each over loopback connections to a dispatcher that has no work, and
// weighs them.
func TestBytesPerConnectedExecutor(t *testing.T) {
	w := weighConnected(t, connectedExecutors)
	t.Logf("budget: %s heap bytes per connected idle executor %.0f <= %d", t.Name(), w.heap, connectedExecutorBytesCeiling)
	t.Logf("budget: %s stack bytes per connected idle executor %.0f <= %d", t.Name(), w.stack, connectedExecutorStackCeiling)
	if w.heap > connectedExecutorBytesCeiling {
		t.Errorf("%.0f bytes of heap per connected idle executor, budget %d", w.heap, connectedExecutorBytesCeiling)
	}
	if w.stack > connectedExecutorStackCeiling {
		t.Errorf("%.0f bytes of stack per connected idle executor, budget %d", w.stack, connectedExecutorStackCeiling)
	}
}

// BenchmarkConnectedExecutors is Figure 9 as far as one process goes: it
// registers N executors with one dispatcher, each over a loopback connection
// of its own (a raw wsrpc.Client calling falkon.register), and reports what
// each weighs, both ends of its connection included, and the mean time to dial
// and register the first and the last hundred: a registration that is O(n)
// shows as a last hundred slower than the first. Run it once a size
// (-benchtime=1x). Both ends are in this process, two descriptors a
// connection: a size that needs more than RLIMIT_NOFILE allows is skipped.
func BenchmarkConnectedExecutors(b *testing.B) {
	for _, n := range []int{1000, 4000, 9000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			var lim syscall.Rlimit
			if need := 2*n + 256; syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) == nil && lim.Cur < uint64(need) {
				b.Skipf("%d connections need %d descriptors; RLIMIT_NOFILE is %d", n, need, lim.Cur)
			}
			for range b.N {
				w := weighConnected(b, n)
				b.ReportMetric(w.heap, "heap-B/exec")
				b.ReportMetric(w.stack, "stack-B/exec")
				b.ReportMetric(float64(w.first.Microseconds())/100, "us/register-first100")
				b.ReportMetric(float64(w.last.Microseconds())/100, "us/register-last100")
			}
		})
	}
}

// connected is what weighConnected measured: heap and stack bytes per
// executor, and the time the first and the last hundred registrations took.
type connected struct {
	heap, stack float64
	first, last time.Duration
}

// weighConnected starts a dispatcher, registers n executors with it, each
// over a wsrpc connection of its own, and weighs them; it closes every
// connection and the dispatcher before it returns.
func weighConnected(tb testing.TB, n int) connected {
	d := dispatch.New(dispatch.Options{Logf: func(string, ...any) {}})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	defer d.Close()
	var clients []*wsrpc.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	connect := func(id string) {
		c, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		clients = append(clients, c)
		if err := c.Call(fproto.MethodRegister, fproto.RegisterRequest{ExecutorID: id, Slots: 1}, nil); err != nil {
			tb.Fatal(err)
		}
	}
	// Pools, per-method instruments and the server's first buffers reach
	// steady state on a connection that then goes.
	connect("warm")
	clients[0].Close()
	clients = clients[:0]
	for d.Stats().TotalExecutors != 0 {
		time.Sleep(time.Millisecond)
	}

	clients = make([]*wsrpc.Client, 0, n)
	heap0, stack0 := liveMem()
	var w connected
	for i := range n {
		start := time.Now()
		connect("exec-" + strconv.Itoa(i))
		switch took := time.Since(start); {
		case i < 100:
			w.first += took
		case i >= n-100:
			w.last += took
		}
	}
	if st := d.Stats(); st.TotalExecutors != n {
		tb.Fatalf("%d executors registered, want %d", st.TotalExecutors, n)
	}
	heap1, stack1 := liveMem()
	w.heap = float64(int64(heap1)-int64(heap0)) / float64(n)
	w.stack = float64(int64(stack1)-int64(stack0)) / float64(n)
	return w
}

// liveMem is the heap in use once a collection has run, as liveHeap reads
// it, and the goroutine stacks in use.
func liveMem() (heap, stack uint64) {
	heap = liveHeap()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heap, m.StackInuse
}
