package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// reference measures how fast this machine is right now, so that times
// taken minutes apart can be compared.
//
// The 2-core box the benchmark is sized for is a guest on a shared host, and
// for minutes at a time the runtime runs 1.2 to 1.8 times slower there (a
// pure CPU loop does not). In a 25-minute recording of direct-bulk, sets of
// ten 20-second medians as timed had an interquartile range of up to 30 % of
// their median and drifted by 34 % from set to set; README.md has the table.
// No regression bound survives that, however many windows a run takes the
// median of.
//
// So every timed span is bracketed by two slices of this loop, and its
// times are divided by how much slower than nominal the loop ran around it.
// The loop has the workload's shape and none of the repository's code: a
// client keeps the workload's number of bundles in flight to an echo peer
// over loopback TCP, and both sides encode and decode every bundle with
// encoding/json. One task in flight makes it a ping-pong like direct-serial;
// 8 bundles of 64 keep the P busy like the bulk workloads. With the one P
// the benchmark runs on, the workloads slow down in proportion to the loop:
// over 80 runs whose factors ranged from 1.0 to 1.8 times the quiet host's,
// wall time per task grew as the factor to the power 0.95-1.18 on the bulk
// workloads (1.4 on direct-serial, over a narrower range), and dividing by
// it brought a throughput that ranged over 35-50 % as timed to within 4-7 %.
//
// A slice on its own is noisy (interquartile range 15-27 % at 50 ms), so the
// loop gets as much of a run as the workload does.
type reference struct {
	ln     net.Listener
	conn   net.Conn
	rd     *bufio.Reader
	served chan struct{} // closed when the echo peer has ended

	bundle  []refItem
	depth   int // bundles in flight
	nominal float64
	buf     []byte
}

// refItem is about the size of a task on the wire.
type refItem struct {
	ID      uint64   `json:"id"`
	Command string   `json:"command"`
	Args    []string `json:"args"`
	Trace   uint64   `json:"trace"`
	Stamps  [4]int64 `json:"stamps"`
}

func newReference(w workload) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &reference{
		ln: ln, served: make(chan struct{}),
		bundle: make([]refItem, w.bundle), depth: w.inflight / w.bundle, nominal: w.refNanosPerItem,
	}
	for i := range r.bundle {
		r.bundle[i] = refItem{Command: "sleep", Args: []string{"0123456789abcdef"}, Trace: traceBase}
	}
	go r.echo()
	if r.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-r.served
		return nil, err
	}
	r.rd = bufio.NewReaderSize(r.conn, 64<<10)
	return r, nil
}

// echo is the peer: it decodes every bundle, stamps it, encodes it again
// and sends it back, until the client hangs up.
func (r *reference) echo() {
	defer close(r.served)
	c, err := r.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	rd := bufio.NewReaderSize(c, 64<<10)
	var buf []byte
	for {
		line, err := rd.ReadSlice('\n')
		if err != nil {
			return
		}
		var items []refItem
		if err := json.Unmarshal(line, &items); err != nil {
			return
		}
		for i := range items {
			items[i].Stamps[1] = items[i].Stamps[0] + 1
		}
		out, err := json.Marshal(items)
		if err != nil {
			return
		}
		buf = append(append(buf[:0], out...), '\n')
		if _, err := c.Write(buf); err != nil {
			return
		}
	}
}

func (r *reference) send() error {
	for i := range r.bundle {
		r.bundle[i].ID++
	}
	out, err := json.Marshal(r.bundle)
	if err != nil {
		return err
	}
	r.buf = append(append(r.buf[:0], out...), '\n')
	_, err = r.conn.Write(r.buf)
	return err
}

func (r *reference) receive() error {
	line, err := r.rd.ReadSlice('\n')
	if err != nil {
		return err
	}
	var items []refItem
	return json.Unmarshal(line, &items)
}

// slice runs the loop for about d and returns how many times slower than
// nominal it ran. The bundles in flight are a few tens of KB, well inside
// the socket buffers, so priming the window cannot block against the peer.
func (r *reference) slice(d time.Duration) (float64, error) {
	t0 := time.Now()
	bundles := 0
	err := func() error {
		for i := 0; i < r.depth; i++ {
			if err := r.send(); err != nil {
				return err
			}
		}
		for running := true; running; running = time.Since(t0) < d {
			for i := 0; i < 8; i++ {
				if err := r.receive(); err != nil {
					return err
				}
				if err := r.send(); err != nil {
					return err
				}
				bundles++
			}
		}
		for i := 0; i < r.depth; i++ {
			if err := r.receive(); err != nil {
				return err
			}
			bundles++
		}
		return nil
	}()
	if err != nil {
		return 0, fmt.Errorf("reference loop: %w", err)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(bundles*len(r.bundle)) / r.nominal, nil
}

func (r *reference) close() {
	r.conn.Close()
	r.ln.Close()
	<-r.served
}

// speedometer brackets spans with slices of the reference loop.
type speedometer struct {
	ref     *reference
	each    time.Duration // length of one slice
	last    float64
	factors []float64
}

func newSpeedometer(w workload, each time.Duration) (*speedometer, error) {
	ref, err := newReference(w)
	if err != nil {
		return nil, err
	}
	s := &speedometer{ref: ref, each: each}
	if err := s.prime(); err != nil {
		ref.close()
		return nil, err
	}
	return s, nil
}

// prime runs the slice that precedes a span.
func (s *speedometer) prime() (err error) {
	s.last, err = s.ref.slice(s.each)
	return err
}

// factor runs the slice that follows a span — it also precedes the next —
// and returns the machine-speed factor for the span between the two.
func (s *speedometer) factor() (float64, error) {
	before := s.last
	if err := s.prime(); err != nil {
		return 0, err
	}
	f := (before + s.last) / 2
	s.factors = append(s.factors, f)
	return f, nil
}
