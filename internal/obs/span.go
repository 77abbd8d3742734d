package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"falkon/internal/task"
)

// Span dumps are the offline half of cross-process tracing: every daemon
// can serialize its tracer ring as JSONL (one header line, then one event
// per line), and falkon-spans -merge joins dumps from different processes
// into per-task timelines on one corrected clock.
//
// Correction model: every event's At is relative to the dispatcher epoch —
// the dispatcher natively, executors via the epoch exchanged at register
// time — but each process stamps with its own clock, so an executor's
// events are shifted by its clock offset from the dispatcher. The header
// carries the NTP-style offset estimate (reference clock minus local
// clock, from wsrpc round trips), and merge maps each event to the
// reference timeline as EpochUnixNano + At + ClockOffsetNS.

// DumpHeader is the first line of a span dump.
type DumpHeader struct {
	// Proc names the dumping process (e.g. "dispatcher", "executor:ex-0").
	Proc string `json:"proc"`
	// EpochUnixNano is the epoch the events' At durations are relative to.
	EpochUnixNano int64 `json:"epoch_unixnano"`
	// ClockOffsetNS estimates reference (dispatcher) clock minus this
	// process's clock; 0 for the dispatcher itself.
	ClockOffsetNS int64 `json:"clock_offset_ns"`
	// ClockRTTNS is the round trip bounding the offset estimate (its error
	// is at most half this).
	ClockRTTNS int64 `json:"clock_rtt_ns,omitempty"`
}

// DumpJSONL writes the tracer's current ring as a span dump: the header
// line, then every retained event oldest-first, one JSON object per line.
func (t *Tracer) DumpJSONL(w io.Writer, h DumpHeader) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline JSONL needs
	if err := enc.Encode(h); err != nil {
		return err
	}
	events, _ := t.Since(0, 0)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump is one parsed span dump.
type Dump struct {
	Header DumpHeader
	Events []Event
}

// ParseDump reads a JSONL span dump produced by DumpJSONL (or the
// /spans.jsonl debug endpoint).
func ParseDump(r io.Reader) (Dump, error) {
	var d Dump
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	first := true
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if first {
			if err := json.Unmarshal(b, &d.Header); err != nil {
				return d, fmt.Errorf("obs: span dump header: %w", err)
			}
			first = false
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return d, fmt.Errorf("obs: span dump line %d: %w", line, err)
		}
		d.Events = append(d.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return d, err
	}
	if first {
		return d, fmt.Errorf("obs: empty span dump")
	}
	return d, nil
}

// SpanPoint is one corrected, attributed point on a task's timeline.
type SpanPoint struct {
	Proc string
	Kind EventKind
	// AtNS is the corrected absolute time (reference-clock unix nanos).
	// Merge clamps points monotone, so successive differences are the
	// task's stage durations and they sum to exactly the task's e2e span.
	AtNS int64
}

// TaskTimeline is one task's causally ordered, clock-corrected timeline
// across every process that saw it.
type TaskTimeline struct {
	Trace  uint64
	Task   task.ID
	EPR    string
	Points []SpanPoint
}

// E2E returns the timeline's total span (last minus first point).
func (tl TaskTimeline) E2E() int64 {
	if len(tl.Points) < 2 {
		return 0
	}
	return tl.Points[len(tl.Points)-1].AtNS - tl.Points[0].AtNS
}

// kindRank orders lifecycle kinds causally, so residual clock error cannot
// reorder stages across processes (a task starts after it is pulled no
// matter what the clocks say).
func kindRank(k EventKind) int {
	switch k {
	case EvEnqueued:
		return 0
	case EvNotified:
		return 1
	case EvPulled, EvAcked, EvPushed:
		return 2
	case EvStarted:
		return 3
	case EvFinished:
		return 4
	case EvDelivered:
		return 5
	case EvRetried:
		return 6
	default:
		return 7
	}
}

// mergeKey joins events across dumps: the trace ID when present (stable
// across forwarder EPR rewriting), otherwise (EPR, task) within one tier.
type mergeKey struct {
	trace uint64
	epr   string
	id    task.ID
}

// MergeDumps joins multi-process span dumps into per-task timelines on the
// reference clock. Events without a task ID (per-executor notifications)
// are skipped; each timeline's points are causally ordered and clamped
// monotone, so its stage durations partition its e2e span exactly.
func MergeDumps(dumps []Dump) []TaskTimeline {
	byKey := make(map[mergeKey]*TaskTimeline)
	var order []mergeKey
	for _, d := range dumps {
		base := d.Header.EpochUnixNano + d.Header.ClockOffsetNS
		for _, ev := range d.Events {
			if ev.Task == 0 && ev.Trace == 0 {
				continue
			}
			k := mergeKey{trace: ev.Trace}
			if ev.Trace == 0 {
				k = mergeKey{epr: ev.EPR, id: ev.Task}
			}
			tl := byKey[k]
			if tl == nil {
				tl = &TaskTimeline{Trace: ev.Trace, Task: ev.Task, EPR: ev.EPR}
				byKey[k] = tl
				order = append(order, k)
			}
			if tl.EPR == "" && ev.EPR != "" {
				tl.EPR = ev.EPR
			}
			if tl.Task == 0 {
				tl.Task = ev.Task
			}
			tl.Points = append(tl.Points, SpanPoint{Proc: d.Header.Proc, Kind: ev.Kind, AtNS: base + int64(ev.At)})
		}
	}
	out := make([]TaskTimeline, 0, len(order))
	for _, k := range order {
		tl := byKey[k]
		sort.SliceStable(tl.Points, func(a, b int) bool {
			ra, rb := kindRank(tl.Points[a].Kind), kindRank(tl.Points[b].Kind)
			if ra != rb {
				return ra < rb
			}
			return tl.Points[a].AtNS < tl.Points[b].AtNS
		})
		for i := 1; i < len(tl.Points); i++ {
			if tl.Points[i].AtNS < tl.Points[i-1].AtNS {
				tl.Points[i].AtNS = tl.Points[i-1].AtNS
			}
		}
		out = append(out, *tl)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if len(out[a].Points) == 0 || len(out[b].Points) == 0 {
			return len(out[a].Points) > len(out[b].Points)
		}
		return out[a].Points[0].AtNS < out[b].Points[0].AtNS
	})
	return out
}

// chromeEvent is one Chrome trace-event / Perfetto JSON record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the timelines as Chrome trace-event JSON (open in
// Perfetto or chrome://tracing): one "X" complete event per stage, one
// track (tid) per task, timestamps relative to the earliest merged point.
func WriteChromeTrace(w io.Writer, tls []TaskTimeline) error {
	var t0 int64
	have := false
	for _, tl := range tls {
		if len(tl.Points) > 0 && (!have || tl.Points[0].AtNS < t0) {
			t0, have = tl.Points[0].AtNS, true
		}
	}
	evs := make([]chromeEvent, 0, len(tls)*4)
	for _, tl := range tls {
		for i := 1; i < len(tl.Points); i++ {
			a, b := tl.Points[i-1], tl.Points[i]
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("%s→%s", a.Kind, b.Kind),
				Ph:   "X",
				TS:   float64(a.AtNS-t0) / 1e3,
				Dur:  float64(b.AtNS-a.AtNS) / 1e3,
				PID:  1,
				TID:  int64(tl.Task),
				Args: map[string]any{
					"trace": fmt.Sprintf("%#x", tl.Trace),
					"epr":   tl.EPR,
					"from":  a.Proc,
					"to":    b.Proc,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
}
