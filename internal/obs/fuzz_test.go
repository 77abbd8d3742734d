package obs

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"falkon/internal/task"
)

// fuzzStrings is what the fuzzed events name: "" twice (the literal, and an
// empty slice of another string, whose data pointer is not nil) and 126
// others, more than a tracer of capacity 40 or less can keep in its table.
var fuzzStrings = func() []string {
	ss := make([]string, 128)
	for i := 2; i < len(ss); i++ {
		ss[i] = "s" + strconv.Itoa(i)
	}
	ss[1] = ss[2][:0]
	return ss
}()

// FuzzTracer records batches decoded from the input into a small tracer and
// checks every Since against a reference model: each event ever recorded, in
// a plain slice. The first byte is the ring's capacity (1–40); then, per op,
//
//	op%4 < 3: a batch of next%(2*capacity+3) events — larger than the ring,
//	    at times — of four bytes each: the kind, a time, and the EPR and the
//	    executor ID (a fuzzStrings index in the top seven bits; the low bit
//	    hands over a copy, equal but not the same string);
//	op%4 == 3: a Since(since, max) from two bytes, relative to the newest.
//
// After every op the whole ring is read back, and the string table must be
// within its bound.
func FuzzTracer(f *testing.F) {
	f.Add([]byte{8, 0, 5, 1, 1, 4, 6, 1, 2, 4, 6, 3, 3, 1})
	f.Add([]byte{3, 0, 9, 5, 7, 9, 11, 6, 13, 15, 17, 2, 19, 21, 23, 3, 4, 2})
	f.Add([]byte{1, 1, 255, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(runFuzzTracer)
}

func runFuzzTracer(t *testing.T, in []byte) {
	if len(in) == 0 {
		return
	}
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	str := func() string {
		b := next()
		s := fuzzStrings[b>>1]
		if b&1 != 0 {
			s = strings.Clone(s)
		}
		return s
	}
	capacity := 1 + int(next())%40
	tr := NewTracer(capacity)
	var model []Event
	check := func(since uint64, max int) {
		t.Helper()
		got, next := tr.Since(since, max)
		last := uint64(len(model))
		from := since + 1
		if last > uint64(capacity) && from <= last-uint64(capacity) {
			from = last - uint64(capacity) + 1
		}
		if max <= 0 {
			max = capacity
		}
		var want []Event
		for seq := from; seq <= last && len(want) < max; seq++ {
			want = append(want, model[seq-1])
		}
		if next != last || !slices.Equal(got, want) {
			t.Fatalf("capacity %d, %d recorded: Since(%d, %d) = %v, next %d; want %v", capacity, last, since, max, got, next, want)
		}
	}
	for len(in) > 0 {
		if op := next(); op%4 == 3 {
			back, max := uint64(next()%64), int(next()%48)-4
			check(uint64(len(model))-min(back, uint64(len(model))), max)
		} else {
			batch := make([]Event, int(next())%(2*capacity+3))
			for i := range batch {
				kind, at := EventKind(next()), time.Duration(next())
				batch[i] = Event{Seq: 99, At: at, Kind: kind, Trace: uint64(at) << 40, Task: task.ID(len(model) + i), EPR: str(), Executor: str()}
			}
			tr.RecordAll(batch)
			for _, ev := range batch {
				ev.Seq = uint64(len(model) + 1)
				model = append(model, ev)
			}
		}
		check(0, 0)
		if len(tr.strs) > 2*capacity+2 {
			t.Fatalf("capacity %d: the string table holds %d", capacity, len(tr.strs))
		}
	}
}
