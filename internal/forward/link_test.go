package forward

import (
	"testing"

	"falkon/internal/dispatch"
	"falkon/internal/fproto"
)

// Hint freshness is (Epoch, Seq) lexicographic: a restarted leaf's Seq counter
// starts over, so its early hints must win on epoch alone, and a straggler
// from the dead incarnation's connection must lose even though its Seq is
// higher. What a hint that wins changes is the slots the link is registered
// with.
func TestAbsorbHintEpochBeatsSeq(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f, err := New(Options{Dispatchers: []string{d.Addr()}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l := f.links[0]
	l.mu.Lock()
	epoch, seq := l.cap.Epoch, l.cap.Seq
	l.mu.Unlock()

	for _, step := range []struct {
		why  string
		hint fproto.CapacityHint
		want int // slots registered afterwards
	}{
		{"a new incarnation, Seq restarted", fproto.CapacityHint{Epoch: epoch + 1, Seq: 1, Executors: 3}, 3},
		{"a straggler of the old one, higher Seq", fproto.CapacityHint{Epoch: epoch, Seq: seq + 100, Executors: 1}, 3},
		{"same epoch, newer", fproto.CapacityHint{Epoch: epoch + 1, Seq: 5, Executors: 2}, 2},
		{"same epoch, stale (the attach snapshot behind a forced push)", fproto.CapacityHint{Epoch: epoch + 1, Seq: 3, Executors: 7}, 2},
		{"the last executor left", fproto.CapacityHint{Epoch: epoch + 1, Seq: 6}, 0},
	} {
		l.absorbHint(step.hint)
		l.mu.Lock()
		got := l.slots
		l.mu.Unlock()
		if got != step.want || f.root.Stats().TotalExecutors != min(step.want, 1) {
			t.Fatalf("%s: link registered with %d slots (%d executors at the root), want %d", step.why, got, f.root.Stats().TotalExecutors, step.want)
		}
	}
}
