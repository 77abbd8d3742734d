package forward

import (
	"testing"

	"falkon/internal/fproto"
)

// Hint freshness is (Epoch, Seq) lexicographic: a restarted leaf's Seq
// counter starts over, so its early hints must win on epoch alone, and a
// straggler push from the dead incarnation's connection must lose even
// though its Seq is higher.
func TestAbsorbHintEpochBeatsSeq(t *testing.T) {
	l := &leaf{cap: fproto.CapacityHint{Epoch: 100, Seq: 40, Executors: 1}}

	// Fresh incarnation, Seq restarted: accepted despite the lower Seq.
	l.inflight = 7
	l.absorbHint(fproto.CapacityHint{Epoch: 200, Seq: 1, Executors: 0})
	if l.cap.Epoch != 200 || l.cap.Seq != 1 {
		t.Fatalf("new-epoch hint rejected: %+v", l.cap)
	}
	if l.inflight != 0 {
		t.Fatalf("accepted hint must reset inflight, got %d", l.inflight)
	}

	// Straggler from the dead incarnation: rejected on epoch.
	l.absorbHint(fproto.CapacityHint{Epoch: 100, Seq: 41, Executors: 1})
	if l.cap.Epoch != 200 {
		t.Fatalf("old-epoch straggler accepted: %+v", l.cap)
	}

	// Same epoch: Seq still orders. An older same-epoch hint (the
	// attach-time snapshot installed after a forced push raced ahead of
	// it) must not roll the fresher one back.
	l.absorbHint(fproto.CapacityHint{Epoch: 200, Seq: 5, Executors: 1})
	if l.cap.Seq != 5 || l.cap.Executors != 1 {
		t.Fatalf("same-epoch newer hint rejected: %+v", l.cap)
	}
	l.absorbHint(fproto.CapacityHint{Epoch: 200, Seq: 3, Executors: 0})
	if l.cap.Seq != 5 || l.cap.Executors != 1 {
		t.Fatalf("same-epoch stale hint accepted: %+v", l.cap)
	}
}
