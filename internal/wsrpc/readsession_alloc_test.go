//go:build linux && !race

package wsrpc

import "testing"

// A raw session allocates nothing per frame, under either profile: its one
// closure and its buffer are the connection's. (TestReadFrameAllocFree is the
// same for the portable filler.)
func TestSessionAllocFree(t *testing.T) {
	for _, profile := range []SecurityProfile{SecurityNone, SecuritySecureConversation} {
		t.Run(profile.String(), func(t *testing.T) {
			p := newSessionPair(t, profile, true)
			const frames = 500
			payload := []byte(`{"k":1,"seq":42,"m":"falkon.deliver","b":"ping"}`)
			n := 0
			fn := func([]byte) error {
				if n++; n%frames == 0 {
					return errStop
				}
				return nil
			}
			round := func() {
				for i := 0; i < frames; i++ {
					if err := p.w.WriteFrame(payload); err != nil {
						t.Fatal(err)
					}
				}
				if err := p.r.ReadFrames(fn); err != errStop {
					t.Fatal(err)
				}
			}
			round()
			if avg := testing.AllocsPerRun(20, round); avg/frames >= 0.01 {
				t.Fatalf("a session allocates %.0f objects over %d frames, want 0 per frame", avg, frames)
			}
		})
	}
}
