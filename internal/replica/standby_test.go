package replica_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"falkon/internal/replica"
	"falkon/internal/wal"
	"falkon/internal/wsrpc"
)

// leaderFrames frames records the way a leader's journal does, by running
// one and catching what its Mirror hook streams.
func leaderFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	var frames [][]byte
	_, j, _, err := wal.Recover(t.TempDir(), wal.Options{
		Sync:   wal.SyncPolicy{Mode: wal.SyncOff},
		Mirror: func(b []byte) { frames = append(frames, append([]byte(nil), b...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		h, err := j.AppendWait(wal.KindInstance, wal.InstanceRec{EPR: fmt.Sprintf("falkon-instance-%d", i+1)})
		if err != nil || h.Wait() != nil {
			t.Fatalf("append: %v", err)
		}
	}
	j.Close()
	if len(frames) != n {
		t.Fatalf("leader streamed %d batches, want %d", len(frames), n)
	}
	return frames
}

// TestStandbyNeverAcksDamagedSpan serves a standby a span of one valid frame
// and one with a flipped byte, counted as two records. The span must be
// refused whole: no later request may carry a position past the records the
// standby's directory actually holds.
func TestStandbyNeverAcksDamagedSpan(t *testing.T) {
	frames := leaderFrames(t, 2)
	damaged := append(append([]byte(nil), frames[0]...), frames[1]...)
	damaged[len(damaged)-2] ^= 0x01

	var (
		mu     sync.Mutex
		maxPos int64
		served int
	)
	done := make(chan struct{})
	srv := wsrpc.NewServer(wsrpc.ServerOptions{})
	srv.Register(replica.MethodAttach, func(_ *wsrpc.Peer, _ json.RawMessage) (any, error) {
		return &replica.AttachReply{Term: 1, Pos: 0, Snapshot: &wal.State{}}, nil
	})
	srv.Register(replica.MethodFetch, func(_ *wsrpc.Peer, body json.RawMessage) (any, error) {
		var req replica.FetchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		maxPos = max(maxPos, req.Pos)
		if served++; served == 3 {
			close(done) // the standby came back for more after the damaged span
		}
		if req.Pos == 0 {
			return &replica.FetchReply{Term: 1, Pos: 0, Frames: damaged, Records: 2, End: 2}, nil
		}
		time.Sleep(10 * time.Millisecond)
		return &replica.FetchReply{Term: 1, Pos: req.Pos, End: 2}, nil
	})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dir := t.TempDir()
	sb, err := replica.StartStandby(replica.StandbyOptions{
		ID:     "sb-1",
		Leader: func() (string, error) { return srv.Addr(), nil },
		Dir:    dir,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("standby stopped fetching")
	}
	sb.Stop()

	_, j, info, err := wal.Recover(dir, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncOff}})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	mu.Lock()
	defer mu.Unlock()
	if maxPos > int64(info.Records) {
		t.Fatalf("standby acked position %d, but its directory replays %d records", maxPos, info.Records)
	}
}
