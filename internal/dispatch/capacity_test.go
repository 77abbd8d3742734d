package dispatch_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// TestAttachParentCapacityProtocol exercises the tree-parent side of the
// dispatcher: attach-parent returns the slot count, and the events that change
// it — an executor registering or going away — each push one NotifyCapacity
// upward, fresher by (Epoch, Seq) than what came before. Nothing else pushes:
// a submit and the deliveries of its tasks leave the count where it was.
func TestAttachParentCapacityProtocol(t *testing.T) {
	d := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := d.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	var mu sync.Mutex
	var pushed []fproto.CapacityHint
	cli, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{
		OnNotify: func(method string, body json.RawMessage) {
			if method != fproto.NotifyCapacity {
				return
			}
			var h fproto.CapacityHint
			if err := json.Unmarshal(body, &h); err != nil {
				t.Errorf("bad capacity body: %v", err)
				return
			}
			mu.Lock()
			pushed = append(pushed, h)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	// awaitPush waits for the nth push and requires it to report slots.
	awaitPush := func(n, slots int, after string) fproto.CapacityHint {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			mu.Lock()
			got := append([]fproto.CapacityHint(nil), pushed...)
			mu.Unlock()
			if len(got) > n {
				t.Fatalf("%d capacity pushes after %s, want %d: %+v", len(got), after, n, got)
			}
			if len(got) == n {
				if got[n-1].Executors != slots {
					t.Fatalf("push after %s reports %d slots, want %d", after, got[n-1].Executors, slots)
				}
				return got[n-1]
			}
			if time.Now().After(deadline) {
				t.Fatalf("no NotifyCapacity push after %s", after)
			}
		}
	}

	var attach fproto.CapacityHint
	if err := cli.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{Parent: "test-root"}, &attach); err != nil {
		t.Fatal(err)
	}
	if attach.Executors != 0 || attach.Epoch == 0 || attach.Seq == 0 {
		t.Fatalf("attach snapshot = %+v, want no slots, stamped with an epoch and a seq", attach)
	}

	var create fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "root"}, &create); err != nil {
		t.Fatal(err)
	}
	var gen task.IDGen
	var rep fproto.SubmitReply
	if err := cli.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: create.EPR, Tasks: task.Batch(&gen, 10, 0)}, &rep); err != nil {
		t.Fatal(err)
	}

	// Registering an executor changes the count: one push.
	ex, err := executor.Start(executor.Options{ID: "cap-exec", DispatcherAddr: d.Addr(), SleepScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	first := awaitPush(1, 1, "an executor registered")
	if first.Epoch != attach.Epoch || first.Seq <= attach.Seq {
		t.Fatalf("push %+v is not fresher than the attach snapshot %+v", first, attach)
	}
	// Its ten deliveries change nothing a parent is told.
	for deadline := time.Now().Add(10 * time.Second); d.Stats().Completed < 10; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("tasks never ran: %+v", d.Stats())
		}
	}
	awaitPush(1, 1, "ten deliveries")

	// Hints count worker slots, not executors: a 4-slot executor is four.
	wide, err := executor.Start(executor.Options{ID: "cap-wide", DispatcherAddr: d.Addr(), Slots: 4, SleepScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	second := awaitPush(2, 5, "a 4-slot executor registered")
	wide.Stop()
	third := awaitPush(3, 1, "it deregistered")
	if second.Seq <= first.Seq || third.Seq <= second.Seq {
		t.Fatalf("push seqs %d, %d, %d do not ascend", first.Seq, second.Seq, third.Seq)
	}
}

// Slots compose: an interior node's executors are its links, each registered
// with its child's slots, so at any depth a hint is the worker slots below.
func TestCapacityHintsComposeThroughATree(t *testing.T) {
	var leaves []string
	for i, slots := range []int{3, 2} {
		d := dispatch.New(dispatch.Options{Logf: t.Logf})
		if err := d.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		ex, err := executor.Start(executor.Options{ID: fmt.Sprintf("deep-%d", i), DispatcherAddr: d.Addr(), Slots: slots})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ex.Stop)
		leaves = append(leaves, d.Addr())
	}
	tier := func(children ...string) string {
		f := dispatch.New(dispatch.Options{Leaves: children, Logf: t.Logf})
		if err := f.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f.Addr()
	}
	top := tier(tier(leaves[0]), tier(leaves[1])) // depth 3: the top root's links are to roots
	cli, err := wsrpc.Dial(top, wsrpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	var hint fproto.CapacityHint
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err := cli.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{}, &hint); err != nil {
			t.Fatal(err)
		}
		if hint.Executors == 5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the top root reports %+v, want the 5 worker slots of the bottom leaves", hint)
		}
	}
}
