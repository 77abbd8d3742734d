package dispatch_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/forward"
	"falkon/internal/fproto"
	"falkon/internal/task"
	"falkon/internal/wsrpc"
)

// TestAttachParentCapacityProtocol exercises the tree-parent side of the
// dispatcher: attach-parent returns a capacity snapshot, submit replies
// piggy-back fresh hints for attached parents (and only for them), and
// executor-population changes push NotifyCapacity upward.
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

	var attach fproto.CapacityHint
	if err := cli.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{Parent: "test-root"}, &attach); err != nil {
		t.Fatal(err)
	}
	if attach.Executors != 0 || attach.Queued != 0 {
		t.Fatalf("attach snapshot = %+v, want empty dispatcher", attach)
	}

	var create fproto.CreateInstanceReply
	if err := cli.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "root"}, &create); err != nil {
		t.Fatal(err)
	}

	// A parent's submit acknowledgment carries a fresh hint reflecting the
	// queued bundle.
	var gen task.IDGen
	var rep fproto.SubmitReply
	if err := cli.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: create.EPR, Tasks: task.Batch(&gen, 10, 0)}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Capacity == nil {
		t.Fatal("submit reply from attached parent has no capacity hint")
	}
	if rep.Capacity.Queued != 10 {
		t.Fatalf("hint queued = %d, want 10", rep.Capacity.Queued)
	}
	if rep.Capacity.Seq <= attach.Seq {
		t.Fatalf("hint seq %d not newer than attach seq %d", rep.Capacity.Seq, attach.Seq)
	}

	// Registering an executor is a forced capacity push to the parent.
	ex, err := executor.Start(executor.Options{ID: "cap-exec", DispatcherAddr: d.Addr(), SleepScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(pushed)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no NotifyCapacity push after executor registration")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	last := pushed[len(pushed)-1]
	mu.Unlock()
	if last.Executors != 1 {
		t.Fatalf("pushed hint executors = %d, want 1", last.Executors)
	}

	// Hints count worker slots, not executors: a 4-slot executor is four, and
	// an idle one has four free.
	wide, err := executor.Start(executor.Options{ID: "cap-wide", DispatcherAddr: d.Addr(), Slots: 4, SleepScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wide.Stop)
	var hint fproto.CapacityHint
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if err := cli.Call(fproto.MethodAttachParent, fproto.AttachParentRequest{}, &hint); err != nil {
			t.Fatal(err)
		}
		if hint.Executors == 5 && hint.IdleSlots == 5 && hint.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hint with a 1-slot and a 4-slot executor idle = %+v, want 5 slots, 5 free", hint)
		}
	}

	// A plain client (never attached) gets no hint on submit.
	plain, err := wsrpc.Dial(d.Addr(), wsrpc.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })
	var create2 fproto.CreateInstanceReply
	if err := plain.Call(fproto.MethodCreateInstance, fproto.CreateInstanceRequest{ClientName: "plain"}, &create2); err != nil {
		t.Fatal(err)
	}
	var rep2 fproto.SubmitReply
	if err := plain.Call(fproto.MethodSubmit, fproto.SubmitRequest{EPR: create2.EPR, Tasks: task.Batch(&gen, 1, 0)}, &rep2); err != nil {
		t.Fatal(err)
	}
	if rep2.Capacity != nil {
		t.Fatalf("plain client got capacity hint %+v", rep2.Capacity)
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
		f, err := forward.New(forward.Options{Dispatchers: children, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
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
		if hint.Executors == 5 && hint.IdleSlots == 5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the top root reports %+v, want the 5 worker slots of the bottom leaves, all free", hint)
		}
	}
}
