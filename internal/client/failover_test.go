package client_test

import (
	"os"
	"testing"
	"time"

	"falkon/internal/backoff"
	"falkon/internal/client"
	"falkon/internal/dispatch"
	"falkon/internal/executor"
	"falkon/internal/fproto"
	"falkon/internal/task"
)

// TestMain makes every session in this package's tests redial quickly, so
// the failover tests are snappy.
func TestMain(m *testing.M) {
	backoff.Default = backoff.Policy{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2}
	os.Exit(m.Run())
}

// TestSplitAddrs pins the dispatcher-chain syntax shared by the client and
// executor attach paths.
func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ,", []string{"a:1", "b:2"}},
		{"", nil},
		{",,", nil},
	}
	for _, c := range cases {
		got := fproto.SplitAddrs(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("SplitAddrs(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("SplitAddrs(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

// TestClientFailsOverToFallbackDispatcher attaches a client to a leaf with a
// root-fallback chain, kills the leaf, and expects the client to re-home on
// the fallback — offering its EPR there, which the fallback never held and
// refuses, then resubmitting owed work under a fresh instance — and to keep
// delivering exactly once.
func TestClientFailsOverToFallbackDispatcher(t *testing.T) {
	leaf := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := leaf.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	root := dispatch.New(dispatch.Options{Logf: t.Logf})
	if err := root.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	// One executor chained the same way: when the leaf dies it follows the
	// client to the fallback.
	ex, err := executor.Start(executor.Options{
		ID: "fo-exec", DispatcherAddr: leaf.Addr() + "," + root.Addr(),
		SleepScale: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ex.Stop)

	c, err := client.Connect(client.Options{
		DispatcherAddr: leaf.Addr() + "," + root.Addr(),
		BundleSize:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var gen task.IDGen
	if err := c.Submit(task.Batch(&gen, 20, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(20, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Owed work in flight, then the leaf crashes for good (no restart).
	eprBefore := c.EPR()
	if err := c.Submit(task.Batch(&gen, 30, 2*time.Second)); err != nil { // 2ms real
		t.Fatal(err)
	}
	leaf.Abort()

	rs, err := c.WaitN(30, 30*time.Second)
	if err != nil {
		t.Fatalf("tasks lost across failover: %v", err)
	}
	seen := make(map[task.ID]bool)
	for _, r := range rs {
		if seen[r.ID] {
			t.Fatalf("duplicate result %v", r.ID)
		}
		seen[r.ID] = true
	}
	if c.Reconnects() < 1 {
		t.Fatalf("reconnects = %d, want ≥1", c.Reconnects())
	}
	// The client offered its EPR to the fallback, which never held it and
	// refused it: the client lives on a fresh instance there, the only one.
	if epr := c.EPR(); epr == eprBefore || epr == "" {
		t.Fatalf("EPR %q on the fallback, was %q on the leaf: want a fresh instance", epr, eprBefore)
	}
	if st := root.Stats(); st.Instances != 1 {
		t.Fatalf("the fallback holds %d instances, want the client's fresh one only", st.Instances)
	}
	// The fallback admitted exactly what the client resubmitted to it and it
	// did not hold. The resubmit's reply may land after its results.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		got, want := root.Stats().Submitted, c.Resubmitted()-c.Deduped()
		if got == want && want > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the fallback admitted %d tasks; the client resubmitted %d, %d of them deduped", got, c.Resubmitted(), c.Deduped())
		}
	}

	// The fallback is now home: fresh work flows without the leaf.
	if err := c.Submit(task.Batch(&gen, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitN(10, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Stats(); err != nil || st.Completed == 0 {
		t.Fatalf("fallback dispatcher stats = %+v, err %v", st, err)
	}
}
