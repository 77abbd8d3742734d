package falkon_test

import (
	"sync/atomic"
	"testing"
	"time"

	"falkon"
)

func TestSystemStaticPool(t *testing.T) {
	sys, err := falkon.Start(falkon.Config{
		Executors:  4,
		BundleSize: 25,
		SleepScale: 0.001,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var gen falkon.IDGen
	if err := sys.Submit(falkon.SleepBatch(&gen, 200, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := sys.WaitN(200, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Failed() {
			t.Fatalf("task failed: %+v", r)
		}
	}
	st := sys.Stats()
	if st.Completed != 200 || st.TotalExecutors != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSystemSecure(t *testing.T) {
	sys, err := falkon.Start(falkon.Config{
		Executors:  2,
		PSK:        []byte("system-test-key"),
		BundleSize: 10,
		SleepScale: 0.001,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var gen falkon.IDGen
	if err := sys.Submit(falkon.SleepBatch(&gen, 40, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WaitN(40, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSystemProvisioned(t *testing.T) {
	sys, err := falkon.Start(falkon.Config{
		SleepScale: 0.001,
		BundleSize: 16,
		Provisioning: &falkon.ProvisioningConfig{
			MaxExecutors: 4,
			IdleTimeout:  200 * time.Millisecond,
			Release:      falkon.ReleaseDistributed,
			Acquisition:  falkon.AllAtOnce(),
			PollInterval: 20 * time.Millisecond,
			StartupDelay: 10 * time.Millisecond,
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var gen falkon.IDGen
	if err := sys.Submit(falkon.SleepBatch(&gen, 64, time.Second)); err != nil {
		t.Fatal(err)
	}
	rs, err := sys.WaitN(64, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 64 {
		t.Fatalf("results = %d", len(rs))
	}
	if sys.Provisioner().Allocations() == 0 {
		t.Fatal("provisioner never allocated")
	}
}

func TestSystemFuncTasks(t *testing.T) {
	sys, err := falkon.Start(falkon.Config{
		Executors: 2,
		Funcs: map[string]falkon.Func{
			"double": func(tk falkon.Task) (string, int, error) {
				return tk.Args[0] + tk.Args[0], 0, nil
			},
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	err = sys.Submit([]falkon.Task{{ID: 1, Engine: falkon.EngineFunc, Command: "double", Args: []string{"ab"}}})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sys.WaitN(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Stdout != "abab" {
		t.Fatalf("stdout = %q", rs[0].Stdout)
	}
}

func TestSystemDataAwarePolicy(t *testing.T) {
	var staged atomic.Int64
	// No option is set: the tasks name their datasets, and that is all data-aware
	// dispatch needs.
	sys, err := falkon.Start(falkon.Config{
		Executors:  2,
		BundleSize: 8,
		DataCost: func(io falkon.IOSpec) time.Duration {
			staged.Add(1)
			return time.Millisecond
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var tasks []falkon.Task
	var gen falkon.IDGen
	for i := 0; i < 32; i++ {
		tasks = append(tasks, falkon.Task{
			ID:     gen.Next(),
			Engine: falkon.EngineData,
			IO:     &falkon.IOSpec{ReadBytes: 1 << 20, Dataset: []string{"a", "b"}[i%2]},
		})
	}
	if err := sys.Submit(tasks); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WaitN(32, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.CacheHits == 0 {
		t.Fatalf("no cache hits: %+v", st)
	}
	if n := staged.Load(); n >= 32 {
		t.Fatalf("every task staged (%d); cache hits should skip staging", n)
	}
}

func TestLiveEnduranceMini(t *testing.T) {
	// A miniature of the paper's Figure 8 endurance run on the real TCP
	// runtime: submit far more tasks than the pool can absorb instantly,
	// watch the dispatcher queue grow and then fully drain.
	sys, err := falkon.Start(falkon.Config{Executors: 2, BundleSize: 500, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const total = 20000
	var gen falkon.IDGen
	peak := 0
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		for {
			st := sys.Stats()
			if st.Queued > peak {
				peak = st.Queued
			}
			if st.Completed+st.Failed >= total {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	if err := sys.Submit(falkon.SleepBatch(&gen, total, 0)); err != nil {
		t.Fatal(err)
	}
	rs, err := sys.WaitN(total, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	<-sampler
	if len(rs) != total {
		t.Fatalf("results = %d", len(rs))
	}
	if peak < 100 {
		t.Fatalf("queue peak = %d; expected a visible backlog", peak)
	}
	st := sys.Stats()
	if st.Queued != 0 || st.Outstanding != 0 || st.Completed != total {
		t.Fatalf("end state: %+v", st)
	}
}
