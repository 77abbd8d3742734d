package simfalkon

import "testing"

func TestAxisModelShape(t *testing.T) {
	m := DefaultAxisCostModel()
	// Unbundled submission lands near the paper's ~20 tasks/s.
	if tp := m.Throughput(1); tp < 15 || tp > 25 {
		t.Fatalf("bundle-1 throughput = %.1f, want ~20", tp)
	}
	// Peak is just under 1,500 tasks/s around bundle size 300.
	opt := m.OptimalBundle(2000)
	if opt < 200 || opt > 400 {
		t.Fatalf("optimal bundle = %d, want ~300", opt)
	}
	peak := m.Throughput(opt)
	if peak < 1300 || peak > 1600 {
		t.Fatalf("peak throughput = %.0f, want ~1500", peak)
	}
	// Performance declines past the peak (the Axis grow-copy effect).
	if m.Throughput(1920) >= peak {
		t.Fatal("throughput did not decline past the peak")
	}
	// Per-task cost is monotonically non-increasing up to the optimum.
	for n := 2; n <= opt; n++ {
		if m.PerTaskCost(n) > m.PerTaskCost(n-1) {
			t.Fatalf("per-task cost rose before the optimum at n=%d", n)
		}
	}
}

func TestAxisModelPanics(t *testing.T) {
	m := DefaultAxisCostModel()
	for _, fn := range []func(){
		func() { m.MessageCost(-1) },
		func() { m.PerTaskCost(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// BenchmarkAxisCostModel measures the bundling cost-model arithmetic.
func BenchmarkAxisCostModel(b *testing.B) {
	b.ReportAllocs()
	m := DefaultAxisCostModel()
	for i := 0; i < b.N; i++ {
		_ = m.MessageCost(300)
	}
}
