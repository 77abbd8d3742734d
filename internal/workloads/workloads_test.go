package workloads

import (
	"testing"
	"time"
)

func TestSynthetic18MatchesPaperAggregates(t *testing.T) {
	w := Synthetic18()
	if got := len(w.Stages); got != 18 {
		t.Fatalf("stages = %d, want 18", got)
	}
	if got := w.TotalTasks(); got != 1000 {
		t.Fatalf("tasks = %d, want 1000", got)
	}
	if got := w.TotalCPU(); got != 17820*time.Second {
		t.Fatalf("CPU = %v, want 17820s", got)
	}
	if got := w.IdealMakespan(32); got != 1260*time.Second {
		t.Fatalf("ideal makespan on 32 = %v, want 1260s", got)
	}
	q := w.IdealAvgQueueTime(32)
	if q < 42*time.Second || q > 42500*time.Millisecond {
		t.Fatalf("ideal avg queue = %v, want ~42.2s", q)
	}
	if got := w.AvgTaskTime(); got != 17820*time.Millisecond {
		t.Fatalf("avg task = %v, want 17.82s", got)
	}
}

func TestSynthetic18Shape(t *testing.T) {
	w := Synthetic18()
	counts := make([]int, len(w.Stages))
	for i, s := range w.Stages {
		counts[i] = s.Count
	}
	// Exponential ramp stages 1-7.
	for i := 1; i < 7; i++ {
		if counts[i] != 2*counts[i-1] {
			t.Fatalf("ramp broken at stage %d: %v", i+1, counts[:7])
		}
	}
	// Drop at 8, surge at 9-10, drop at 11.
	if counts[7] != 1 || counts[8] <= 100 || counts[9] <= 100 || counts[10] > 4 {
		t.Fatalf("drop/surge shape broken: %v", counts[7:11])
	}
	// Final stage has a single task; tail decreases.
	if counts[17] != 1 {
		t.Fatalf("last stage = %d", counts[17])
	}
	for i := 13; i < 17; i++ {
		if counts[i+1] > counts[i] {
			t.Fatalf("tail not decreasing: %v", counts[12:])
		}
	}
	// Special durations.
	if w.Stages[7].Duration != 120*time.Second ||
		w.Stages[8].Duration != 6*time.Second ||
		w.Stages[9].Duration != 12*time.Second {
		t.Fatal("special stage durations wrong")
	}
}

func TestMachinesNeededCapped(t *testing.T) {
	w := Synthetic18()
	m := w.MachinesNeeded(32)
	for i, s := range w.Stages {
		want := s.Count
		if want > 32 {
			want = 32
		}
		if m[i] != want {
			t.Fatalf("stage %d machines = %d, want %d", i+1, m[i], want)
		}
	}
}

func TestIdealMakespanSmallMachineCounts(t *testing.T) {
	w := Workload{Stages: []Stage{{4, 10 * time.Second}}}
	if got := w.IdealMakespan(2); got != 20*time.Second {
		t.Fatalf("makespan(2) = %v", got)
	}
	if got := w.IdealMakespan(3); got != 20*time.Second {
		t.Fatalf("makespan(3) = %v (one full wave + partial)", got)
	}
	if got := w.IdealMakespan(8); got != 10*time.Second {
		t.Fatalf("makespan(8) = %v", got)
	}
}

func TestIdealAvgQueueSimple(t *testing.T) {
	// 4 tasks of 10 s on 2 machines: two waves; second wave waits 10 s.
	w := Workload{Stages: []Stage{{4, 10 * time.Second}}}
	if got := w.IdealAvgQueueTime(2); got != 5*time.Second {
		t.Fatalf("avg queue = %v, want 5s", got)
	}
}

func TestFMRISizes(t *testing.T) {
	for _, v := range FMRISizes {
		w := FMRI(v)
		if got := w.TotalTasks(); got != 4*v {
			t.Fatalf("fmri(%d) tasks = %d, want %d", v, got, 4*v)
		}
		if len(w.Stages) != 4 {
			t.Fatalf("fmri stages = %d", len(w.Stages))
		}
		for _, s := range w.Stages {
			if s.Duration < time.Second || s.Duration > 10*time.Second {
				t.Fatalf("fmri task duration %v not 'a few seconds'", s.Duration)
			}
		}
	}
}

func TestFMRIPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FMRI(0)
}

func TestMontageShape(t *testing.T) {
	w := Montage()
	if len(w.Stages) != len(MontageStageNames) {
		t.Fatalf("stage count %d != names %d", len(w.Stages), len(MontageStageNames))
	}
	if w.Stages[0].Count != 487 {
		t.Fatalf("mProject count = %d, want 487 input images", w.Stages[0].Count)
	}
	if w.Stages[1].Count != 2200 {
		t.Fatalf("mDiff+mFit count = %d, want 2200 overlaps", w.Stages[1].Count)
	}
	if w.Stages[len(w.Stages)-1].Count != 1 {
		t.Fatal("final co-add must be a single task")
	}
	// The Falkon run excluding the final co-add should land near the
	// paper's 1,067 s on 32 processors.
	exFinal := Workload{Stages: w.Stages[:len(w.Stages)-1]}
	ideal := exFinal.IdealMakespan(32)
	if ideal < 900*time.Second || ideal > 1150*time.Second {
		t.Fatalf("montage ideal ex-final = %v, want ~1000-1100s", ideal)
	}
}

func TestCatalogMatchesTable5(t *testing.T) {
	cat := Catalog()
	if len(cat) != 12 {
		t.Fatalf("catalog rows = %d, want 12", len(cat))
	}
	for _, c := range cat {
		if c.Application == "" || c.TasksPer == "" || c.Stages == "" {
			t.Fatalf("bad entry %+v", c)
		}
	}
}
