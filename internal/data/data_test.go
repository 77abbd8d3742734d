package data

import (
	"math"
	"testing"
	"time"
)

const dispatchCap = 487 // the paper's no-security dispatch ceiling

func TestSmallTasksHitDispatchCeiling(t *testing.T) {
	// At 1 byte, every configuration except GPFS read+write runs at the
	// dispatch ceiling.
	for _, p := range []Profile{GPFSRead, LocalRead, LocalReadWrite} {
		if got := p.TaskThroughput(1, dispatchCap); got != dispatchCap {
			t.Fatalf("%s throughput(1B) = %v, want %v", p.Name, got, dispatchCap)
		}
	}
	// GPFS read+write is capped at 150 tasks/s even for 1-byte data.
	if got := GPFSReadWrite.TaskThroughput(1, dispatchCap); got != 150 {
		t.Fatalf("GPFS r+w throughput(1B) = %v, want 150", got)
	}
}

func TestOneGBThroughputMatchesPaper(t *testing.T) {
	// Paper: with 1 GB data, throughput was 0.04, 0.4, 4.28 and 6.81
	// tasks/s for GPFS r+w, GPFS read, LOCAL r+w, LOCAL read.
	const gb = 1 << 30
	cases := []struct {
		p    Profile
		want float64
	}{
		{GPFSReadWrite, 0.04},
		{GPFSRead, 0.4},
		{LocalReadWrite, 4.28},
		{LocalRead, 6.81},
	}
	for _, c := range cases {
		got := c.p.TaskThroughput(gb, dispatchCap)
		if math.Abs(got-c.want)/c.want > 0.15 {
			t.Fatalf("%s throughput(1GB) = %.3f, want ~%.2f", c.p.Name, got, c.want)
		}
	}
}

func TestDataRatePlateaus(t *testing.T) {
	// As sizes grow, Mb/s approaches each profile's aggregate cap.
	const gb = 1 << 30
	for _, p := range []Profile{GPFSRead, GPFSReadWrite, LocalRead, LocalReadWrite} {
		got := p.DataMbps(gb, dispatchCap)
		if math.Abs(got-p.AggregateMbps)/p.AggregateMbps > 0.01 {
			t.Fatalf("%s Mb/s(1GB) = %.0f, want plateau %.0f", p.Name, got, p.AggregateMbps)
		}
	}
}

func TestThroughputMonotonicallyNonIncreasing(t *testing.T) {
	for _, p := range []Profile{GPFSRead, GPFSReadWrite, LocalRead, LocalReadWrite} {
		prev := math.Inf(1)
		for size := int64(1); size <= 1<<30; size *= 4 {
			got := p.TaskThroughput(size, dispatchCap)
			if got > prev {
				t.Fatalf("%s throughput rose at size %d: %v > %v", p.Name, size, got, prev)
			}
			prev = got
		}
	}
}

func TestStageTimeScalesWithConcurrency(t *testing.T) {
	const mb = 1 << 20
	solo := GPFSRead.StageTime(mb, 1)
	crowd := GPFSRead.StageTime(mb, 128)
	if crowd <= solo {
		t.Fatalf("contention did not slow staging: %v vs %v", solo, crowd)
	}
	ratio := float64(crowd) / float64(solo)
	if math.Abs(ratio-128) > 1 {
		t.Fatalf("contention ratio = %.1f, want 128", ratio)
	}
}

func TestStageTimeOpsFloor(t *testing.T) {
	// GPFS read+write with many concurrent 1-byte writers is bounded by
	// the ops cap: 128 concurrent tasks / 150 ops/s.
	got := GPFSReadWrite.StageTime(1, 128)
	ratio := 128.0 / 150.0
	want := time.Duration(ratio * float64(time.Second))
	if math.Abs(float64(got-want)) > float64(10*time.Millisecond) {
		t.Fatalf("ops-floor stage time = %v, want ~%v", got, want)
	}
}

func TestStageTimeZeroSize(t *testing.T) {
	if got := LocalRead.StageTime(0, 4); got != 0 {
		t.Fatalf("zero-size stage time = %v", got)
	}
}

func TestForTask(t *testing.T) {
	cases := []struct {
		loc    string
		writes bool
		want   string
	}{
		{"shared", false, "GPFS read"},
		{"shared", true, "GPFS read+write"},
		{"", false, "GPFS read"},
		{"local", false, "LOCAL read"},
		{"local", true, "LOCAL read+write"},
	}
	for _, c := range cases {
		p, err := ForTask(c.loc, c.writes)
		if err != nil || p.Name != c.want {
			t.Fatalf("ForTask(%q, %v) = %v, %v", c.loc, c.writes, p.Name, err)
		}
	}
	if _, err := ForTask("tape", false); err == nil {
		t.Fatal("unknown location accepted")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	GPFSRead.TaskThroughput(-1, dispatchCap)
}
