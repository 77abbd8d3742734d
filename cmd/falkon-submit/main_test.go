package main

import (
	"testing"
	"time"
)

func TestDurationStats(t *testing.T) {
	ds := []time.Duration{time.Second, 3 * time.Second, 2 * time.Second}
	st := durationStats(ds)
	if st.Mean != 2*time.Second || st.Min != time.Second || st.Max != 3*time.Second {
		t.Fatalf("stats = %+v", st)
	}
	if z := durationStats(nil); z.Mean != 0 || z.Max != 0 {
		t.Fatalf("empty stats = %+v", z)
	}
}
