package dispatch

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseTenantSpecTable(t *testing.T) {
	cases := []struct {
		in      string
		want    TenantSpec
		wantErr string
	}{
		{in: "analytics", want: TenantSpec{Name: "analytics", Weight: 1}},
		{in: "  padded  ", want: TenantSpec{Name: "padded", Weight: 1}},
		{in: "a:weight=4", want: TenantSpec{Name: "a", Weight: 4}},
		{in: "a:weight=0.5", want: TenantSpec{Name: "a", Weight: 0.5}},
		{
			in:   "prod:weight=4,quota=10000,rate=5000,burst=1000",
			want: TenantSpec{Name: "prod", Weight: 4, Quota: 10000, Rate: 5000, Burst: 1000},
		},
		{in: "a: weight=2 , quota=5 ", want: TenantSpec{Name: "a", Weight: 2, Quota: 5}},
		{in: "a:quota=0,rate=0", want: TenantSpec{Name: "a", Weight: 1}}, // zero = unlimited
		{in: "", wantErr: "empty tenant name"},
		{in: "   ", wantErr: "empty tenant name"},
		{in: ":weight=1", wantErr: "empty tenant name"},
		{in: "a:weight=0", wantErr: "weight must be > 0"},
		{in: "a:weight=-1", wantErr: "weight must be > 0"},
		{in: "a:weight=NaN", wantErr: "bad weight"},
		{in: "a:weight=x", wantErr: "bad weight"},
		{in: "a:quota=-5", wantErr: "quota must be >= 0"},
		{in: "a:quota=1.5", wantErr: "bad quota"},
		{in: "a:rate=-1", wantErr: "rate must be >= 0"},
		{in: "a:rate=oops", wantErr: "bad rate"},
		{in: "a:burst=-2", wantErr: "burst must be >= 0"},
		{in: "a:maxq=5", wantErr: "unknown option"}, // a queue bound nothing enforced, removed
		{in: "a:turbo=9", wantErr: "unknown option"},
		{in: "a:weight", wantErr: "malformed option"},
	}
	for _, tc := range cases {
		got, err := ParseTenantSpec(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseTenantSpec(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTenantSpec(%q) unexpected error: %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseTenantSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseTenantSpecsRejectsDuplicates(t *testing.T) {
	if _, err := ParseTenantSpecs([]string{"a:weight=1", "b", "a:quota=5"}); err == nil || !strings.Contains(err.Error(), "duplicate tenant") {
		t.Fatalf("duplicate name not rejected: %v", err)
	}
	specs, err := ParseTenantSpecs([]string{"a:weight=2", "b:rate=100"})
	if err != nil || len(specs) != 2 {
		t.Fatalf("valid list rejected: %v (%d specs)", err, len(specs))
	}
}

func TestLoadTenantsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.conf")
	content := `# production tenants
prod:weight=4,quota=10000   # the big one
batch:weight=1,rate=500

interactive:weight=8
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Name != "prod" || specs[0].Quota != 10000 || specs[2].Weight != 8 {
		t.Fatalf("parsed specs = %+v", specs)
	}
	// Errors carry the file path for operator diagnosis.
	bad := filepath.Join(t.TempDir(), "bad.conf")
	os.WriteFile(bad, []byte("a:weight=-1\n"), 0o644)
	if _, err := LoadTenantsFile(bad); err == nil || !strings.Contains(err.Error(), "bad.conf") {
		t.Fatalf("bad file error = %v", err)
	}
	if _, err := LoadTenantsFile(filepath.Join(t.TempDir(), "missing.conf")); err == nil {
		t.Fatal("missing file not reported")
	}
}

// fakeClock drives the token bucket deterministically.
type fakeClock struct{ at time.Duration }

func (f *fakeClock) now() time.Duration { return f.at }

func TestTenantQuotaAdmitRelease(t *testing.T) {
	clk := &fakeClock{}
	tbl := newTenantTable([]TenantSpec{{Name: "a", Weight: 1, Quota: 10}}, clk.now)
	if _, ok := tbl.admit("a", 10, true); !ok {
		t.Fatal("admission up to quota refused")
	}
	retry, ok := tbl.admit("a", 1, true)
	if ok || retry <= 0 {
		t.Fatalf("over-quota admit = ok=%v retry=%d, want throttle with positive retry", ok, retry)
	}
	// Results coming back open headroom.
	tbl.release("a", 4, false)
	if _, ok := tbl.admit("a", 4, true); !ok {
		t.Fatal("admission after release refused")
	}
	if _, ok := tbl.admit("a", 1, true); ok {
		t.Fatal("quota not re-enforced after refill")
	}
	rows := tbl.snapshot(map[string]int{"a": 3})
	if len(rows) != 1 || rows[0].InFlight != 10 || rows[0].Completed != 4 || rows[0].Throttled != 2 || rows[0].Queued != 3 {
		t.Fatalf("snapshot = %+v", rows)
	}
}

func TestTenantRateBucketRefillBoundary(t *testing.T) {
	clk := &fakeClock{}
	// 100 tasks/sec, burst 10: the bucket starts full.
	tbl := newTenantTable([]TenantSpec{{Name: "a", Rate: 100, Burst: 10}}, clk.now)
	if _, ok := tbl.admit("a", 10, true); !ok {
		t.Fatal("burst admission refused on a full bucket")
	}
	// Bucket empty: the very next task must throttle with the exact
	// one-token refill time (1 token / 100 per sec = 10ms).
	retry, ok := tbl.admit("a", 1, true)
	if ok {
		t.Fatal("admission on an empty bucket")
	}
	if retry != 10 {
		t.Fatalf("retry-after = %dms, want 10ms (1 token at 100/s)", retry)
	}
	// One nanosecond before the refill boundary: still short.
	clk.at = 10*time.Millisecond - time.Nanosecond
	if _, ok := tbl.admit("a", 1, true); ok {
		t.Fatal("admitted a hair before the token refilled")
	}
	// At the boundary the single token is there — and is consumed.
	clk.at = 10 * time.Millisecond
	if _, ok := tbl.admit("a", 1, true); !ok {
		t.Fatal("refused at the exact refill boundary")
	}
	if _, ok := tbl.admit("a", 1, true); ok {
		t.Fatal("token double-spent")
	}
	// The bucket never overfills past burst: after a long idle stretch
	// only burst tokens are available.
	clk.at += time.Hour
	if _, ok := tbl.admit("a", 10, true); !ok {
		t.Fatal("burst refused after idle")
	}
	if _, ok := tbl.admit("a", 1, true); ok {
		t.Fatal("bucket overfilled past burst")
	}
}

func TestTenantOversizedBundleMakesProgress(t *testing.T) {
	clk := &fakeClock{}
	// A 64-task bundle against burst 8 at 400/s: no amount of waiting
	// makes the bucket hold 64 tokens, so the full bucket must cover it
	// by going into debt.
	tbl := newTenantTable([]TenantSpec{{Name: "a", Rate: 400, Burst: 8}}, clk.now)
	if _, ok := tbl.admit("a", 64, true); !ok {
		t.Fatal("oversized bundle refused on a full bucket")
	}
	// The debt (-56 tokens) blocks everything until repaid: 1 task needs
	// 57 tokens' worth of refill = 142.5ms, and the retry hint says so.
	retry, ok := tbl.admit("a", 1, true)
	if ok {
		t.Fatal("admitted while the bucket was in debt")
	}
	if retry != 143 {
		t.Fatalf("retry-after = %dms, want 143ms (57 tokens at 400/s, rounded up)", retry)
	}
	clk.at = 143 * time.Millisecond
	if _, ok := tbl.admit("a", 1, true); !ok {
		t.Fatal("refused after the debt was repaid")
	}

	// Same shape for quota: a bundle past the whole cap admits only from
	// a fully drained state, then blocks until the overshoot drains.
	tbl2 := newTenantTable([]TenantSpec{{Name: "b", Quota: 8}}, clk.now)
	if _, ok := tbl2.admit("b", 64, true); !ok {
		t.Fatal("oversized bundle refused against an idle quota")
	}
	if _, ok := tbl2.admit("b", 1, true); ok {
		t.Fatal("admitted past an overshot quota")
	}
	tbl2.release("b", 60, false)
	if _, ok := tbl2.admit("b", 4, true); !ok {
		t.Fatal("refused after the overshoot drained")
	}
}

func TestTenantUnadmitRefunds(t *testing.T) {
	clk := &fakeClock{}
	tbl := newTenantTable([]TenantSpec{{Name: "a", Quota: 10, Rate: 100, Burst: 10}}, clk.now)
	if _, ok := tbl.admit("a", 10, true); !ok {
		t.Fatal("admit refused")
	}
	// 6 of the bundle turn out to be duplicates: refund restores both
	// quota headroom and rate tokens.
	tbl.unadmit("a", 6)
	if _, ok := tbl.admit("a", 6, true); !ok {
		t.Fatal("refunded capacity not re-admittable")
	}
	rows := tbl.snapshot(nil)
	if rows[0].InFlight != 10 || rows[0].Submitted != 10 {
		t.Fatalf("after refund+readmit: %+v", rows[0])
	}
}

func TestTenantDefaultsAndRestore(t *testing.T) {
	clk := &fakeClock{}
	tbl := newTenantTable(nil, clk.now)
	// Undeclared tenants are unlimited but still tracked.
	if _, ok := tbl.admit("stranger", 1_000_000, true); !ok {
		t.Fatal("undeclared tenant throttled")
	}
	// A nil table (multi-tenancy off) admits everything and snapshots nil.
	var off *tenantTable
	if _, ok := off.admit("x", 5, true); !ok {
		t.Fatal("nil table throttled")
	}
	off.release("x", 5, false)
	off.admit("x", 5, false)
	off.unadmit("x", 1)
	if off.snapshot(nil) != nil {
		t.Fatal("nil table produced stats rows")
	}
	// Recovery and a tree parent's work bypass limits.
	tbl2 := newTenantTable([]TenantSpec{{Name: "a", Quota: 1}}, clk.now)
	tbl2.admit("a", 50, false)
	rows := tbl2.snapshot(nil)
	if rows[0].InFlight != 50 || rows[0].Throttled != 0 {
		t.Fatalf("an unchecked admit did not bypass quota: %+v", rows[0])
	}
}

func TestTenantWeightExtraction(t *testing.T) {
	w := tenantWeights([]TenantSpec{{Name: "a", Weight: 4}, {Name: "b", Weight: 1}})
	if w["a"] != 4 || w["b"] != 1 {
		t.Fatalf("weights = %v", w)
	}
	if tenantWeights(nil) != nil {
		t.Fatal("empty specs produced a weight map")
	}
}

// FuzzTenantSpec: ParseTenantSpec takes what an operator types after -tenant
// or into a -tenants file. On any string it returns an error or a spec the
// admission table and the fair-share weights can use as is — a name, a
// finite weight > 0, finite non-negative limits — and that spec, written back
// out in the syntax it came in, parses to itself.
func FuzzTenantSpec(f *testing.F) {
	for _, seed := range []string{
		// README's examples, then the shapes the table test rejects.
		"prod:weight=4,quota=20000",
		"batch:weight=1,rate=2000,burst=500",
		"batch:rate=2000,burst=200",
		"prod:weight=4,quota=10000,rate=5000,burst=1000",
		"analytics", "  padded  ", "a: weight=2 , quota=5 ", "a:weight=1e-3,rate=0x1p4",
		"", ":weight=1", "a:weight=NaN", "a:rate=Inf", "a:burst=-0", "a:quota=1.5", "a:turbo=9", "a:weight",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseTenantSpec(in)
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if spec.Name == "" || !finite(spec.Weight) || spec.Weight <= 0 ||
			!finite(spec.Rate) || spec.Rate < 0 || !finite(spec.Burst) || spec.Burst < 0 ||
			spec.Quota < 0 {
			t.Fatalf("ParseTenantSpec(%q) accepted %+v", in, spec)
		}
		g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		out := fmt.Sprintf("%s:weight=%s,quota=%d,rate=%s,burst=%s",
			spec.Name, g(spec.Weight), spec.Quota, g(spec.Rate), g(spec.Burst))
		again, err := ParseTenantSpec(out)
		if err != nil || again != spec {
			t.Fatalf("ParseTenantSpec(%q) = %+v; written back as %q it parses to %+v, %v", in, spec, out, again, err)
		}
	})
}
