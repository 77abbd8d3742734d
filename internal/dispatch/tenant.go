package dispatch

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"falkon/internal/fproto"
)

// Multi-tenant admission control: every instance belongs to a tenant
// (default "default"), and the dispatcher's front door enforces per-tenant
// quotas (max in-flight tasks) and token-bucket rate limits at submit
// time. A bundle that trips a limit is not an error — the reply carries a
// retry-after hint and the client backs off, so a flooding tenant throttles
// itself instead of starving everyone behind the shared WAL and queues.
// Declaring any tenant also makes the queue start-time fair queuing over the
// declared weights (sched.FairShare); with none it is the paper's FIFO. In a
// tree a tenant is admitted once, where its client attaches: work a tree
// parent sends is charged to its tenant but checked against no limit.

// TenantSpec declares one tenant's scheduling weight and admission limits.
type TenantSpec struct {
	// Name identifies the tenant (matched against the instance-create
	// tenant field).
	Name string
	// Weight is the fair-share scheduling weight (default 1): a weight-2
	// tenant receives twice the service of a weight-1 tenant while both
	// are backlogged.
	Weight float64
	// Quota caps the tenant's in-flight (accepted, not yet finished)
	// tasks; 0 = unlimited. Submissions past the cap are throttled.
	Quota int
	// Rate is the sustained submit rate in tasks/second; 0 = unlimited.
	Rate float64
	// Burst is the token-bucket depth in tasks (default = one second of
	// Rate). Meaningless without Rate.
	Burst float64
}

// effectiveBurst resolves the bucket depth (one second of rate when unset).
func (s TenantSpec) effectiveBurst() float64 {
	if s.Burst > 0 {
		return s.Burst
	}
	if s.Rate > 0 {
		return math.Max(s.Rate, 1)
	}
	return 0
}

// tenantKey is one option a tenant spec takes: its key, whether its value is
// an integer, and where the value goes.
type tenantKey struct {
	key   string
	whole bool
	set   func(*TenantSpec, float64)
}

// tenantKeys is every option a tenant spec takes: the parser knows no other,
// and TestLiveTenantKeysAct runs each on the live path. Every value is a
// finite number >= 0; a weight must also be > 0.
var tenantKeys = []tenantKey{
	{"weight", false, func(s *TenantSpec, v float64) { s.Weight = v }},
	{"quota", true, func(s *TenantSpec, v float64) { s.Quota = int(v) }},
	{"rate", false, func(s *TenantSpec, v float64) { s.Rate = v }},
	{"burst", false, func(s *TenantSpec, v float64) { s.Burst = v }},
}

// ParseTenantSpec parses one "name" or "name:key=value,key=value" spec, the
// keys those of tenantKeys.
func ParseTenantSpec(s string) (TenantSpec, error) {
	spec := TenantSpec{Weight: 1}
	name, opts, hasOpts := strings.Cut(strings.TrimSpace(s), ":")
	spec.Name = strings.TrimSpace(name)
	if spec.Name == "" {
		return TenantSpec{}, fmt.Errorf("tenant spec %q: empty tenant name", s)
	}
	if !hasOpts {
		return spec, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return TenantSpec{}, fmt.Errorf("tenant %q: malformed option %q (want key=value)", spec.Name, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		i := slices.IndexFunc(tenantKeys, func(k tenantKey) bool { return k.key == key })
		if i < 0 {
			return TenantSpec{}, fmt.Errorf("tenant %q: unknown option %q", spec.Name, key)
		}
		k := tenantKeys[i]
		v, err := strconv.ParseFloat(val, 64)
		if k.whole {
			var n int
			n, err = strconv.Atoi(val)
			v = float64(n)
		}
		switch {
		case err != nil || math.IsNaN(v) || math.IsInf(v, 0):
			return TenantSpec{}, fmt.Errorf("tenant %q: bad %s %q", spec.Name, key, val)
		case key == "weight" && v <= 0:
			return TenantSpec{}, fmt.Errorf("tenant %q: weight must be > 0, got %v", spec.Name, v)
		case v < 0:
			return TenantSpec{}, fmt.Errorf("tenant %q: %s must be >= 0, got %v", spec.Name, key, v)
		}
		k.set(&spec, v)
	}
	return spec, nil
}

// ParseTenantSpecs parses a list of specs, rejecting duplicate names.
func ParseTenantSpecs(specs []string) ([]TenantSpec, error) {
	out := make([]TenantSpec, 0, len(specs))
	seen := make(map[string]struct{}, len(specs))
	for _, s := range specs {
		spec, err := ParseTenantSpec(s)
		if err != nil {
			return nil, err
		}
		if _, dup := seen[spec.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant %q", spec.Name)
		}
		seen[spec.Name] = struct{}{}
		out = append(out, spec)
	}
	return out, nil
}

// LoadTenantsFile reads tenant specs from a config file: one spec per
// line, '#' comments and blank lines ignored.
func LoadTenantsFile(path string) ([]TenantSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	var lines []string
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lines = append(lines, line)
	}
	specs, err := ParseTenantSpecs(lines)
	if err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	return specs, nil
}

// tenantState is one tenant's runtime admission state.
type tenantState struct {
	spec      TenantSpec
	inflight  int64 // accepted, not yet completed/failed/dropped
	submitted int64
	completed int64
	failed    int64
	throttled int64 // bundles rejected with retry-after
	// Token bucket (only charged when spec.Rate > 0): tokens refill at
	// Rate/sec up to effectiveBurst, one token per accepted task.
	tokens   float64
	lastFill time.Duration
}

// refillLocked advances the bucket to time now.
func (ts *tenantState) refillLocked(now time.Duration) {
	if ts.spec.Rate <= 0 {
		return
	}
	if dt := now - ts.lastFill; dt > 0 {
		ts.tokens = math.Min(ts.spec.effectiveBurst(), ts.tokens+dt.Seconds()*ts.spec.Rate)
	}
	ts.lastFill = now
}

// quotaRetryMillis is the retry-after hint for quota (in-flight cap)
// rejections: quota headroom opens as results come back, so a short,
// fixed backoff is appropriate — unlike rate rejections, where the
// bucket's refill time is computable.
const quotaRetryMillis = 25

// tenantTable is the dispatcher's runtime tenant registry. A nil table
// means multi-tenancy is off: no admission checks, no per-tenant stats.
// Every caller holds Dispatcher.mu (recovery runs before serving starts).
type tenantTable struct {
	now func() time.Duration
	m   map[string]*tenantState
}

func newTenantTable(specs []TenantSpec, now func() time.Duration) *tenantTable {
	t := &tenantTable{now: now, m: make(map[string]*tenantState, len(specs)+1)}
	for _, spec := range specs {
		if spec.Weight <= 0 {
			spec.Weight = 1 // what SFQ serves it at, so what its stats row says
		}
		t.m[spec.Name] = &tenantState{
			spec:     spec,
			tokens:   spec.effectiveBurst(), // start full: an idle tenant may burst
			lastFill: now(),
		}
	}
	return t
}

// getLocked returns name's state, creating an unlimited default on first
// sight (tenants need not be declared to be tracked).
func (t *tenantTable) getLocked(name string) *tenantState {
	ts, ok := t.m[name]
	if !ok {
		ts = &tenantState{spec: TenantSpec{Name: name, Weight: 1}}
		t.m[name] = ts
	}
	return ts
}

// admit charges n fresh tasks to tenant name. With check set they are first
// held to the tenant's quota and rate limit: ok means admitted — in-flight
// and bucket charged; otherwise nothing is, and retryAfterMillis tells the
// client how long to back off. Unchecked is work admitted elsewhere: before a
// crash (journal recovery), or by the tree parent that sent it.
func (t *tenantTable) admit(name string, n int, check bool) (retryAfterMillis int64, ok bool) {
	if t == nil || n <= 0 {
		return 0, true
	}
	ts := t.getLocked(name)
	// Both limits tolerate a bundle bigger than the limit itself: it
	// admits once there is full headroom and overdraws (quota overshoot,
	// negative bucket), blocking further admissions until the debt drains.
	// Without this an oversized bundle would be rejected forever — no
	// amount of waiting makes an 8-deep bucket hold 64 tokens.
	if q := int64(ts.spec.Quota); check && q > 0 && ts.inflight+min(int64(n), q) > q {
		ts.throttled++
		return quotaRetryMillis, false
	}
	if check && ts.spec.Rate > 0 {
		ts.refillLocked(t.now())
		need := math.Min(float64(n), ts.spec.effectiveBurst())
		if ts.tokens < need {
			ts.throttled++
			// Time until the bucket can cover the bundle, rounded up.
			ms := int64(math.Ceil((need - ts.tokens) / ts.spec.Rate * 1000))
			if ms < 1 {
				ms = 1
			}
			return ms, false
		}
		ts.tokens -= float64(n)
	}
	ts.inflight += int64(n)
	ts.submitted += int64(n)
	return 0, true
}

// unadmit refunds n tasks that were admitted but turned out to be
// duplicates the dispatcher already held (admission happens on the bundle
// before deduplication; dedupe under the instance lock refunds here).
func (t *tenantTable) unadmit(name string, n int) {
	if t == nil || n <= 0 {
		return
	}
	ts := t.getLocked(name)
	ts.inflight -= int64(n)
	ts.submitted -= int64(n)
	if ts.spec.Rate > 0 {
		ts.tokens = math.Min(ts.spec.effectiveBurst(), ts.tokens+float64(n))
	}
}

// release retires n in-flight tasks (result delivered, task dropped with
// its instance, or shed at pick for a destroyed instance).
func (t *tenantTable) release(name string, n int, failed bool) {
	if t == nil || n <= 0 {
		return
	}
	ts := t.getLocked(name)
	ts.inflight -= int64(n)
	if failed {
		ts.failed += int64(n)
	} else {
		ts.completed += int64(n)
	}
}

// weights extracts the fair-share weight map for the scheduling core.
func tenantWeights(specs []TenantSpec) map[string]float64 {
	if len(specs) == 0 {
		return nil
	}
	w := make(map[string]float64, len(specs))
	for _, s := range specs {
		if s.Weight > 0 {
			w[s.Name] = s.Weight
		}
	}
	return w
}

// snapshot renders per-tenant stats rows, name-sorted. queued supplies
// per-tenant queue depths gathered from the scheduling core (may be nil).
func (t *tenantTable) snapshot(queued map[string]int) []fproto.TenantStats {
	if t == nil {
		return nil
	}
	names := make([]string, 0, len(t.m))
	for name := range t.m {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]fproto.TenantStats, 0, len(names))
	for _, name := range names {
		ts := t.m[name]
		rows = append(rows, fproto.TenantStats{
			Name:      name,
			Weight:    ts.spec.Weight,
			Queued:    queued[name],
			InFlight:  ts.inflight,
			Submitted: ts.submitted,
			Completed: ts.completed,
			Failed:    ts.failed,
			Throttled: ts.throttled,
			Quota:     ts.spec.Quota,
			Rate:      ts.spec.Rate,
		})
	}
	return rows
}
