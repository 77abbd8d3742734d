package dispatch

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"falkon/internal/fproto"
)

// Multi-tenant admission control: every instance belongs to a tenant
// (default "default"), and the dispatcher's front door enforces per-tenant
// quotas (max in-flight tasks) and token-bucket rate limits at submit
// time. A bundle that trips a limit is not an error — the reply carries a
// retry-after hint and the client backs off, so a flooding tenant throttles
// itself instead of starving everyone behind the shared WAL and queues.
// Fair-share weights declared here also feed the scheduler's SFQ layer
// (sched.FairShare) when fair-share scheduling is enabled.

// TenantSpec declares one tenant's scheduling weight and admission limits.
type TenantSpec struct {
	// Name identifies the tenant (matched against the instance-create
	// tenant field).
	Name string
	// Weight is the fair-share scheduling weight (default 1): a weight-2
	// tenant receives twice the service of a weight-1 tenant while both
	// are backlogged. Only meaningful with fair-share scheduling on.
	Weight float64
	// Quota caps the tenant's in-flight (accepted, not yet finished)
	// tasks; 0 = unlimited. Submissions past the cap are throttled.
	Quota int
	// Rate is the sustained submit rate in tasks/second; 0 = unlimited.
	Rate float64
	// Burst is the token-bucket depth in tasks (default = one second of
	// Rate). Meaningless without Rate.
	Burst float64
	// MaxQueued bounds the tenant's queued-but-not-dispatched tasks in
	// the scheduling core (sched.FairShare.MaxQueuedBy); 0 = unbounded.
	MaxQueued int
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

// ParseTenantSpec parses one "name" or "name:key=value,key=value" spec.
// Keys: weight (float > 0), quota (int >= 0), rate (float >= 0 tasks/sec),
// burst (float >= 0 tasks), maxq (int >= 0).
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
		switch key {
		case "weight":
			w, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(w) || math.IsInf(w, 0) {
				return TenantSpec{}, fmt.Errorf("tenant %q: bad weight %q", spec.Name, val)
			}
			if w <= 0 {
				return TenantSpec{}, fmt.Errorf("tenant %q: weight must be > 0, got %v", spec.Name, w)
			}
			spec.Weight = w
		case "quota":
			n, err := strconv.Atoi(val)
			if err != nil {
				return TenantSpec{}, fmt.Errorf("tenant %q: bad quota %q", spec.Name, val)
			}
			if n < 0 {
				return TenantSpec{}, fmt.Errorf("tenant %q: quota must be >= 0, got %d", spec.Name, n)
			}
			spec.Quota = n
		case "rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(r) || math.IsInf(r, 0) {
				return TenantSpec{}, fmt.Errorf("tenant %q: bad rate %q", spec.Name, val)
			}
			if r < 0 {
				return TenantSpec{}, fmt.Errorf("tenant %q: rate must be >= 0, got %v", spec.Name, r)
			}
			spec.Rate = r
		case "burst":
			b, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(b) || math.IsInf(b, 0) {
				return TenantSpec{}, fmt.Errorf("tenant %q: bad burst %q", spec.Name, val)
			}
			if b < 0 {
				return TenantSpec{}, fmt.Errorf("tenant %q: burst must be >= 0, got %v", spec.Name, b)
			}
			spec.Burst = b
		case "maxq":
			n, err := strconv.Atoi(val)
			if err != nil {
				return TenantSpec{}, fmt.Errorf("tenant %q: bad maxq %q", spec.Name, val)
			}
			if n < 0 {
				return TenantSpec{}, fmt.Errorf("tenant %q: maxq must be >= 0, got %d", spec.Name, n)
			}
			spec.MaxQueued = n
		default:
			return TenantSpec{}, fmt.Errorf("tenant %q: unknown option %q", spec.Name, key)
		}
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
type tenantTable struct {
	mu  sync.Mutex
	now func() time.Duration
	m   map[string]*tenantState
}

func newTenantTable(specs []TenantSpec, now func() time.Duration) *tenantTable {
	t := &tenantTable{now: now, m: make(map[string]*tenantState, len(specs)+1)}
	for _, spec := range specs {
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

// admit checks n fresh tasks from tenant name against its quota and rate
// limit. ok means admitted — in-flight and bucket charged. Otherwise
// retryAfterMillis tells the client how long to back off.
func (t *tenantTable) admit(name string, n int) (retryAfterMillis int64, ok bool) {
	if t == nil || n <= 0 {
		return 0, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.getLocked(name)
	// Both limits tolerate a bundle bigger than the limit itself: it
	// admits once there is full headroom and overdraws (quota overshoot,
	// negative bucket), blocking further admissions until the debt drains.
	// Without this an oversized bundle would be rejected forever — no
	// amount of waiting makes an 8-deep bucket hold 64 tokens.
	if q := int64(ts.spec.Quota); q > 0 && ts.inflight+min(int64(n), q) > q {
		ts.throttled++
		return quotaRetryMillis, false
	}
	if ts.spec.Rate > 0 {
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
	t.mu.Lock()
	defer t.mu.Unlock()
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
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.getLocked(name)
	ts.inflight -= int64(n)
	if failed {
		ts.failed += int64(n)
	} else {
		ts.completed += int64(n)
	}
}

// restore re-charges in-flight counts during journal recovery, bypassing
// quota and rate limits — the work was admitted before the crash.
func (t *tenantTable) restore(name string, n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.getLocked(name)
	ts.inflight += int64(n)
	ts.submitted += int64(n)
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

// maxQueuedBy extracts the per-tenant queue bounds for the scheduling core.
func tenantMaxQueued(specs []TenantSpec) map[string]int {
	var m map[string]int
	for _, s := range specs {
		if s.MaxQueued > 0 {
			if m == nil {
				m = make(map[string]int)
			}
			m[s.Name] = s.MaxQueued
		}
	}
	return m
}

// snapshot renders per-tenant stats rows, name-sorted. queued supplies
// per-tenant queue depths gathered from the scheduling core (may be nil).
func (t *tenantTable) snapshot(queued map[string]int) []fproto.TenantStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
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
