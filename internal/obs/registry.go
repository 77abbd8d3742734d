package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry is a namespace of named metrics. Components get-or-create their
// instruments once at construction and then update them lock-free (counters
// and gauges are atomics; histograms take one short mutex); the registry
// lock is only paid on lookup and snapshot.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry hands back an unregistered counter so call sites never guard.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named bounded histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Labeled builds a registry key carrying Prometheus-style labels:
// Labeled("wsrpc_calls_total", "method", "falkon.submit") yields
// `wsrpc_calls_total{method="falkon.submit"}`. Keys sort textually, which
// groups a metric's label variants together in expositions.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: Labeled needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// MetricsSnapshot is a point-in-time copy of a registry — the body of the
// falkon.metrics RPC reply. Snapshots from different processes merge
// (counters and gauges sum, histogram buckets sum).
type MetricsSnapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every registered metric.
func (r *Registry) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// Merge folds o into s: counters and gauges sum, histograms merge
// bucket-wise. Used by the forwarder to aggregate downstream dispatchers.
func (s *MetricsSnapshot) Merge(o MetricsSnapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]int64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistSnapshot)
	}
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range o.Histograms {
		h := s.Histograms[k]
		h.Merge(v)
		s.Histograms[k] = h
	}
}

// Histogram returns the named histogram snapshot (zero-valued when absent).
func (s MetricsSnapshot) Histogram(name string) HistSnapshot {
	return s.Histograms[name]
}

// WriteProm writes the snapshot in the Prometheus text exposition format:
// counters and gauges as single samples, histograms as summaries
// (quantile-labeled samples plus _sum and _count).
func (s MetricsSnapshot) WriteProm(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		base, labels := splitKey(k)
		for _, q := range [...]float64{0.5, 0.95, 0.99} {
			ql := labels
			if ql != "" {
				ql += ","
			}
			ql += fmt.Sprintf("quantile=%q", fmt.Sprintf("%g", q))
			if _, err := fmt.Fprintf(w, "%s{%s} %g\n", base, ql, h.Quantile(q)); err != nil {
				return err
			}
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", base, suffix, h.Sum, base, suffix, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// splitKey separates a Labeled key into its metric name and label body.
func splitKey(k string) (name, labels string) {
	if i := strings.IndexByte(k, '{'); i >= 0 && strings.HasSuffix(k, "}") {
		return k[:i], k[i+1 : len(k)-1]
	}
	return k, ""
}
