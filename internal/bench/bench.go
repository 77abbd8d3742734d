// Package bench regenerates every table and figure of the paper's
// evaluation (§4-§5). Each experiment has a driver returning a Result whose
// Render method prints the same rows or series the paper reports;
// cmd/falkon-bench exposes them by id and bench_test.go wraps them as
// testing.B benchmarks. Every driver runs on the virtual-time models, so
// its rows are the same on every machine; timing the live runtime is the
// repo benchmark's job (benchmark/).
//
// Scale controls experiment size: Scale = 1 reproduces the paper's full
// parameters (2M tasks, 54K executors); smaller scales divide task counts
// for quick runs while preserving shape.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"falkon/internal/sim"
)

// Result is one regenerated experiment.
type Result struct {
	ID    string
	Title string
	// Header and Rows form the printed table; Notes carries paper-vs-
	// measured commentary.
	Header []string
	Rows   [][]string
	Notes  []string
	// Plots carries time series for figure experiments, rendered by
	// RenderPlots (falkon-bench -plot).
	Plots []*sim.Series
}

// RenderPlots returns ASCII charts for the experiment's series.
func (r *Result) RenderPlots() string {
	var b strings.Builder
	for _, s := range r.Plots {
		b.WriteString(sim.ASCIIPlot(s, 72, 12))
		b.WriteByte('\n')
	}
	return b.String()
}

// Render returns the experiment as an aligned text table.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Driver produces one experiment at the given scale (0 < scale <= 1).
type Driver func(scale float64) *Result

// registry maps experiment ids to drivers.
var registry = map[string]Driver{}

// register adds a driver (called from each experiment file's init).
func register(id string, d Driver) {
	if _, dup := registry[id]; dup {
		panic("bench: duplicate experiment " + id)
	}
	registry[id] = d
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, scale float64) (*Result, error) {
	d, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("bench: scale %v out of (0, 1]", scale)
	}
	return d(scale), nil
}

// helpers ------------------------------------------------------------------

// f1, f2, f0 format floats at fixed precision.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// secs formats a duration in seconds at one decimal.
func secs(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// scaled returns max(min, int(n*scale)).
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}
