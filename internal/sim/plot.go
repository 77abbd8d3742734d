package sim

import (
	"fmt"
	"math"
	"strings"
)

// ASCIIPlot renders a series as a text chart — enough to eyeball the shape
// of a figure (queue growth, throughput dips, executor ramps) straight
// from falkon-bench output.
func ASCIIPlot(s *Series, width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	pts := s.Downsample(width)
	if len(pts) == 0 {
		return fmt.Sprintf("%s: (empty)\n", s.Name)
	}
	minV, maxV := pts[0].Value, pts[0].Value
	for _, p := range pts {
		minV = math.Min(minV, p.Value)
		maxV = math.Max(maxV, p.Value)
	}
	if maxV == minV {
		maxV = minV + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(pts)))
	}
	for c, p := range pts {
		frac := (p.Value - minV) / (maxV - minV)
		row := height - 1 - int(math.Round(frac*float64(height-1)))
		grid[row][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%.6g .. %.6g]\n", s.Name, minV, maxV)
	for r, line := range grid {
		label := "        "
		switch r {
		case 0:
			label = leftPad(fmt.Sprintf("%.4g", maxV), 8)
		case height - 1:
			label = leftPad(fmt.Sprintf("%.4g", minV), 8)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(line))
	}
	first, last := pts[0].At, pts[len(pts)-1].At
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", len(pts)))
	fmt.Fprintf(&b, "%s  t=%v .. %v\n", strings.Repeat(" ", 8), first, last)
	return b.String()
}

// leftPad right-aligns s in a field of n runes.
func leftPad(s string, n int) string {
	if len(s) >= n {
		return s[:n]
	}
	return strings.Repeat(" ", n-len(s)) + s
}
