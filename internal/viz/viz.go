// Package viz renders terminal charts for the experiment tooling: line
// charts for convergence curves (loss vs simulated time, the Figures 11–15
// visual form) and horizontal bar charts for kernel metrics. Pure text,
// no dependencies, deterministic output for testability.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// LineChart renders one or more series into a width×height character grid
// with axis labels. Each series draws with its own glyph; overlapping
// points show the later series.
func LineChart(title string, width, height int, series ...Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}

	// Bounds over all series.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	points := 0
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			points++
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if points == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			if i >= len(s.Y) {
				break
			}
			c := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			r := int((maxY - s.Y[i]) / (maxY - minY) * float64(height-1))
			grid[r][c] = g
		}
	}
	for r, row := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", maxY)
		case height - 1:
			label = fmt.Sprintf("%8.3g", minY)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "%8s  %-10.3g%*s\n", "", minX, width-10, fmt.Sprintf("%.3g", maxX))
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", glyphs[si%len(glyphs)], s.Name))
	}
	fmt.Fprintf(&b, "          %s\n", strings.Join(legend, "   "))
	return b.String()
}

// Bar is one row of a bar chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders horizontal bars scaled to the maximum value.
func BarChart(title string, width int, bars []Bar) string {
	if width < 10 {
		width = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(bars) == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}
	maxV := 0.0
	maxLabel := 0
	for _, bar := range bars {
		if bar.Value > maxV {
			maxV = bar.Value
		}
		if len(bar.Label) > maxLabel {
			maxLabel = len(bar.Label)
		}
	}
	for _, bar := range bars {
		n := 0
		if maxV > 0 {
			n = int(bar.Value / maxV * float64(width))
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "  %-*s |%s %.4g\n", maxLabel, bar.Label, strings.Repeat("=", n), bar.Value)
	}
	return b.String()
}
