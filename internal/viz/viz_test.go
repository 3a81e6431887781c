package viz

import (
	"strings"
	"testing"
)

func TestLineChartBasics(t *testing.T) {
	out := LineChart("loss", 40, 8,
		Series{Name: "dgl", X: []float64{0, 1, 2, 3}, Y: []float64{4, 3, 2, 1}},
		Series{Name: "mega", X: []float64{0, 1, 2, 3}, Y: []float64{4, 2, 1, 0.5}},
	)
	if !strings.Contains(out, "loss") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "dgl") || !strings.Contains(out, "mega") {
		t.Error("missing legend entries")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("missing series glyphs")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + x-axis + legend.
	if len(lines) != 1+8+1+1 {
		t.Errorf("line count = %d, want 11", len(lines))
	}
}

func TestLineChartEmpty(t *testing.T) {
	out := LineChart("empty", 40, 8)
	if !strings.Contains(out, "(no data)") {
		t.Error("empty chart should say so")
	}
}

func TestLineChartSinglePoint(t *testing.T) {
	// Degenerate ranges must not divide by zero.
	out := LineChart("pt", 20, 5, Series{Name: "s", X: []float64{1}, Y: []float64{2}})
	if !strings.Contains(out, "*") {
		t.Error("single point should render")
	}
}

func TestLineChartClampsTinyDimensions(t *testing.T) {
	out := LineChart("tiny", 1, 1, Series{Name: "s", X: []float64{0, 1}, Y: []float64{0, 1}})
	if len(out) == 0 {
		t.Error("tiny chart should still render")
	}
}

func TestLineChartDeterministic(t *testing.T) {
	s := Series{Name: "s", X: []float64{0, 1, 2}, Y: []float64{1, 4, 2}}
	if LineChart("d", 30, 6, s) != LineChart("d", 30, 6, s) {
		t.Error("chart output must be deterministic")
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("kernels", 20, []Bar{
		{Label: "sgemm", Value: 10},
		{Label: "dgl", Value: 5},
		{Label: "zero", Value: 0},
	})
	if !strings.Contains(out, "sgemm") || !strings.Contains(out, "====") {
		t.Errorf("bar chart malformed:\n%s", out)
	}
	// sgemm's bar must be about twice dgl's.
	lines := strings.Split(out, "\n")
	count := func(l string) int { return strings.Count(l, "=") }
	var sgemm, dgl int
	for _, l := range lines {
		if strings.Contains(l, "sgemm") {
			sgemm = count(l)
		}
		if strings.Contains(l, "dgl") {
			dgl = count(l)
		}
	}
	if sgemm != 2*dgl {
		t.Errorf("bar lengths %d vs %d, want 2:1", sgemm, dgl)
	}
}

func TestBarChartEmpty(t *testing.T) {
	if out := BarChart("none", 20, nil); !strings.Contains(out, "(no data)") {
		t.Error("empty bar chart should say so")
	}
}
