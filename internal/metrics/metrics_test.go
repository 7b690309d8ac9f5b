package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestConfusion(t *testing.T) {
	c := Confusion{TP: 90, FP: 10, FN: 30}
	if got := c.Sensitivity(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("sensitivity = %v, want 0.75", got)
	}
	if got := c.Precision(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("precision = %v, want 0.9", got)
	}
	if got := c.FalseHitRate(); math.Abs(got-10.0/90) > 1e-12 {
		t.Errorf("FHR = %v", got)
	}
	var z Confusion
	if z.Sensitivity() != 0 || z.Precision() != 0 || z.FalseHitRate() != 0 {
		t.Error("zero confusion should yield zeros")
	}
	z.FP = 5
	if !math.IsInf(z.FalseHitRate(), 1) {
		t.Error("FHR with no TPs should be +Inf")
	}
	z.Add(Confusion{TP: 1, FN: 2})
	if z.TP != 1 || z.FP != 5 || z.FN != 2 {
		t.Errorf("Add result %+v", z)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, v := range []float64{-5, 0, 5, 15, 95, 99.9, 100, 250} {
		h.Add(v)
	}
	if h.Total() != 8 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[9] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.under != 1 || h.over != 2 {
		t.Errorf("under/over = %d/%d", h.under, h.over)
	}
	// 4 of 8 observations are strictly below 50 (-5, 0, 5, 15).
	if got := h.FractionBelow(50); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("FractionBelow(50) = %v, want 0.5", got)
	}
	out := h.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "below range") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestTableRender(t *testing.T) {
	var tb Table
	tb.Header = []string{"k", "hits/seed", "Kseeds/s"}
	tb.AddRow("11", "1866.1", "1426.9")
	tb.AddRow("15", "8.7", "91138.7")
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "k ") {
		t.Errorf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[2], "1866.1") {
		t.Errorf("row content missing: %q", lines[2])
	}
}

func TestRenderSeries(t *testing.T) {
	a := &Series{Name: "GACT (software)"}
	b := &Series{Name: "Edlib"}
	for _, x := range []float64{1, 2, 3} {
		a.Append(x, x*10)
		b.Append(x, x*x)
	}
	out := RenderSeries("Kbp", a, b)
	if !strings.Contains(out, "GACT (software)") || !strings.Contains(out, "Edlib") {
		t.Errorf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "30") || !strings.Contains(out, "9") {
		t.Errorf("missing values:\n%s", out)
	}
}

// Regression: NewHistogram with bins <= 0 or Max <= Min used to yield
// divide-by-zero/NaN bin indexing (and a panic on empty Counts) in Add.
func TestHistogramDegenerateConfig(t *testing.T) {
	cases := []struct {
		name     string
		min, max float64
		bins     int
	}{
		{"zero bins", 0, 10, 0},
		{"negative bins", 0, 10, -3},
		{"max equals min", 5, 5, 4},
		{"max below min", 10, 2, 4},
		{"nan max", 0, math.NaN(), 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistogram(c.min, c.max, c.bins)
			if len(h.Counts) < 1 {
				t.Fatalf("bins clamped to %d, want >= 1", len(h.Counts))
			}
			if !(h.Max > h.Min) {
				t.Fatalf("range [%g, %g) not clamped to Max > Min", h.Min, h.Max)
			}
			for _, v := range []float64{-1e9, c.min - 1, c.min, c.min + 0.5, c.max, 1e9} {
				h.Add(v) // must not panic or index with NaN
			}
			total := h.under + h.over
			for _, n := range h.Counts {
				total += n
			}
			if total != h.Total() {
				t.Errorf("observations lost: binned %d, Total() %d", total, h.Total())
			}
			if out := h.Render(10); out == "" {
				t.Error("Render returned nothing")
			}
		})
	}
}

// A hand-built degenerate Histogram value (bypassing the constructor)
// must still tally in Add instead of panicking.
func TestHistogramHandBuiltDegenerate(t *testing.T) {
	h := &Histogram{Min: 3, Max: 3}
	h.Add(2)
	h.Add(3)
	h.Add(4)
	if h.Total() != 3 || h.under != 1 || h.over != 2 {
		t.Errorf("under=%d over=%d total=%d, want 1/2/3", h.under, h.over, h.Total())
	}
}

func TestRestoreHistogram(t *testing.T) {
	h := RestoreHistogram(0, 10, []int{1, 2, 3}, 4, 5)
	if h.Total() != 15 {
		t.Errorf("total = %d, want 15", h.Total())
	}
	out := h.Render(10)
	if !strings.Contains(out, "below range") || !strings.Contains(out, "above range") {
		t.Errorf("render missing out-of-range lines:\n%s", out)
	}
	if h.FractionBelow(10) <= 0 {
		t.Error("FractionBelow broken on restored histogram")
	}
}
