package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCDFQuantileAndFractions(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2, 5})
	if c.N() != 5 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Quantile(0.5); !almostEq(got, 3, 1e-12) {
		t.Errorf("median = %v", got)
	}
	if got := c.FractionAtOrAbove(3); !almostEq(got, 0.6, 1e-12) {
		t.Errorf("FractionAtOrAbove(3) = %v", got)
	}
	if got := c.FractionAbove(3); !almostEq(got, 0.4, 1e-12) {
		t.Errorf("FractionAbove(3) = %v", got)
	}
	if got := c.FractionAbove(5); got != 0 {
		t.Errorf("FractionAbove(max) = %v", got)
	}
	if got := c.FractionAtOrAbove(0); got != 1 {
		t.Errorf("FractionAtOrAbove(min-1) = %v", got)
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	c := NewCDF(xs)
	xs[0] = 99
	if got := c.Quantile(1); got != 3 {
		t.Errorf("CDF aliased caller slice: max = %v", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.FractionAbove(1) != 0 || c.FractionAtOrAbove(1) != 0 {
		t.Error("empty CDF fractions should be 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF quantile should be NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Headers: []string{"name", "value"}}
	tb.AddRow("rtt", 321.5678)
	tb.AddRow("loss", 0.012)
	tb.AddRow("count", 42.0)
	s := tb.String()
	if !strings.Contains(s, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(s, "321.6") {
		t.Errorf("float not trimmed to 4 sig figs:\n%s", s)
	}
	if !strings.Contains(s, "42") || strings.Contains(s, "42.00") {
		t.Errorf("integral float should render without decimals:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}}
	tb.AddRow(1.0, "x")
	csv := tb.CSV()
	want := "a,b\n1,x\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}
