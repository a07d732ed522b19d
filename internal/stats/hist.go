package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution built from raw samples.
// It supports exact quantiles and fraction-below queries.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted; xs is not modified).
func NewCDF(xs []float64) *CDF {
	buf := make([]float64, len(xs))
	copy(buf, xs)
	sort.Float64s(buf)
	return &CDF{sorted: buf}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// Quantile returns the q-th quantile, q in [0,1].
func (c *CDF) Quantile(q float64) float64 { return QuantileSorted(c.sorted, q) }

// FractionAbove returns the fraction of samples strictly greater than x.
func (c *CDF) FractionAbove(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(len(c.sorted)-i) / float64(len(c.sorted))
}

// FractionAtOrAbove returns the fraction of samples >= x.
func (c *CDF) FractionAtOrAbove(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	return float64(len(c.sorted)-i) / float64(len(c.sorted))
}

// points returns up to n evenly spaced (value, cumulative fraction) points,
// suitable for plotting the CDF curve.
func (c *CDF) points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([][2]float64, n)
	for k := 0; k < n; k++ {
		idx := k * (len(c.sorted) - 1) / max(n-1, 1)
		pts[k] = [2]float64{c.sorted[idx], float64(idx+1) / float64(len(c.sorted))}
	}
	return pts
}

// Table is a small helper for rendering aligned text tables — the experiment
// harness prints every reproduced figure/table through it so output lines up
// with the paper's rows and series.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row; values are rendered with %v, floats with
// 4 significant digits.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case float32:
			row[i] = trimFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (headers first).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}
