// Package stats provides the small statistical and rendering toolkit the
// experiment harness uses: class tallies, proportions with binomial
// confidence intervals, contingency-table chi-square, and ASCII tables and
// stacked bar charts for regenerating the paper's tables and figures in a
// terminal.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Proportion is a ratio with its sample size.
type Proportion struct {
	// Hits is the numerator.
	Hits int
	// N is the denominator.
	N int
}

// Add counts one trial, a hit when hit is set.
func (p *Proportion) Add(hit bool) {
	p.N++
	if hit {
		p.Hits++
	}
}

// Value returns the ratio (0 when N is 0).
func (p Proportion) Value() float64 {
	if p.N == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.N)
}

// Percent renders the proportion as a percentage string.
func (p Proportion) Percent() string {
	return fmt.Sprintf("%.0f%%", 100*p.Value())
}

// Wilson returns the 95% Wilson score interval for the proportion — the
// right interval for the small per-class samples in this study.
func (p Proportion) Wilson() (lo, hi float64) {
	if p.N == 0 {
		return 0, 1
	}
	const z = 1.96
	n := float64(p.N)
	phat := p.Value()
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	margin := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the sample by linear
// interpolation between order statistics (the R-7/Excel definition). The
// input slice is not modified and need not be sorted. An empty sample
// returns 0; q outside [0,1] is clamped; a NaN q returns 0 rather than
// propagating into an index computation. NaN samples are ignored — a single
// corrupt measurement must not poison a whole summary row — and a sample of
// only NaNs behaves like an empty sample.
func Quantile(xs []float64, q float64) float64 {
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 || math.IsNaN(q) {
		return 0
	}
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// ChiSquare computes the chi-square statistic of an observed contingency
// table against independence, with its degrees of freedom. Rows and columns
// with zero totals are ignored.
func ChiSquare(table [][]float64) (chi2 float64, dof int) {
	if len(table) == 0 {
		return 0, 0
	}
	cols := len(table[0])
	rowTot := make([]float64, len(table))
	colTot := make([]float64, cols)
	total := 0.0
	for i, row := range table {
		for j, v := range row {
			rowTot[i] += v
			colTot[j] += v
			total += v
		}
	}
	if total == 0 {
		return 0, 0
	}
	liveRows, liveCols := 0, 0
	for _, v := range rowTot {
		if v > 0 {
			liveRows++
		}
	}
	for _, v := range colTot {
		if v > 0 {
			liveCols++
		}
	}
	for i, row := range table {
		for j, obs := range row {
			expect := rowTot[i] * colTot[j] / total
			if expect > 0 {
				d := obs - expect
				chi2 += d * d / expect
			}
		}
	}
	dof = (liveRows - 1) * (liveCols - 1)
	if dof < 0 {
		dof = 0
	}
	return chi2, dof
}

// Table renders rows as an aligned ASCII table with a header.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// StackedSeries is one category's per-bucket counts for a stacked bar chart.
type StackedSeries struct {
	// Label names the category (e.g. "EI").
	Label string
	// Glyph is the bar character for the category.
	Glyph rune
	// Counts holds one value per bucket.
	Counts []int
}

// StackedBars renders a horizontal stacked bar chart: one line per bucket,
// with each series contributing a run of its glyph. This regenerates the
// shape of the paper's Figures 1–3 in a terminal.
func StackedBars(buckets []string, series []StackedSeries) string {
	width := 0
	for _, b := range buckets {
		if len(b) > width {
			width = len(b)
		}
	}
	var out strings.Builder
	for i, bucket := range buckets {
		fmt.Fprintf(&out, "%-*s |", width, bucket)
		total := 0
		for _, s := range series {
			if i < len(s.Counts) {
				out.WriteString(strings.Repeat(string(s.Glyph), s.Counts[i]))
				total += s.Counts[i]
			}
		}
		fmt.Fprintf(&out, " %d\n", total)
	}
	out.WriteString(strings.Repeat(" ", width) + " +")
	var legend []string
	for _, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.Glyph, s.Label))
	}
	out.WriteString(" " + strings.Join(legend, ", ") + "\n")
	return out.String()
}
