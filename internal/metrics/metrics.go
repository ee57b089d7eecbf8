// Package metrics provides the small statistics toolkit the experiment
// harness uses: ratio counters, sample accumulators and aligned table
// printing.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Ratio counts successes over trials.
type Ratio struct {
	Success int
	Total   int
}

// Add records one trial.
func (r *Ratio) Add(ok bool) {
	r.Total++
	if ok {
		r.Success++
	}
}

// Value returns successes/total, or 0 for no trials.
func (r Ratio) Value() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Success) / float64(r.Total)
}

// Sample accumulates scalar observations.
type Sample struct {
	xs     []float64
	sorted []float64 // cached sorted copy; nil after any Add
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = nil
}

// AddDuration records a duration in milliseconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(float64(d) / float64(time.Millisecond)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for empty samples).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentile returns the p'th percentile (0<=p<=100) using nearest-rank.
// The sorted order is computed once and cached until the next Add, so the
// usual p50/p90/p99 reporting burst sorts the sample once instead of once
// per percentile.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.xs...)
		sort.Float64s(s.sorted)
	}
	xs := s.sorted
	rank := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// Max returns the largest observation (-Inf for empty samples).
func (s *Sample) Max() float64 {
	m := math.Inf(-1)
	for _, x := range s.xs {
		m = math.Max(m, x)
	}
	return m
}

// Table renders aligned experiment output: one Row per x-value, one column
// per series, in the spirit of the paper's figures.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v for numbers.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.1fms", float64(v)/float64(time.Millisecond))
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "# %s\n", t.Title)
	}
	var hdr strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&hdr, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(hdr.String(), " "))
	for _, row := range t.rows {
		var b strings.Builder
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows), for
// plotting the regenerated figures with external tools.
func (t *Table) CSV() string {
	var b strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(cell))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
