// Package metrics provides the small result-reporting toolkit the
// experiment harness uses: aligned text tables (one per paper figure),
// named counters, and summary statistics over samples and seeds.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Table is a titled grid of rows, printed with aligned columns — the
// textual equivalent of one paper figure or table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates an empty table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with 3
// significant decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case sim.Time:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a caption line printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// MarshalJSON renders the table as a JSON object with lowercase keys —
// the machine-readable counterpart of Fprint, used by fragbench -json.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	notes := t.Notes
	if notes == nil {
		notes = []string{}
	}
	return json.Marshal(struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes"`
	}{t.Title, t.Headers, rows, notes})
}

// Summary holds order statistics over a set of duration samples.
type Summary struct {
	N                   int
	Mean, P50, P95, Max sim.Time
}

// Summarize computes order statistics over samples.
func Summarize(samples []sim.Time) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := append([]sim.Time(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum sim.Time
	for _, s := range sorted {
		sum += s
	}
	return Summary{
		N:    len(sorted),
		Mean: sum / sim.Time(len(sorted)),
		P50:  quantile(sorted, 0.50),
		P95:  quantile(sorted, 0.95),
		Max:  sorted[len(sorted)-1],
	}
}

// Ratio returns a/b as float, guarding zero denominators.
func Ratio(a, b sim.Time) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
