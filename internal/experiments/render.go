package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table renders fixed-width text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// addRow appends one row of already-formatted cells.
func (t *Table) addRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// note appends a footnote line.
func (t *Table) note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// fprint writes the table.
func (t *Table) fprint(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
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
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if len(t.Headers) > 0 {
		if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
			return err
		}
		total := 0
		for _, wd := range widths {
			total += wd + 2
		}
		if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// f3, f4 and pct are the cell formatters used across experiments.
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string  { return fmt.Sprintf("%.4f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
func d(x int) string       { return fmt.Sprintf("%d", x) }
