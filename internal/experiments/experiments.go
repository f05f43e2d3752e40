// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simulated substrate. Each experiment returns a
// Table whose rows mirror what the paper plots; cmd/lass-bench prints them
// and testdata/golden pins the deterministic ones byte for byte.
//
// registry.go is the index of experiment IDs (`lass-bench -list` prints
// it).
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-form note printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint writes the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
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
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Options tunes experiment durations: Quick mode shortens simulated time
// for tests and smoke runs; full mode matches the paper's durations.
type Options struct {
	Seed  uint64
	Quick bool
	// SweepWorkers is how many cells of a policy/seed/trace sweep run
	// concurrently (0 or 1 = serial, the tests' reference; the commands
	// pass runtime.GOMAXPROCS(0)). Cells are independent simulations with
	// private engines and RNG streams, and rows are emitted in canonical
	// order after all cells complete, so the output is byte-identical at
	// any worker count.
	SweepWorkers int
}

// dur picks between the full (paper) and quick durations.
func (o Options) dur(full, quick time.Duration) time.Duration {
	if o.Quick {
		return quick
	}
	return full
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

func msF(seconds float64) string {
	return fmt.Sprintf("%.1f", seconds*1000)
}

func pct(f float64) string {
	return fmt.Sprintf("%.1f%%", f*100)
}
