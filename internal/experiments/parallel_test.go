package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// renderTable serializes a table both ways the commands emit it — the
// printed text (notes included) followed by the CSV — so a byte comparison
// covers rows, notes, and ordering at once.
func renderTable(t *testing.T, tab *Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

// TestParallelSweepOutputIsByteIdentical is the parallel-runner determinism
// regression: every federation sweep must emit byte-identical text and CSV
// whether its cells run serially or across eight workers. Cells own their
// engines and RNG streams and rows are emitted in canonical order after all
// cells complete, so any divergence means shared mutable state leaked in.
func TestParallelSweepOutputIsByteIdentical(t *testing.T) {
	// The scenario experiment globs scenarios/*.yaml under the working
	// directory.
	t.Chdir(filepath.Join("..", ".."))
	for _, id := range []string{
		"federation",
		"federation-trace",
		"federation-fairshare",
		"federation-placers",
		"federation-coordinator",
		"federation-chaos",
		"federation-hierarchy",
		"scenario",
	} {
		t.Run(id, func(t *testing.T) {
			run := func(workers int) []byte {
				tab, err := Run(id, Options{Seed: 7, Quick: true, SweepWorkers: workers})
				if err != nil {
					t.Fatalf("Run(%s, workers=%d): %v", id, workers, err)
				}
				return renderTable(t, tab)
			}
			serial := run(1)
			parallel := run(8)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("%s: workers=8 output differs from workers=1\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, firstDiffContext(serial, parallel), firstDiffContext(parallel, serial))
			}
		})
	}
}

// firstDiffContext returns a short window of a around its first divergence
// from b, keeping failure output readable for multi-kilobyte tables.
func firstDiffContext(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 120
	if start < 0 {
		start = 0
	}
	end := i + 120
	if end > len(a) {
		end = len(a)
	}
	return fmt.Sprintf("(diverges at byte %d) …%s…", i, a[start:end])
}
