package scenario

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
)

// metroDoc is a metro_day-shaped scenario generated in memory: 100
// one-node sites, each replaying 720 per-minute `{start, rate}` workload
// steps — 72,808 lines, about 3.4 MB. A step's rate is c/60 for a
// per-minute count c, printed as the benchmark prints trace rates.
func metroDoc() []byte {
	var b bytes.Buffer
	b.WriteString("name: metro-day\n")
	b.WriteString("description: \"100 one-node sites replaying 720 trace minutes, never placer\"\n")
	b.WriteString("seed: 7\nduration: 720m\nplacer: never\nfleet:\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "  - name: edge-%d\n    nodes: 1\n    cpu-per-node: 4000\n    mem-per-node: 8192\n", i)
		b.WriteString("    functions:\n      - spec: squeezenet\n        prewarm: 1\n        workload:\n")
		for m := 0; m < 720; m++ {
			c := 9 + (i*31+m*17)%13
			fmt.Fprintf(&b, "          - {start: %dm, rate: %s}\n", m, strconv.FormatFloat(float64(c)/60, 'g', -1, 64))
		}
	}
	b.WriteString("assertions:\n  max-violation-rate: 0.05\n")
	return b.Bytes()
}

// BenchmarkParseMetroScale parses (and so builds) the metro_day-shaped
// document; MB/s is input bytes per second.
//
//	go test -run '^$' -bench ParseMetroScale -benchmem ./internal/scenario
func BenchmarkParseMetroScale(b *testing.B) {
	doc := metroDoc()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocsPerLine holds loading to an allocation budget per input
// line. Nodes, keys and child lists come from slabs, so what is left is
// Build's per-site work: 1,245 allocations, 0.0171 a line (7.0 when every
// node owned its map and slices).
func TestParseAllocsPerLine(t *testing.T) {
	doc := metroDoc()
	lines := bytes.Count(doc, []byte("\n"))
	if lines != 72808 {
		t.Fatalf("metro document has %d lines, want 72808", lines)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Parse(doc); err != nil {
			t.Fatal(err)
		}
	})
	const maxPerLine = 0.02
	if per := allocs / float64(lines); per > maxPerLine {
		t.Errorf("Parse makes %.0f allocations, %.4f per line; want at most %.4f", allocs, per, maxPerLine)
	}
}
