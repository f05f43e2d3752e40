package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestQuickSmoke runs all five workloads at test size — traced, so both
// metric sets are produced — and holds each to the benchmark's own
// correctness gate and to BENCHMARK.json's metric lists.
func TestQuickSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	layers := make(map[string]bool)
	for _, m := range spec.PerLayer {
		layers[m.Name] = true
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		out, err := run(runConfig{workload: w.Name, seed: 3, seconds: 0.5, trace: true, quick: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, p := range out.problems {
			t.Errorf("%s: incorrect: %s", w.Name, p)
		}
		if out.attempted < 1 || out.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, out.attempted, out.failed)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := out.e2e[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}
		for name, v := range out.layer {
			if !layers[name] {
				t.Errorf("%s: per-layer metric %s is not declared in BENCHMARK.json", w.Name, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v", w.Name, name, v)
			}
		}
	}
}

// TestGeneratorsDeterministic: the same seed gives byte-identical inputs,
// another seed gives different ones.
func TestGeneratorsDeterministic(t *testing.T) {
	for name, w := range map[string]simWorkload{"metro_day": metroDay, "fed_full": fedFull} {
		a, err := w.gen(7, w.quick)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.gen(7, w.quick)
		c, _ := w.gen(8, w.quick)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed produced different YAML", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds produced identical YAML", name)
		}
	}
	a := genOpenSchedule(7, time.Second, 3*time.Second, rtOpenRate, rtOpenBurst)
	b := genOpenSchedule(7, time.Second, 3*time.Second, rtOpenRate, rtOpenBurst)
	c := genOpenSchedule(8, time.Second, 3*time.Second, rtOpenRate, rtOpenBurst)
	if !reflect.DeepEqual(a, b) {
		t.Error("open schedule: same seed produced different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("open schedule: different seeds produced identical arrivals")
	}
	// 1 s warm-up + 3 s at 200 req/s with the middle second doubled.
	if want := 1000; len(a) < want-3 || len(a) > want+3 {
		t.Errorf("open schedule has %d arrivals, want about %d", len(a), want)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("open schedule not sorted at %d", i)
		}
	}
	x, y := genChurn(7, churnQuick), genChurn(7, churnQuick)
	if !reflect.DeepEqual(x.sites, y.sites) || !reflect.DeepEqual(x.base, y.base) {
		t.Error("churn demand set: same seed produced different inputs")
	}
	if z := genChurn(8, churnQuick); reflect.DeepEqual(x.base, z.base) {
		t.Error("churn demand set: different seeds produced identical rates")
	}
}

// TestTailPercentile pins the rule for tail metrics: the highest candidate
// percentile, not above the one asked for, with at least ten samples beyond
// it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		used float64
	}{
		{10_000, 0.99, 0.99},
		{1_000, 0.99, 0.99}, // exactly ten beyond
		{999, 0.99, 0.95},
		{200, 0.99, 0.95}, // exactly ten beyond p95
		{150, 0.99, 0.90},
		{40, 0.99, 0.75},
		{39, 0.99, 0.5},
		{100_000, 0.999, 0.999},
		{100_000, 0.95, 0.95}, // never above what was asked for
	} {
		if got := tailPercentile(c.n, c.want); got != c.used {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, used := tail(xs, 0.99); used != 0.99 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail = %v at p%v, want 989.01 at p0.99", v, used)
	}
}

// TestQuartilesMatchPython checks quartiles against values computed with
// Python's statistics.quantiles(xs, n=4), the acceptance spread's method.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 7, 3, 9.5, 21, 4, 18, 6, 10, 15}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-5.5) > 1e-12 || math.Abs(q3-15.75) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 5.5, 15.75", q1, q3)
	}
	if got := median(xs); got != 9.75 {
		t.Errorf("median = %v, want 9.75", got)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("single-sample quartiles = %v, %v", q1, q3)
	}
}

// TestSelfTime: a span's self time is its duration minus the union of its
// children's intervals — overlapping children are not subtracted twice, and
// grandchildren belong to their own parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps a by 10
		{Name: "c", ID: 4, Parent: 1, Start: 80, End: 120}, // runs past the parent
		{Name: "a1", ID: 5, Parent: 2, Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 20, 2: 30 - 10, 3: 30, 4: 40, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

// TestTracerRecordsTree: spans started through the tracer carry parent and
// operation IDs, and the nil tracer is inert.
func TestTracerRecordsTree(t *testing.T) {
	tr := newTracer()
	root := tr.start("outer", 0, 9)
	child := tr.start("inner", root.id, 9)
	child.end()
	root.end()
	if len(tr.spans) != 2 || tr.spans[0].Name != "inner" || tr.spans[0].Parent != root.id || tr.spans[0].Op != 9 {
		t.Errorf("spans = %+v", tr.spans)
	}
	if n := tr.series("outer").count; n != 1 {
		t.Errorf("outer recorded %d times", n)
	}
	var off *tracer
	off.start("x", 0, 0).end() // must not panic
	if off.series("x") != nil {
		t.Error("nil tracer handed out a series")
	}
}

// TestCallSampleIsBoundedAndEven: the closed loop's latency sample never
// outgrows its buffer and keeps every stride-th call.
func TestCallSampleIsBoundedAndEven(t *testing.T) {
	s := newCallSample(100)
	for i := 1; i <= 10_000; i++ {
		s.add(rtCall{sent: time.Duration(i)})
	}
	if s.seen != 10_000 || len(s.calls) > 100 || len(s.calls) < 50 {
		t.Fatalf("seen %d, kept %d of cap 100", s.seen, len(s.calls))
	}
	for i, c := range s.calls {
		if want := time.Duration((i + 1) * s.stride); c.sent != want {
			t.Fatalf("sample %d is call %d, want %d (stride %d)", i, c.sent, want, s.stride)
		}
	}
}

// TestCompileSurface keeps the benchmark off the APIs ROADMAP item 2 wants
// to delete, so that deletion cannot break the benchmark — and off the
// experiments package, whose drivers it must not share code with.
func TestCompileSurface(t *testing.T) {
	banned := []string{
		"Scheduler" + "Kind", "NewEngineWith" + "Scheduler", "Config." + "Scheduler", ".Scheduler" + " =",
		"Alloc" + "Workers", ".Workers" + " =",
		"federation." + "Policy", "Parse" + "Policy", ".Policy" + ":", "federation." + "Never",
		"Coordinator" + "Outages", "Cloud" + "AlwaysWarm", "Peer" + "Selection",
		"allocation." + "Allocate(", "Ref" + "Engine",
		"internal/" + "experiments",
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, word := range banned {
			if strings.Contains(string(src), word) {
				t.Errorf("%s uses %q, which is on the deletion list", file, word)
			}
		}
	}
}
