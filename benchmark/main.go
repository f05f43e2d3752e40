// Command benchmark is the repository's benchmark: five workloads that load
// the simulator, the control plane and the wall-clock runtime from outside,
// a handful of end-to-end metrics a user of each would see, and an
// outside-in per-layer ledger from one traced run. BENCHMARK.json at the
// repository root is the contract: it names the workloads and every metric
// with its unit, direction and regression bound, and this program prints
// exactly those. See README.md in this directory.
//
// One run of one workload (what the benchmark driver invokes):
//
//	go run ./benchmark --workload fed_full --seed 7 --seconds 12 --trace 0
//
// prints every metric by name and unit and ends with one JSON object. With
// no --workload it runs every workload -repeats times, each run in a fresh
// child process, plus one traced run each, and prints medians with
// quartiles; -selfcheck does that twice and compares the two sets against
// the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json this program reads: it prints
// the metrics the file names, with the file's units, and nothing else.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repository
// root under `go run ./benchmark`) or its parent (under `go test`).
func loadSpec() (*benchSpec, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool   // test-sized workloads
	outDir   string // where a traced run writes its spans
}

func (rc runConfig) budget() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string // correctness failures; empty means correct
	notes     []string
	e2e       map[string]float64
	layer     map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) info(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each BENCHMARK.json workload name to its measurement loop.
var workloads = map[string]func(runConfig) (*outcome, error){
	"metro_day":       metroDay.run,
	"fed_full":        fedFull.run,
	"control_churn":   runControlChurn,
	"realtime_open":   runRealtimeOpen,
	"realtime_closed": runRealtimeClosed,
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload once and prints its metrics and result line.
// It returns whether the run was correct.
func runOne(spec *benchSpec, rc runConfig) (bool, error) {
	run, ok := workloads[rc.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (have %s)", rc.workload, strings.Join(sortedKeys(workloads), ", "))
	}
	out, err := run(rc)
	if err != nil {
		return false, err
	}
	want, got := spec.EndToEnd, out.e2e
	if rc.trace {
		want, got = spec.PerLayer, out.layer
	}
	line := resultLine{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue)}
	if out.attempted < 1 {
		out.fail("no operation was attempted")
	}
	if out.failed > 0 {
		out.fail("%d of %d operations failed", out.failed, out.attempted)
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v gomaxprocs %d\n",
		rc.workload, rc.seed, rc.seconds, rc.trace, runtime.GOMAXPROCS(0))
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			// Per-layer metrics of layers this workload never enters are
			// honest zeros; a missing end-to-end metric is a bug.
			if !rc.trace {
				out.fail("metric %s was not measured", m.Name)
			}
			v = 0
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("  %-42s %s %s\n", m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
	}
	for _, n := range out.notes {
		fmt.Printf("  note: %s\n", n)
	}
	fmt.Printf("  attempted %d failed %d\n", out.attempted, out.failed)
	for _, p := range out.problems {
		fmt.Printf("  INCORRECT: %s\n", p)
	}
	line.Correct = len(out.problems) == 0
	data, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(data))
	return line.Correct, nil
}

func main() {
	var rc runConfig
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "run this one workload once and print its result line (default: run them all)")
	flag.Uint64Var(&rc.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&rc.seconds, "seconds", 0, "seconds one run measures (default: run_seconds from BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics; 0 = untraced run printing the end-to-end metrics")
	flag.BoolVar(&rc.quick, "quick", false, "test-sized workloads (seconds, not tens of seconds; numbers are not comparable)")
	flag.StringVar(&rc.outDir, "out", "benchmark/out", "directory a traced run writes trace-<workload>.json into")
	repeats := flag.Int("repeats", 5, "untraced runs per workload when running them all (at least 3)")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets on the same code and compare their medians against the bounds")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if rc.seconds == 0 {
		rc.seconds = float64(spec.RunSeconds)
		if rc.quick {
			rc.seconds = 1
		}
	}
	rc.trace = trace != 0
	if rc.workload != "" {
		ok, err := runOne(spec, rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *repeats < 3 {
		*repeats = 3
	}
	ok, err := runAll(spec, rc, *repeats, *selfcheck)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
