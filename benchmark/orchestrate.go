package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun is one finished child process: its result line and, for the
// simulator workloads, the digest it printed.
type childRun struct {
	line   resultLine
	digest string
}

// runChild runs one workload once in a fresh process — this same binary
// with --workload — so repeats share no heap, no caches and no GC history.
// Every child takes the same seed, so the simulated results must repeat
// exactly.
func runChild(rc runConfig, workload string, trace bool) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(rc.seed, 10),
		"--seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64), "--out", rc.outDir, "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if rc.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	// A child that ran but found its outputs wrong exits 1 after printing
	// its result line; only a child with no result line is an error here.
	var run childRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(strings.TrimSpace(last), "note: sim_digest "); ok {
			run.digest, _, _ = strings.Cut(rest, " ")
		}
		if strings.Contains(last, "INCORRECT") {
			fmt.Println(" ", strings.TrimSpace(last))
		}
	}
	if jsonErr := json.Unmarshal([]byte(last), &run.line); jsonErr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, jsonErr)
	}
	return &run, nil
}

// metricSet is one metric's values over a set of repeats.
type metricSet []float64

func (m metricSet) median() float64 { return median(m) }

// spread is the interquartile range as a share of the median — the same
// figure the benchmark's acceptance computes.
func (m metricSet) spread() float64 {
	q1, q3 := quartiles(m)
	med := m.median()
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// setResult is one full set: every workload's untraced repeats plus its
// traced run.
type setResult struct {
	e2e     map[string]map[string]metricSet // workload → metric → repeats
	layer   map[string]map[string]float64   // workload → per-layer metric
	correct bool
}

// runSet runs every workload `repeats` times untraced and once traced.
func runSet(spec *benchSpec, rc runConfig, repeats int) (*setResult, error) {
	set := &setResult{e2e: map[string]map[string]metricSet{}, layer: map[string]map[string]float64{}, correct: true}
	for _, w := range spec.Workloads {
		fmt.Printf("\n%s — %s\n", w.Name, w.Why)
		set.e2e[w.Name] = map[string]metricSet{}
		var digest string
		var attempted, failed int64
		for r := 0; r <= repeats; r++ {
			traced := r == repeats
			run, err := runChild(rc, w.Name, traced)
			if err != nil {
				return nil, err
			}
			set.correct = set.correct && run.line.Correct
			attempted += run.line.Attempted
			failed += run.line.Failed
			if digest == "" {
				digest = run.digest
			} else if run.digest != digest {
				fmt.Printf("  INCORRECT: sim_digest %s differs from the first run's %s\n", run.digest, digest)
				set.correct = false
			}
			if traced {
				set.layer[w.Name] = map[string]float64{}
				for name, v := range run.line.Metrics {
					set.layer[w.Name][name] = v.Value
				}
				continue
			}
			for name, v := range run.line.Metrics {
				set.e2e[w.Name][name] = append(set.e2e[w.Name][name], v.Value)
			}
		}
		fmt.Printf("  %-28s %-6s %14s %14s %14s %3s\n", "end-to-end metric", "unit", "median", "q1", "q3", "n")
		for _, m := range spec.EndToEnd {
			ms := set.e2e[w.Name][m.Name]
			if ms == nil {
				fmt.Printf("  INCORRECT: metric %s missing\n", m.Name)
				set.correct = false
				continue
			}
			q1, q3 := quartiles(ms)
			fmt.Printf("  %-28s %-6s %14.6g %14.6g %14.6g %3d\n", m.Name, m.Unit, ms.median(), q1, q3, len(ms))
		}
		fmt.Printf("  attempted %d, failed %d over %d runs", attempted, failed, repeats+1)
		if digest != "" {
			fmt.Printf("; sim_digest %s identical across untraced and traced runs", digest)
		}
		fmt.Printf("\n  per-layer metrics (one traced run):\n")
		for _, m := range spec.PerLayer {
			if v := set.layer[w.Name][m.Name]; v != 0 {
				fmt.Printf("    %-42s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
	return set, nil
}

// worsening returns by what share of a's value b is worse than a, in the
// metric's own direction (negative when b is better).
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAll is the no-arguments mode: one full set, or with selfcheck two
// sets of the same code compared against the benchmark's own bounds.
func runAll(spec *benchSpec, rc runConfig, repeats int, selfcheck bool) (bool, error) {
	fmt.Printf("benchmark: %d workloads, %d untraced runs + 1 traced run each, seed %d, %g s per run\n",
		len(spec.Workloads), repeats, rc.seed, rc.seconds)
	first, err := runSet(spec, rc, repeats)
	if err != nil {
		return false, err
	}
	ok := first.correct
	if selfcheck {
		fmt.Printf("\nselfcheck: second set on the same code\n")
		second, err := runSet(spec, rc, repeats)
		if err != nil {
			return false, err
		}
		ok = ok && second.correct
		fmt.Printf("\nselfcheck: do two sets of the same code agree within each bound?\n")
		fmt.Printf("  %-16s %-16s %12s %12s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "worse by", "spread", "bound", "verdict")
		for _, w := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				a, b := first.e2e[w.Name][m.Name], second.e2e[w.Name][m.Name]
				if a == nil || b == nil {
					continue
				}
				worse := max(worsening(m, a.median(), b.median()), worsening(m, b.median(), a.median()))
				spread := max(a.spread(), b.spread())
				verdict := "agree"
				switch {
				case spread > m.Bound:
					// The run-to-run spread is wider than the bound: the two
					// medians cannot be told apart at this resolution.
					verdict = "unresolved"
				case worse > m.Bound:
					verdict = "DISAGREE"
					ok = false
				}
				fmt.Printf("  %-16s %-16s %12.6g %12.6g %8.2f%% %8.2f%% %6.0f%%  %s\n",
					w.Name, m.Name, a.median(), b.median(), worse*100, spread*100, m.Bound*100, verdict)
			}
		}
	}
	if !ok {
		fmt.Println("\nbenchmark: FAILED (see INCORRECT / DISAGREE above)")
	}
	return ok, nil
}
