// Command lass-sim runs one simulation described on the command line. It
// has two jobs.
//
// The ad-hoc single-cluster run: one or more catalog functions under static
// or trace-driven Poisson load on a configurable cluster, printing
// per-function latency and allocation summaries.
//
//	lass-sim -functions squeezenet:40,geofence:120 -duration 10m
//	lass-sim -functions mobilenet-v2:20 -policy termination -nodes 3
//	lass-sim -functions binaryalert:80 -trace traces.csv   # Azure CSV rates
//
// The declarative federation run: -scenario names a scenario file (fleet +
// topology + workload + chaos + assertions; see scenarios/ and
// internal/scenario), or "all" for every committed scenarios/*.yaml under
// the working directory. The file is the whole configuration; the only
// things the command line adds are chaos re-seeding and where the CSV goes.
//
//	lass-sim -scenario scenarios/metro-flaps.yaml
//	lass-sim -scenario scenarios/metro-flaps.yaml -chaos-replicates 8 -chaos-seed 100
//	lass-sim -scenario all -out scenarios.csv
//
// The fixed sweeps of the experiment registry (federation, federation-chaos,
// ...) are run by lass-bench. -cpuprofile / -memprofile write pprof profiles
// of either job.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lass/internal/azure"
	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/experiments"
	"lass/internal/functions"
	"lass/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "lass-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	flags := flag.NewFlagSet("lass-sim", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		fnsFlag    = flags.String("functions", "squeezenet:40", "comma-separated name:rate pairs (req/s)")
		duration   = flags.Duration("duration", 10*time.Minute, "simulated duration")
		nodes      = flags.Int("nodes", 3, "cluster nodes")
		cpu        = flags.Int64("cpu", 4000, "millicores per node")
		mem        = flags.Int64("mem", 16384, "MiB per node")
		policy     = flags.String("policy", "deflation", "reclamation policy (deflation|termination)")
		seed       = flags.Uint64("seed", 1, "random seed")
		trace      = flags.String("trace", "", "optional Azure-schema CSV; row i drives function i")
		scenarioF  = flags.String("scenario", "", "run this declarative scenario file instead (\"all\" = every committed scenarios/*.yaml)")
		chaosSeed  = flags.Int64("chaos-seed", 0, "with -scenario: base chaos seed, replicate r draws seed+r (0 = the file's authored seed)")
		chaosReps  = flags.Int("chaos-replicates", 0, "with -scenario: seeded failure replicates per scenario (0 = 1)")
		out        = flags.String("out", "", "with -scenario: also write the table as CSV to this path")
		cpuProfile = flags.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flags.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *chaosSeed < 0 {
		return fmt.Errorf("-chaos-seed %d is negative (0 = the file's authored seed)", *chaosSeed)
	}
	if *chaosReps < 0 {
		return fmt.Errorf("-chaos-replicates %d is negative (0 = one run per scenario)", *chaosReps)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if perr := writeMemProfile(*memProfile); err == nil {
				err = perr
			}
		}()
	}

	if *scenarioF != "" {
		return runScenarios(*scenarioF, *chaosSeed, *chaosReps, *out, stdout)
	}

	pol := controller.Deflation
	switch *policy {
	case "deflation":
	case "termination":
		pol = controller.Termination
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	var traceRows []azure.Row
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		traceRows, err = azure.Read(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *trace, err)
		}
	}

	var cfgs []core.FunctionConfig
	for i, pair := range strings.Split(*fnsFlag, ",") {
		parts := strings.SplitN(strings.TrimSpace(pair), ":", 2)
		spec, err := functions.ByName(parts[0])
		if err != nil {
			return err
		}
		var wl *workload.Schedule
		if traceRows != nil {
			if i >= len(traceRows) {
				return fmt.Errorf("trace has %d rows but %d functions requested", len(traceRows), i+1)
			}
			wl, err = azure.Schedule(traceRows[i].Counts)
		} else {
			rate := 10.0
			if len(parts) == 2 {
				rate, err = strconv.ParseFloat(parts[1], 64)
				if err != nil {
					return fmt.Errorf("bad rate in %q: %w", pair, err)
				}
			}
			wl, err = workload.NewStatic(rate)
		}
		if err != nil {
			return err
		}
		cfgs = append(cfgs, core.FunctionConfig{Spec: spec, Workload: wl, Prewarm: 1})
	}

	p, err := core.New(core.Config{
		Cluster:    cluster.Config{Nodes: *nodes, CPUPerNode: *cpu, MemPerNode: *mem, Policy: cluster.WorstFit},
		Controller: controller.Config{Policy: pol, MinContainers: 1},
		Seed:       *seed,
		Functions:  cfgs,
	})
	if err != nil {
		return err
	}
	res, err := p.Run(*duration)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "simulated %v on %d nodes (%d mC each), policy=%s, seed=%d\n\n",
		*duration, *nodes, *cpu, pol, *seed)
	fmt.Fprintf(stdout, "%-16s %10s %10s %12s %12s %10s %9s\n",
		"function", "arrivals", "completed", "P95 wait", "P99 resp", "SLO att", "requeued")
	for _, fc := range cfgs {
		fr := res.Functions[fc.Spec.Name]
		fmt.Fprintf(stdout, "%-16s %10d %10d %11.1fms %11.1fms %9.3f %9d\n",
			fc.Spec.Name, fr.Arrivals, fr.Completed,
			fr.Waits.Quantile(0.95)*1000,
			fr.Responses.Quantile(0.99)*1000,
			fr.SLO.Attainment(), fr.Requeued)
	}
	fmt.Fprintf(stdout, "\ncluster utilization (time-weighted mean): %.1f%%\n", res.Utilization*100)
	ops := res.ControllerOps
	fmt.Fprintf(stdout, "controller: %d creations, %d terminations, %d deflations, %d inflations, %d overload epochs\n",
		ops.Creations, ops.Terminations, ops.Deflations, ops.Inflations, ops.Overloads)
	return nil
}

// runScenarios runs one scenario file (or, for "all", the committed suite),
// prints the table, and writes it as CSV when out names a file. The cells
// run on every available CPU: the output is byte-identical at any worker
// count.
func runScenarios(arg string, chaosSeed int64, replicates int, out string, stdout io.Writer) error {
	paths := []string{arg}
	if arg == "all" {
		var err error
		if paths, err = experiments.ScenarioSuite(); err != nil {
			return err
		}
	}
	tab, err := experiments.RunScenarios(paths, chaosSeed, replicates, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	tab.Fprint(stdout)
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return nil
}

// writeMemProfile snapshots the heap (after a final GC, so live objects —
// not garbage — dominate the profile) into the given file.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
