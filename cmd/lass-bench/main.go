// Command lass-bench regenerates the tables and figures of the paper's
// evaluation (§6) on the simulated substrate.
//
// Usage:
//
//	lass-bench -experiment fig3            # one experiment, full durations
//	lass-bench -experiment all -quick      # everything, shortened durations
//	lass-bench -list                       # show available experiment IDs
//
// Experiment IDs are the keys of internal/experiments/registry.go (-list
// prints them): table1, fig3..fig9, openwhisk, the federation sweeps, the
// committed scenario suite, and the ablation-* design-choice studies.
// `lass-bench -experiment <id> -quick -seed 1 -format csv` reproduces
// internal/experiments/testdata/golden/<id>.csv byte for byte.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"lass/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "lass-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("lass-bench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		experiment = flags.String("experiment", "all", "experiment ID to run, or 'all'")
		quick      = flags.Bool("quick", false, "shorten simulated durations (CI-friendly)")
		seed       = flags.Uint64("seed", 42, "random seed (results are deterministic per seed)")
		list       = flags.Bool("list", false, "list experiment IDs and exit")
		format     = flags.String("format", "text", "output format: text|csv")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}

	// Sweep cells run on every available CPU: the output is byte-identical
	// at any worker count.
	opt := experiments.Options{Seed: *seed, Quick: *quick, SweepWorkers: runtime.GOMAXPROCS(0)}
	ids := []string{*experiment}
	if *experiment == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now() //lass:wallclock bench wall timing
		tab, err := experiments.Run(id, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		switch *format {
		case "csv":
			if err := tab.WriteCSV(stdout); err != nil {
				return err
			}
		case "text":
			tab.Fprint(stdout)
			fmt.Fprintf(stdout, "  (%s generated in %.1fs)\n\n", id, time.Since(start).Seconds()) //lass:wallclock
		}
	}
	return nil
}
