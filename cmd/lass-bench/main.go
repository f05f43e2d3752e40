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
// prints them): table1, fig3..fig9, openwhisk, the federation sweeps, and
// the ablation-* design-choice studies.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lass/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment ID to run, or 'all'")
		quick      = flag.Bool("quick", false, "shorten simulated durations (CI-friendly)")
		seed       = flag.Uint64("seed", 42, "random seed (results are deterministic per seed)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		format     = flag.String("format", "text", "output format: text|csv")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "lass-bench: unknown format %q\n", *format)
		os.Exit(1)
	}

	opt := experiments.Options{Seed: *seed, Quick: *quick}
	ids := []string{*experiment}
	if *experiment == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now() //lass:wallclock bench wall timing
		tab, err := experiments.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lass-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		switch *format {
		case "csv":
			if err := tab.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "lass-bench: %v\n", err)
				os.Exit(1)
			}
		case "text":
			tab.Fprint(os.Stdout)
			fmt.Printf("  (%s generated in %.1fs)\n\n", id, time.Since(start).Seconds()) //lass:wallclock
		}
	}
}
