// Command lass-trace synthesizes workload traces in the Azure Functions
// Trace 2019 CSV schema (per-minute invocation counts; see §6.7 and
// internal/azure). The output can be fed back into the Fig 9 harness or
// any tool expecting the Azure dataset format.
//
// Usage:
//
//	lass-trace -rows 6 -minutes 1440 -mean 30 -archetype mixed > day.csv
//	lass-trace -archetype sporadic -rows 1 -minutes 60 > burst.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"lass/internal/azure"
	"lass/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "lass-trace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("lass-trace", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		rows      = flags.Int("rows", 6, "number of function traces to synthesize")
		minutes   = flags.Int("minutes", azure.MinutesPerDay, "trace length in minutes")
		mean      = flags.Float64("mean", 30, "target mean invocations per minute")
		archetype = flags.String("archetype", "mixed", "steady|periodic|bursty|sporadic|mixed")
		seed      = flags.Uint64("seed", 1, "random seed")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if flags.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: every input is a flag", flags.Arg(0))
	}
	if *rows < 1 {
		return fmt.Errorf("-rows must be at least 1, got %d", *rows)
	}
	if *minutes < 1 {
		return fmt.Errorf("-minutes must be at least 1, got %d", *minutes)
	}
	if !(*mean >= 0) || math.IsInf(*mean, 1) {
		return fmt.Errorf("-mean must be a finite non-negative rate, got %v", *mean)
	}
	mixed := *archetype == "mixed"
	a, ok := parseArchetype(*archetype)
	if !ok && !mixed {
		return fmt.Errorf("-archetype: unknown archetype %q (steady|periodic|bursty|sporadic|mixed)", *archetype)
	}

	rng := xrand.New(*seed)
	var out []azure.Row
	for i := 0; i < *rows; i++ {
		if mixed {
			a = azure.Archetype(i % 4)
		}
		row, err := azure.Synthesize(rng, azure.SynthConfig{
			Archetype:     a,
			MeanPerMinute: *mean,
			Minutes:       *minutes,
		})
		if err != nil {
			return err
		}
		out = append(out, row)
	}
	return azure.Write(stdout, out)
}

// parseArchetype returns the archetype whose name is name.
func parseArchetype(name string) (azure.Archetype, bool) {
	for a := azure.Steady; a <= azure.Sporadic; a++ {
		if a.String() == name {
			return a, true
		}
	}
	return 0, false
}
