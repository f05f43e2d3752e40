// Quickstart: size a function with the queueing model, run it on a
// simulated edge cluster, and check the measured tail latency against the
// SLO — the core LaSS loop in ~60 lines.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"lass"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run sizes the function, simulates it and prints the check to w.
func run(w io.Writer) error {
	// A CPU-bound function with a 100 ms mean service time (μ = 10 req/s
	// per container) and the evaluation's default SLO: 95% of requests
	// must start service within 100 ms.
	spec := lass.MicroBenchmark(100 * time.Millisecond)
	slo := lass.DefaultSLO()

	// Ask the model (paper Algorithm 1) how many containers 30 req/s needs.
	c, err := lass.RequiredContainers(30, spec.ServiceRate(), slo)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model: %d containers for 30 req/s at mu=%.0f, SLO %v@p%.0f\n",
		c, spec.ServiceRate(), slo.Deadline, slo.Percentile*100)

	// Run the full platform — cluster, WRR data path, autoscaling
	// controller — against a 30 req/s Poisson workload.
	wl, err := lass.StaticWorkload(30)
	if err != nil {
		return err
	}
	simulation, err := lass.NewSimulation(lass.SimulationConfig{
		Cluster: lass.PaperCluster(), // 3 nodes x 4 cores (paper §6.1)
		Seed:    1,
		Functions: []lass.FunctionConfig{{
			Spec:     spec,
			SLO:      slo,
			Workload: wl,
			Prewarm:  1, // one warm container at t=0; the controller grows the rest
		}},
	})
	if err != nil {
		return err
	}
	res, err := simulation.Run(10 * time.Minute)
	if err != nil {
		return err
	}

	fr := res.Functions[spec.Name]
	fmt.Fprintf(w, "simulated 10m: %d arrivals, %d completed\n", fr.Arrivals, fr.Completed)
	fmt.Fprintf(w, "P50/P95/P99 wait: %.1f / %.1f / %.1f ms\n",
		fr.Waits.Quantile(0.50)*1000, fr.Waits.Quantile(0.95)*1000, fr.Waits.Quantile(0.99)*1000)
	fmt.Fprintf(w, "SLO attainment: %.3f (deadline %v)\n", fr.SLO.Attainment(), slo.Deadline)
	fmt.Fprintf(w, "final allocation: %.0f containers (model said %d)\n", fr.Containers.Last(), c)
	fmt.Fprintf(w, "cluster utilization: %.1f%%\n", res.Utilization*100)
	return nil
}
