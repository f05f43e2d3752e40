// Multi-tenant edge cluster on Azure-style traces: the paper's §6.7
// experiment. Two users share the cluster — user2 paying for twice
// user1's weight — each running three functions driven by synthesized
// traces in the Azure Functions 2019 per-minute schema. MobileNet follows
// the dataset's "highly sporadic" pattern: long silence, then intense
// bursts that force overload and fair-share reclamation.
package main

import (
	"fmt"
	"log"
	"time"

	"lass"
)

type tenant struct {
	fn        string
	user      string
	archetype lass.TraceArchetype
	perMinute float64
}

func main() {
	// Means are invocations/minute; the archetypes concentrate volume
	// (Sporadic packs its mean into ~3% of minutes, so 18/min means
	// ~10 req/s bursts; Periodic spikes at ~5 req/s on 25/min).
	members := []tenant{
		{"shufflenet-v2", "user1", lass.TraceSteady, 6 * 60},
		{"geofence", "user1", lass.TraceBursty, 2 * 60},
		{"image-resizer", "user1", lass.TraceSteady, 15 * 60},
		{"mobilenet-v2", "user2", lass.TraceSporadic, 18},
		{"squeezenet", "user2", lass.TraceSteady, 10 * 60},
		{"binaryalert", "user2", lass.TracePeriodic, 25},
	}
	const minutes = 60

	// Synthesize full 24h traces, then — like the paper sampling the
	// 11:00-12:00 hour — run the hour where MobileNet's sporadic trace is
	// actually bursting.
	rows := map[string]lass.TraceRow{}
	for i, m := range members {
		row, err := lass.SynthesizeTrace(uint64(100+i), m.archetype, m.perMinute, 1440)
		if err != nil {
			log.Fatal(err)
		}
		rows[m.fn] = row
	}
	start := lass.FindActiveTraceWindow(rows["mobilenet-v2"].Counts, minutes)
	fmt.Printf("sampling trace minutes %d-%d (busiest MobileNet hour)\n\n", start, start+minutes)

	var fcs []lass.FunctionConfig
	for _, m := range members {
		wl, err := lass.TraceWorkload(rows[m.fn].Window(start, start+minutes))
		if err != nil {
			log.Fatal(err)
		}
		spec, err := lass.FunctionByName(m.fn)
		if err != nil {
			log.Fatal(err)
		}
		fcs = append(fcs, lass.FunctionConfig{
			Spec: spec, User: m.user, Weight: 1, Workload: wl, Prewarm: 1,
		})
	}

	ctl := lass.DefaultController()
	ctl.Policy = lass.Deflation
	ctl.MinContainers = 1
	sim, err := lass.NewSimulation(lass.SimulationConfig{
		Cluster:    lass.PaperCluster(),
		Controller: ctl,
		Seed:       21,
		Users:      map[string]float64{"user1": 1, "user2": 2},
		Functions:  fcs,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(minutes * time.Minute)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-15s %-6s %10s %12s %10s %9s\n",
		"function", "user", "completed", "P95 wait", "SLO att", "mean mC")
	var userCPU [2]float64
	for i, m := range members {
		fr := res.Functions[m.fn]
		mean := fr.CPU.Mean()
		if m.user == "user1" {
			userCPU[0] += mean
		} else {
			userCPU[1] += mean
		}
		fmt.Printf("%-15s %-6s %10d %11.1fms %10.3f %9.0f\n",
			m.fn, m.user, fr.Completed, fr.Waits.Quantile(0.95)*1000,
			fr.SLO.Attainment(), mean)
		_ = i
	}
	fmt.Printf("\nmean CPU by user: user1 %.0f mC, user2 %.0f mC (weights 1:2; overload shares follow weights)\n",
		userCPU[0], userCPU[1])
	fmt.Printf("cluster utilization %.1f%%, overload epochs %d, deflations %d\n",
		res.Utilization*100, res.ControllerOps.Overloads, res.ControllerOps.Deflations)
}
