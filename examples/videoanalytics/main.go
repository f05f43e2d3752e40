// Video analytics at the edge: the paper's motivating example (§1,
// Example 1). A motion-activated smart camera produces bursts of frames;
// each frame is one invocation of a DNN inference function (MobileNet v2).
// LaSS scales the container pool up within the burst and back down after
// it, keeping inference latency inside the SLO without statically
// provisioning for the peak.
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

// run simulates the camera and the drones and prints the pool timeline to w.
func run(w io.Writer) error {
	mobilenet, err := lass.FunctionByName("mobilenet-v2")
	if err != nil {
		return err
	}
	// Inference must start within 250 ms of frame arrival for alerts to
	// be "near real-time".
	slo := lass.SLO{Deadline: 250 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}

	// The camera: idle, then three motion events of increasing intensity
	// (frames/s), each a few minutes long, with quiet gaps between.
	camera, err := lass.StepWorkload([]lass.WorkloadStep{
		{Start: 0, Rate: 0.5},                // background: periodic keep-alive frames
		{Start: 3 * time.Minute, Rate: 8},    // motion event 1
		{Start: 6 * time.Minute, Rate: 0.5},  // quiet
		{Start: 9 * time.Minute, Rate: 16},   // motion event 2 (busy scene)
		{Start: 13 * time.Minute, Rate: 0.5}, // quiet
		{Start: 16 * time.Minute, Rate: 10},  // motion event 3
		{Start: 19 * time.Minute, Rate: 0.5},
	})
	if err != nil {
		return err
	}

	// A GeoFence function shares the edge cluster (drones reporting
	// positions) — steady light load, unaffected by the camera bursts.
	geofence, err := lass.FunctionByName("geofence")
	if err != nil {
		return err
	}
	drones, err := lass.StaticWorkload(50)
	if err != nil {
		return err
	}

	ctl := lass.DefaultController()
	ctl.MinContainers = 1
	sim, err := lass.NewSimulation(lass.SimulationConfig{
		Cluster:    lass.ClusterConfig{Nodes: 5, CPUPerNode: 4000, MemPerNode: 16384},
		Controller: ctl,
		Seed:       7,
		Functions: []lass.FunctionConfig{
			{Spec: mobilenet, SLO: slo, Workload: camera, Prewarm: 1},
			{Spec: geofence, Workload: drones, Prewarm: 1},
		},
	})
	if err != nil {
		return err
	}
	res, err := sim.Run(22 * time.Minute)
	if err != nil {
		return err
	}

	inf := res.Functions[mobilenet.Name]
	fmt.Fprintln(w, "t(min)  frames/s  containers   (MobileNet v2 inference pool)")
	for m := 0; m <= 21; m++ {
		ts := time.Duration(m)*time.Minute + 30*time.Second
		bar := ""
		for i := 0; i < int(inf.Containers.ValueAt(ts)); i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%5d %9.1f %11.0f   %s\n", m, camera.RateAt(ts), inf.Containers.ValueAt(ts), bar)
	}
	fmt.Fprintf(w, "\ninference: %d frames, P95 wait %.0f ms, SLO attainment %.3f\n",
		inf.Completed, inf.Waits.Quantile(0.95)*1000, inf.SLO.Attainment())
	gf := res.Functions[geofence.Name]
	fmt.Fprintf(w, "geofence : %d checks, P95 wait %.1f ms, SLO attainment %.3f (isolated from bursts)\n",
		gf.Completed, gf.Waits.Quantile(0.95)*1000, gf.SLO.Attainment())
	return nil
}
