// Overload and fair shares: the paper's Fig 8 scenario. A malware
// detector (BinaryAlert) and a DNN (MobileNet v2) share a 3-node edge
// cluster with equal weights. When their combined demand exceeds the
// cluster, LaSS guarantees each function its weighted fair share,
// reclaiming resources by container termination or — keeping strictly
// more capacity in play — by CPU deflation. The example runs the same
// scenario under both policies and prints the comparison.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"lass"
)

func simulate(policy lass.ReclamationPolicy) (*lass.Result, error) {
	malware, err := lass.FunctionByName("binaryalert")
	if err != nil {
		return nil, err
	}
	dnn, err := lass.FunctionByName("mobilenet-v2")
	if err != nil {
		return nil, err
	}
	// Phases (paper Fig 8a): malware alone; DNN burst at t=5; malware
	// rises at t=10 (overload) and again at t=15 (both over fair share);
	// DNN ceases at t=20.
	malwareWL, err := lass.StepWorkload([]lass.WorkloadStep{
		{Start: 0, Rate: 60},
		{Start: 10 * time.Minute, Rate: 80},
		{Start: 15 * time.Minute, Rate: 300},
	})
	if err != nil {
		return nil, err
	}
	dnnWL, err := lass.StepWorkload([]lass.WorkloadStep{
		{Start: 0, Rate: 0},
		{Start: 5 * time.Minute, Rate: 16},
		{Start: 20 * time.Minute, Rate: 0},
	})
	if err != nil {
		return nil, err
	}
	ctl := lass.DefaultController()
	ctl.Policy = policy
	sim, err := lass.NewSimulation(lass.SimulationConfig{
		Cluster:    lass.PaperCluster(),
		Controller: ctl,
		Seed:       11,
		Functions: []lass.FunctionConfig{
			{Spec: malware, Workload: malwareWL, Weight: 1},
			{Spec: dnn, Workload: dnnWL, Weight: 1},
		},
	})
	if err != nil {
		return nil, err
	}
	return sim.Run(25 * time.Minute)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints both policies' timelines and their comparison to w.
func run(w io.Writer) error {
	results := map[lass.ReclamationPolicy]*lass.Result{}
	for _, policy := range []lass.ReclamationPolicy{lass.Termination, lass.Deflation} {
		res, err := simulate(policy)
		if err != nil {
			return err
		}
		results[policy] = res

		fmt.Fprintf(w, "--- policy: %v ---\n", policy)
		fmt.Fprintln(w, "t(min)  binaryalert(mC)  mobilenet(mC)  cluster-util")
		for _, m := range []int{2, 7, 12, 17, 22} {
			ts := time.Duration(m) * time.Minute
			fmt.Fprintf(w, "%5d %16.0f %14.0f %13.1f%%\n",
				m,
				res.Functions["binaryalert"].CPU.ValueAt(ts),
				res.Functions["mobilenet-v2"].CPU.ValueAt(ts),
				res.UtilizationTS.ValueAt(ts)*100)
		}
		fmt.Fprintf(w, "mean utilization: %.1f%%   container ops: %d created, %d terminated, %d deflated\n\n",
			res.Utilization*100,
			res.ControllerOps.Creations, res.ControllerOps.Terminations, res.ControllerOps.Deflations)
	}

	t := results[lass.Termination]
	d := results[lass.Deflation]
	fmt.Fprintf(w, "deflation vs termination utilization: %.1f%% vs %.1f%% (paper: 83.2%% vs 78.2%%)\n",
		d.Utilization*100, t.Utilization*100)
	fmt.Fprintf(w, "requests rerun due to terminations: termination=%d deflation=%d\n",
		t.Functions["binaryalert"].Requeued+t.Functions["mobilenet-v2"].Requeued,
		d.Functions["binaryalert"].Requeued+d.Functions["mobilenet-v2"].Requeued)
	return nil
}
