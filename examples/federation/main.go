// Edge–cloud federation with dynamic offload. Three small edge sites run
// SqueezeNet behind the LaSS controller on a star topology (edge-0 is the
// hub); the middle of the run slams site edge-0 with three times its
// capacity. The example runs the same scenario under the seven built-in
// placement policies — the never single-cluster baseline, cloud-only,
// nearest-peer, model-driven, grant-aware, cost-bounded and metro-affine,
// each resolved by name (lass.PlacerNames, lass.PlacerByName) — and prints
// where each site's requests were served, the cloud cold starts and
// dollars each policy paid, and the end-to-end SLO violation rate, network
// RTT included. A custom lass.Placer joins the comparison by setting it in
// FederationConfig.Placer for one more run. A closing section reruns the scenario under
// the federation-wide fair-share allocator with an elected,
// failure-prone coordinator: RTT-centroid election, a mid-run outage
// window, and grant leases versus the frozen-grants legacy.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"lass"
)

func sites() ([]lass.SimulationConfig, error) {
	spec, err := lass.FunctionByName("squeezenet")
	if err != nil {
		return nil, err
	}
	// One 4-core node per site: ~40 req/s of SqueezeNet capacity.
	edge := lass.ClusterConfig{Nodes: 1, CPUPerNode: 4000, MemPerNode: 8192}
	hot, err := lass.StepWorkload([]lass.WorkloadStep{
		{Start: 0, Rate: 20},
		{Start: 3 * time.Minute, Rate: 120}, // 3x overload
		{Start: 6 * time.Minute, Rate: 20},
	})
	if err != nil {
		return nil, err
	}
	var cfgs []lass.SimulationConfig
	for i := 0; i < 3; i++ {
		wl := hot
		if i > 0 {
			if wl, err = lass.StaticWorkload(10); err != nil {
				return nil, err
			}
		}
		cfgs = append(cfgs, lass.SimulationConfig{
			Cluster:    edge,
			Controller: lass.ControllerConfig{MinContainers: 1},
			Seed:       uint64(100 + i),
			Functions:  []lass.FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
		})
	}
	return cfgs, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the placement comparison and the coordinator demo to w.
func run(w io.Writer) error {
	fmt.Fprintf(w, "%-14s %-8s %8s %8s %8s %9s %6s %10s %11s\n",
		"policy", "site", "local", "to-peer", "to-cloud", "peer-in", "cold", "cost-$", "violations")
	for _, name := range lass.PlacerNames() {
		placer, err := lass.PlacerByName(name)
		if err != nil {
			return err
		}
		cfgs, err := sites()
		if err != nil {
			return err
		}
		// Hub-and-spoke: the hot site edge-0 is 3 ms from each peer; the
		// peers reach each other through it at 6 ms.
		topo, err := lass.StarTopology(len(cfgs), 3*time.Millisecond)
		if err != nil {
			return err
		}
		fed, err := lass.NewFederation(lass.FederationConfig{
			Sites:    cfgs,
			Placer:   placer,
			Topology: topo,
			Seed:     1,
		})
		if err != nil {
			return err
		}
		res, err := fed.Run(9 * time.Minute)
		if err != nil {
			return err
		}
		for _, s := range res.Sites {
			// ViolationRate counts requests still backlogged at run end as
			// misses, so the never policy's stranded burst isn't flattered.
			fmt.Fprintf(w, "%-14s %-8s %8d %8d %8d %9d %6d %10.6f %10.1f%%\n",
				res.Placer, s.Name, s.ServedLocal, s.OffloadedPeer, s.OffloadedCloud,
				s.PeerServed, s.CloudColdStarts, s.CloudCost, 100*s.ViolationRate())
		}
	}
	return coordinatorDemo(w)
}

// coordinatorDemo reruns the scenario under the federation-wide §4.1
// allocator with the coordinator treated as a first-class, failure-prone
// role: RTT-centroid election seats it at the best-connected site (the
// hub, here), a mid-run outage window takes it dark across the burst, and
// the default grant lease (2× the allocation epoch) lets every site fall
// back to local enforcement instead of freezing on its stale pre-burst
// grants. The federation-coordinator experiment (lass-bench -experiment
// federation-coordinator) runs the stressed version of this comparison — an
// asymmetric star with a throttled cloud — where lease fallback measurably
// cuts the outage-window violation spike versus frozen grants.
func coordinatorDemo(w io.Writer) error {
	fmt.Fprintf(w, "\nglobal fair share with an elected, failure-prone coordinator:\n")
	fmt.Fprintf(w, "%-22s %-12s %8s %8s %10s %12s %11s\n",
		"variant", "coordinator", "epochs", "missed", "lease-exp", "grant-delay", "violations")
	run := func(label string, election lass.CoordinatorElection, outages []lass.OutageWindow, lease time.Duration) error {
		cfgs, err := sites()
		if err != nil {
			return err
		}
		topo, err := lass.StarTopology(len(cfgs), 3*time.Millisecond)
		if err != nil {
			return err
		}
		placer, err := lass.PlacerByName("model-driven")
		if err != nil {
			return err
		}
		cfg := lass.FederationConfig{
			Sites:               cfgs,
			Placer:              placer,
			Topology:            topo,
			GlobalFairShare:     true,
			CoordinatorElection: election,
			GrantLease:          lease,
			Seed:                1,
		}
		if len(outages) > 0 {
			faults, err := lass.NewChaosEngine(lass.ChaosConfig{Sites: len(cfgs), Faults: []lass.ChaosFault{
				{Kind: lass.ChaosFaultCoordinator, Windows: outages},
			}})
			if err != nil {
				return err
			}
			cfg.Faults = faults
		}
		fed, err := lass.NewFederation(cfg)
		if err != nil {
			return err
		}
		res, err := fed.Run(9 * time.Minute)
		if err != nil {
			return err
		}
		var violated, total uint64
		for _, s := range res.Sites {
			violated += s.Violations()
			total += s.SLO.Total() + s.Unresolved
		}
		fmt.Fprintf(w, "%-22s %-12s %8d %8d %10d %12v %10.1f%%\n",
			label, fmt.Sprintf("%s@%d", res.Election, res.Coordinator),
			res.AllocEpochs, res.MissedAllocEpochs, res.GrantLeaseExpirations,
			res.MeanGrantDelay, 100*float64(violated)/float64(total))
		return nil
	}
	// The burst hits edge-0 during minutes 3-6; the outage covers it.
	outage := []lass.OutageWindow{{Start: 150 * time.Second, End: 6 * time.Minute}}
	if err := run("centroid, healthy", lass.CoordinatorRTTCentroid, nil, 0); err != nil {
		return err
	}
	if err := run("centroid, outage", lass.CoordinatorRTTCentroid, outage, 0); err != nil {
		return err
	}
	return run("outage, frozen grants", lass.CoordinatorRTTCentroid, outage, -1)
}
