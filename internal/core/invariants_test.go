package core

import (
	"reflect"
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/functions"
	"lass/internal/workload"
	"lass/internal/xrand"
)

// TestInvariantCapacityNeverExceeded drives randomized multi-function
// workloads through the full platform and asserts, at every controller
// epoch, that the cluster's accounting invariants hold: allocated CPU
// never exceeds capacity on any node, and per-function request
// conservation (arrivals = completed + queued + in-flight) holds at the
// end of each run.
func TestInvariantCapacityNeverExceeded(t *testing.T) {
	rng := xrand.New(20240610)
	catalog := functions.Catalog()
	for trial := 0; trial < 8; trial++ {
		var cfgs []FunctionConfig
		nFuncs := rng.Intn(4) + 2
		for i := 0; i < nFuncs; i++ {
			spec := catalog[rng.Intn(len(catalog))]
			if hasFunc(cfgs, spec.Name) {
				continue
			}
			// Random step schedule, occasionally saturating.
			var steps []workload.Step
			at := time.Duration(0)
			for s := 0; s < rng.Intn(3)+1; s++ {
				steps = append(steps, workload.Step{
					Start: at,
					Rate:  rng.Uniform(0, 30),
				})
				at += time.Duration(rng.Intn(120)+30) * time.Second
			}
			wl, err := workload.NewSteps(steps)
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, FunctionConfig{
				Spec: spec, Workload: wl, Weight: float64(rng.Intn(3) + 1),
				Prewarm: rng.Intn(2),
			})
		}
		if len(cfgs) == 0 {
			continue
		}
		policy := controller.ReclamationPolicy(rng.Intn(2))
		p, err := New(Config{
			Cluster:    cluster.PaperCluster(),
			Controller: controller.Config{Policy: policy},
			Seed:       rng.Uint64(),
			Functions:  cfgs,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Check node-level invariants at every epoch boundary.
		p.Engine.Every(5*time.Second, func() {
			used := make(map[*cluster.Node]int64)
			for _, fc := range cfgs {
				f, _ := p.Controller.Function(fc.Spec.Name)
				for _, c := range f.Containers() {
					if c.CPUCurrent <= 0 || c.CPUCurrent > c.CPUStandard {
						t.Fatalf("trial %d: container %d CPU %d outside (0,%d]",
							trial, c.ID, c.CPUCurrent, c.CPUStandard)
					}
					used[c.Node()] += c.CPUCurrent
				}
			}
			for _, n := range p.Cluster.Nodes() {
				if n.CPUFree() < 0 {
					t.Fatalf("trial %d: node %d CPU %d > capacity %d",
						trial, n.ID, n.CPUCapacity-n.CPUFree(), n.CPUCapacity)
				}
				if n.MemFree() < 0 {
					t.Fatalf("trial %d: node %d mem %d > capacity %d",
						trial, n.ID, n.MemCapacity-n.MemFree(), n.MemCapacity)
				}
				if sum := used[n]; sum != n.CPUCapacity-n.CPUFree() {
					t.Fatalf("trial %d: node %d accounting drift: %d != %d",
						trial, n.ID, sum, n.CPUCapacity-n.CPUFree())
				}
			}
		})
		res, err := p.Run(6 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for name, fr := range res.Functions {
			q := p.Queues[name]
			accounted := fr.Completed + fr.TimedOut + uint64(q.QueueLength()) + uint64(q.InFlight())
			if fr.Arrivals != accounted {
				t.Errorf("trial %d: %s conservation: %d arrivals vs %d accounted",
					trial, name, fr.Arrivals, accounted)
			}
		}
	}
}

// TestCapacityThatNeverBindsChangesNothing: capacity enters a run only
// through overload, so on a cluster that never overloads, doubling the
// node count leaves every function's measurements — waits, responses,
// counters and the controller's series — exactly as they were; only the
// cluster's utilization moves. Seeded draws of one to three catalog
// functions at static rates are run at n and 2n nodes, and the property is
// checked on every draw with no overload epoch at either size. Fewer than
// eight such draws fails the test rather than passing it vacuously.
func TestCapacityThatNeverBindsChangesNothing(t *testing.T) {
	rng := xrand.New(5)
	catalog := functions.Catalog()
	run := func(cfgs []FunctionConfig, nodes int, seed uint64) *Result {
		p, err := New(Config{
			Cluster:    cluster.Config{Nodes: nodes, CPUPerNode: 4000, MemPerNode: 16384, Policy: cluster.WorstFit},
			Controller: controller.Config{MinContainers: 1},
			Seed:       seed,
			Functions:  cfgs,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(5 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	checked := 0
	for draw := 0; draw < 16; draw++ {
		var cfgs []FunctionConfig
		for range rng.Intn(3) + 1 {
			spec := catalog[rng.Intn(len(catalog))]
			if hasFunc(cfgs, spec.Name) {
				continue
			}
			cfgs = append(cfgs, FunctionConfig{Spec: spec, Workload: staticWL(t, rng.Uniform(5, 90)), Prewarm: 1})
		}
		nodes, seed := 3+rng.Intn(6), rng.Uint64()
		small, large := run(cfgs, nodes, seed), run(cfgs, 2*nodes, seed)
		if small.ControllerOps.Overloads > 0 || large.ControllerOps.Overloads > 0 {
			continue
		}
		checked++
		for _, fc := range cfgs {
			name := fc.Spec.Name
			if !reflect.DeepEqual(small.Functions[name], large.Functions[name]) {
				t.Errorf("draw %d: %s on %d nodes differs from %d nodes with no overload at either size",
					draw, name, nodes, 2*nodes)
			}
		}
		if small.ControllerOps != large.ControllerOps {
			t.Errorf("draw %d: controller actions %+v on %d nodes, %+v on %d", draw, small.ControllerOps, nodes, large.ControllerOps, 2*nodes)
		}
	}
	if checked < 8 {
		t.Fatalf("only %d of 16 draws ran without overload at both sizes; want at least 8", checked)
	}
}

func hasFunc(cfgs []FunctionConfig, name string) bool {
	for _, c := range cfgs {
		if c.Spec.Name == name {
			return true
		}
	}
	return false
}

// TestTraceDrivenRun exercises the Azure-trace path end to end through
// the platform config.
func TestTraceDrivenRun(t *testing.T) {
	counts := []float64{600, 1200, 300, 0, 900} // per-minute
	wl, err := workload.FromPerMinuteCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := functions.ByName("geofence")
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Cluster:    cluster.PaperCluster(),
		Controller: controller.Config{MinContainers: 1},
		Seed:       9,
		Functions:  []FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Functions[spec.Name]
	// Expected arrivals: sum of counts = 3000 (±5σ).
	if fr.Arrivals < 2700 || fr.Arrivals > 3300 {
		t.Errorf("arrivals=%d want ~3000", fr.Arrivals)
	}
	// Minute 3 is silent: no arrivals between 3:00 and 4:00.
	if fr.Completed == 0 {
		t.Error("nothing completed")
	}
}
