// Micro-benchmarks of the single-function hot paths the paper's Fig 5
// scalability argument rests on — a developer tool with no floors and no
// committed numbers. benchmark/ measures whole workloads end to end.
//
// Run them all:
//
//	go test -bench=. -benchmem
package lass

import (
	"fmt"
	"testing"
	"time"

	"lass/internal/allocation"
	"lass/internal/controller"
	"lass/internal/dispatch"
	"lass/internal/fairshare"
	"lass/internal/functions"
	"lass/internal/queuing"
	"lass/internal/sim"
	"lass/internal/xrand"

	icluster "lass/internal/cluster"
)

// BenchmarkSolverHomogeneous measures one Algorithm 1 sizing (the per
// -epoch, per-function cost in the common homogeneous case).
func BenchmarkSolverHomogeneous(b *testing.B) {
	b.ReportAllocs()
	slo := DefaultSLO()
	for i := 0; i < b.N; i++ {
		if _, err := queuing.MinimalContainers(45, 10, slo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverHeterogeneous1000 measures resizing a 1000-container
// heterogeneous pool after a +10% spike — the paper's Fig 5 headline
// (sub-100ms reaction at 1000 containers).
func BenchmarkSolverHeterogeneous1000(b *testing.B) {
	b.ReportAllocs()
	slo := DefaultSLO()
	rng := xrand.New(9)
	rates := make([]float64, 1000)
	var total float64
	for i := range rates {
		rates[i] = 10.0
		if i%3 == 0 {
			rates[i] = rng.Uniform(7, 9.5)
		}
		total += rates[i]
	}
	lambda := 0.8 * total * 1.10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queuing.AdditionalHetContainers(lambda, rates, 10, slo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMCProbWait measures one steady-state evaluation.
func BenchmarkMMCProbWait(b *testing.B) {
	b.ReportAllocs()
	m := queuing.MMC{Lambda: 900, Mu: 10, C: 120}
	for i := 0; i < b.N; i++ {
		if _, err := m.ProbWaitLE(0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairShareAdjust measures one overload adjustment across 100
// functions.
func BenchmarkFairShareAdjust(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(3)
	demands := make([]fairshare.Demand, 100)
	for i := range demands {
		demands[i] = fairshare.Demand{
			ID:      string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Weight:  float64(rng.Intn(4) + 1),
			Desired: int64(rng.Intn(4000)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairshare.AdjustCapped(demands, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalAllocator measures one federation-wide allocation epoch
// at fleet scale: 16 sites x 32 functions across 4 user namespaces, with
// skewed demand so every pass (entitlement, feasibility clamp, overflow
// spreading, drift accounting) does real work.
func BenchmarkGlobalAllocator(b *testing.B) {
	b.ReportAllocs()
	rng := xrand.New(17)
	sites := make([]allocation.SiteDemand, 16)
	for i := range sites {
		fns := make([]allocation.FunctionDemand, 32)
		for j := range fns {
			desire := int64(rng.Intn(500))
			if i%4 == 0 {
				desire *= 8 // every fourth site runs hot
			}
			fns[j] = allocation.FunctionDemand{
				Name:       fmt.Sprintf("f%02d", j),
				User:       fmt.Sprintf("u%d", j%4),
				UserWeight: float64(j%4 + 1),
				Weight:     float64(rng.Intn(4) + 1),
				DesiredCPU: desire,
			}
		}
		sites[i] = allocation.SiteDemand{
			Site:        fmt.Sprintf("edge-%02d", i),
			CapacityCPU: 16000,
			Functions:   fns,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := allocation.Allocate(sites, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatorRecordAndRate measures the per-arrival estimator cost
// plus a rate read every 64 arrivals.
func BenchmarkEstimatorRecordAndRate(b *testing.B) {
	b.ReportAllocs()
	d, err := controller.NewDualWindow(controller.DefaultDualWindow())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * time.Millisecond
		d.RecordArrival(now)
		if i%64 == 0 {
			d.Rate(now)
		}
	}
}

// BenchmarkDispatchRequest measures the full data-path cost of one request
// (arrive → WRR select → service event → completion).
func BenchmarkDispatchRequest(b *testing.B) {
	b.ReportAllocs()
	engine := sim.NewEngine()
	cl, err := icluster.New(icluster.Config{Nodes: 4, CPUPerNode: 4000, MemPerNode: 16384})
	if err != nil {
		b.Fatal(err)
	}
	spec := functions.MicroBenchmark(time.Millisecond)
	q, err := dispatch.NewQueue(engine, spec, 100*time.Millisecond, xrand.New(5))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c, err := cl.Place(spec.Name, spec.CPUMillis, spec.MemoryMiB)
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.MarkRunning(c); err != nil {
			b.Fatal(err)
		}
		if err := q.AddContainer(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Arrive()
		engine.Run() // drain the completion event(s)
	}
}

// BenchmarkSimulationMinute measures simulating one minute of a 30 req/s
// platform end to end (workload, dispatch, controller epochs, metrics).
func BenchmarkSimulationMinute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec := MicroBenchmark(100 * time.Millisecond)
		wl, err := StaticWorkload(30)
		if err != nil {
			b.Fatal(err)
		}
		p, err := NewSimulation(SimulationConfig{
			Cluster:   PaperCluster(),
			Seed:      uint64(i),
			Functions: []FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 2}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
