// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, running the same harnesses as
// cmd/lass-bench in quick mode and reporting the headline metric), plus
// micro-benchmarks of the hot control-plane paths the paper's Fig 5
// scalability argument rests on.
//
// Run them all:
//
//	go test -bench=. -benchmem
package lass

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"lass/internal/allocation"
	"lass/internal/controller"
	"lass/internal/dispatch"
	"lass/internal/experiments"
	"lass/internal/fairshare"
	"lass/internal/federation"
	"lass/internal/functions"
	"lass/internal/queuing"
	"lass/internal/sim"
	"lass/internal/xrand"

	icluster "lass/internal/cluster"
)

// runExperiment executes one experiment harness per iteration; most take a
// few seconds, so the default -benchtime runs them once.
func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiments.Run(id, experiments.Options{Seed: 42, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

func BenchmarkTable1FunctionCatalog(b *testing.B) {
	b.ReportAllocs()
	tab := runExperiment(b, "table1")
	b.ReportMetric(float64(len(tab.Rows)), "functions")
}

func BenchmarkFig3ModelValidationHomogeneous(b *testing.B) {
	b.ReportAllocs()
	tab := runExperiment(b, "fig3")
	met := 0
	for _, row := range tab.Rows {
		if row[5] == "true" {
			met++
		}
	}
	b.ReportMetric(float64(met)/float64(len(tab.Rows)), "slo-points-met-frac")
}

func BenchmarkFig4ModelValidationHeterogeneous(b *testing.B) {
	b.ReportAllocs()
	tab := runExperiment(b, "fig4")
	met := 0
	for _, row := range tab.Rows {
		if row[3] == "true" {
			met++
		}
	}
	b.ReportMetric(float64(met)/float64(len(tab.Rows)), "slo-points-met-frac")
}

func BenchmarkFig5SolverScalability(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "fig5")
}

func BenchmarkFig6AutoScaling(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "fig6")
}

func BenchmarkFig7DeflationServiceTime(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "fig7")
}

func BenchmarkFig8ReclamationPolicies(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "fig8")
}

func BenchmarkFig9AzureTrace(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "fig9")
}

func BenchmarkOpenWhiskBaselineCascade(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "openwhisk")
}

// checkBaselineColumns fails the bench (and so the CI bench smoke step,
// which runs no plain tests) when the committed BENCH_federation.json
// baseline is missing columns the sweep now produces, an aggregate row
// for a registered built-in placement policy, or the coordinator sweep's
// election/outage/lease scenario rows — a stale baseline used to pass
// silently. TestFederationBaselineColumns guards the same invariants for
// plain `go test` runs.
func checkBaselineColumns(b *testing.B, tab *experiments.Table) {
	b.Helper()
	const regen = "go run ./cmd/lass-sim -federation -fed-bench -quick -seed 1 -json BENCH_federation.json"
	raw, err := os.ReadFile("BENCH_federation.json")
	if err != nil {
		b.Fatalf("committed baseline unreadable: %v (regenerate with %s)", err, regen)
	}
	missing, err := experiments.MissingBaselineColumns(raw, tab)
	if err != nil {
		b.Fatal(err)
	}
	if len(missing) > 0 {
		b.Fatalf("BENCH_federation.json baseline is missing columns %v; regenerate with %s", missing, regen)
	}
	stale, err := experiments.MissingBaselinePolicies(raw, federation.BuiltinPlacerNames)
	if err != nil {
		b.Fatal(err)
	}
	if len(stale) > 0 {
		b.Fatalf("BENCH_federation.json baseline is missing policies %v; regenerate with %s", stale, regen)
	}
	scenarios, err := experiments.MissingCoordinatorScenarios(raw)
	if err != nil {
		b.Fatal(err)
	}
	if len(scenarios) > 0 {
		b.Fatalf("BENCH_federation.json baseline is missing coordinator scenarios %v; regenerate with %s", scenarios, regen)
	}
	engines, err := experiments.MissingEngineScenarios(raw)
	if err != nil {
		b.Fatal(err)
	}
	if len(engines) > 0 {
		b.Fatalf("BENCH_federation.json baseline is missing engine-bench scenarios %v; regenerate with %s", engines, regen)
	}
	controls, err := experiments.MissingControlScenarios(raw)
	if err != nil {
		b.Fatal(err)
	}
	if len(controls) > 0 {
		b.Fatalf("BENCH_federation.json baseline is missing control-bench scenarios %v; regenerate with %s", controls, regen)
	}
	chaos, err := experiments.MissingChaosScenarios(raw)
	if err != nil {
		b.Fatal(err)
	}
	if len(chaos) > 0 {
		b.Fatalf("BENCH_federation.json baseline is missing chaos-sweep scenarios %v; regenerate with %s", chaos, regen)
	}
	hier, err := experiments.MissingHierarchyScenarios(raw)
	if err != nil {
		b.Fatal(err)
	}
	if len(hier) > 0 {
		b.Fatalf("BENCH_federation.json baseline is missing hierarchy-sweep modes %v; regenerate with %s", hier, regen)
	}
}

// BenchmarkFederationSweep runs the synthetic offload-policy sweep (the
// same harness behind the committed BENCH_federation.json baseline, which
// is generated at seed 1 rather than this file's seed 42), validates the
// committed baseline still carries every sweep column, and reports the
// model-driven policy's aggregate violation rate.
func BenchmarkFederationSweep(b *testing.B) {
	b.ReportAllocs()
	tab := runExperiment(b, "federation")
	checkBaselineColumns(b, tab)
	for _, row := range tab.Rows {
		if row[0] == "model-driven" && row[2] == "all" {
			if v, err := strconv.ParseFloat(row[len(row)-1], 64); err == nil {
				b.ReportMetric(v, "model-driven-violation-rate")
			}
		}
	}
}

// BenchmarkFederationTrace runs the trace-driven sweep.
func BenchmarkFederationTrace(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "federation-trace")
}

// BenchmarkFederationPlacers runs the all-registered-placers sweep on the
// skewed traces (global fair share + admission + throttled cloud) and
// reports how much the grant-aware policy cuts the plain model-driven
// violation rate — the Placer API's headline number.
func BenchmarkFederationPlacers(b *testing.B) {
	b.ReportAllocs()
	tab := runExperiment(b, "federation-placers")
	rate := func(policy string) (float64, error) {
		row, err := experiments.PlacerAggregate(tab, policy)
		if err != nil {
			return 0, err
		}
		return strconv.ParseFloat(row[len(row)-1], 64)
	}
	model, err1 := rate("model-driven")
	grant, err2 := rate("grant-aware")
	if err1 == nil && err2 == nil && model > 0 {
		b.ReportMetric((model-grant)/model, "grant-aware-violation-cut-frac")
	}
}

// BenchmarkFederationFairShare runs the local-vs-global allocation sweep
// and reports how much the federation-wide allocator cuts the nearest-peer
// violation rate relative to per-site allocation.
func BenchmarkFederationFairShare(b *testing.B) {
	b.ReportAllocs()
	tab := runExperiment(b, "federation-fairshare")
	rate := func(alloc string) (float64, error) {
		row, err := experiments.FairShareAggregate(tab, "nearest-peer", alloc)
		if err != nil {
			return 0, err
		}
		return strconv.ParseFloat(row[len(row)-1], 64)
	}
	local, err1 := rate("local")
	global, err2 := rate("global")
	if err1 == nil && err2 == nil && local > 0 {
		b.ReportMetric((local-global)/local, "global-violation-cut-frac")
	}
}

// BenchmarkFederationCoordinator runs the coordinator election / outage /
// grant-lease sweep (whose invariants are hard-asserted inside the
// harness) and reports how much RTT-centroid election cuts the mean
// grant-delivery delay versus the fixed far-spoke placement.
func BenchmarkFederationCoordinator(b *testing.B) {
	b.ReportAllocs()
	tab := runExperiment(b, "federation-coordinator")
	if cut, err := experiments.CoordinatorDelayCut(tab); err == nil {
		b.ReportMetric(cut, "centroid-delay-cut-frac")
	} else {
		b.Fatal(err)
	}
}

// BenchmarkFederationChaos runs the chaos sweep — coordinator election x
// grant-lease across seeded Gilbert-Elliott failure replicates, with the
// leased-beats-frozen mean-violation assertion enforced inside the
// harness — and reports the fractional mean-violation cut leased grants
// achieve over frozen grants under centroid election.
func BenchmarkFederationChaos(b *testing.B) {
	b.ReportAllocs()
	tab := runExperiment(b, "federation-chaos")
	rate := func(coordinator, grants string) (float64, bool) {
		for _, row := range tab.Rows {
			if len(row) >= 4 && row[0] == coordinator && row[1] == grants {
				v, err := strconv.ParseFloat(row[3], 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	leased, ok1 := rate("centroid", "leased")
	frozen, ok2 := rate("centroid", "frozen")
	if ok1 && ok2 && frozen > 0 {
		b.ReportMetric((frozen-leased)/frozen, "leased-violation-cut-frac")
	}
}

func BenchmarkAblationEstimator(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "ablation-estimator")
}

func BenchmarkAblationPlacement(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "ablation-placement")
}

func BenchmarkAblationHetModel(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "ablation-hetmodel")
}

func BenchmarkAblationGGC(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "ablation-ggc")
}

// --- micro-benchmarks of the control-plane hot paths ---

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

// BenchmarkMetroDay runs the whole-stack metro-scale scenario — 100 edge
// sites replaying a full 24h trace day on one shared engine — once per
// iteration and guards the engine's throughput floor: the run must clear
// 100k events/sec (the dev-box rate is ~1.5M/s; the floor is set ~15x
// below so slow CI hardware passes but an O(n log n) -> O(n^2) regression
// in the scheduler or a new per-event allocation does not) and stay under
// 1 heap allocation per event. CI runs this with -benchtime=1x in the
// bench smoke.
func BenchmarkMetroDay(b *testing.B) {
	b.ReportAllocs()
	const floorEventsPerSec = 100_000
	for i := 0; i < b.N; i++ {
		st, err := experiments.MetroDay(experiments.Options{Seed: 1}, 100, 24*60)
		if err != nil {
			b.Fatal(err)
		}
		if eps := st.EventsPerSec(); eps < floorEventsPerSec {
			b.Fatalf("metro-day ran %.0f events/sec, below the %d floor (%d events in %v)",
				eps, floorEventsPerSec, st.Events, st.Wall)
		}
		if ape := st.AllocsPerEvent(); ape > 1 {
			b.Fatalf("metro-day allocated %.3f times per event; the pooled hot path must stay below 1", ape)
		}
		b.ReportMetric(st.EventsPerSec(), "events/sec")
		b.ReportMetric(st.AllocsPerEvent(), "allocs/event")
	}
}

// BenchmarkControlPlane runs the control-plane benchmark — per-function
// M/M/c sizing plus the federation-wide three-pass allocation, cold vs
// warm, on the 100-site metro demand set — and guards the incremental
// control plane's floors: the warm steady state must clear at least 3x the
// cold epoch rate (the dev-box ratio is orders of magnitude higher; the
// floor is set low so slow CI hardware passes but losing the warm path
// does not) and allocate exactly zero heap objects per epoch. CI runs this
// with -benchtime=1x as part of the bench smoke.
func BenchmarkControlPlane(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := experiments.Options{Seed: 1}
		cold, err := experiments.ControlEpochs(opt, "cold", 100, 8, 20)
		if err != nil {
			b.Fatal(err)
		}
		steady, err := experiments.ControlEpochs(opt, "steady", 100, 8, 200)
		if err != nil {
			b.Fatal(err)
		}
		// Re-measure before failing: a stray runtime allocation can land in
		// the measured window, but a real regression allocates every epoch
		// and fails every attempt.
		for attempt := 0; steady.Allocs != 0 && attempt < 2; attempt++ {
			if steady, err = experiments.ControlEpochs(opt, "steady", 100, 8, 200); err != nil {
				b.Fatal(err)
			}
		}
		if steady.Allocs != 0 {
			b.Fatalf("warm steady-state control epochs allocated %d times over %d epochs; want exactly 0",
				steady.Allocs, steady.Epochs)
		}
		if se, ce := steady.EpochsPerSec(), cold.EpochsPerSec(); se < 3*ce {
			b.Fatalf("warm steady state ran %.0f epochs/sec, below 3x the cold rate %.0f", se, ce)
		}
		b.ReportMetric(cold.EpochsPerSec(), "cold-epochs/sec")
		b.ReportMetric(steady.EpochsPerSec(), "steady-epochs/sec")
		b.ReportMetric(steady.AllocsPerEpoch(), "steady-allocs/epoch")
	}
}

// BenchmarkHierarchicalAllocator runs all-dirty hierarchical allocation
// epochs — quota-tree deserved cascade, metro-scoped spreading, and
// cross-site reclaim all firing — on a 32-site, 4-metro fleet with
// drifting demand, and guards the hierarchy refactor's floor: an epoch
// whose inputs did not change must allocate exactly zero heap objects,
// the same steady-state contract the flat allocator keeps. CI runs this
// with -benchtime=1x as part of the bench smoke.
func BenchmarkHierarchicalAllocator(b *testing.B) {
	b.ReportAllocs()
	const nsites, nmetros = 32, 4
	h := &allocation.Hierarchy{Root: &allocation.Group{ID: "root"}}
	for m := 0; m < nmetros; m++ {
		h.Root.Children = append(h.Root.Children, &allocation.Group{ID: fmt.Sprintf("m%d", m)})
	}
	var sites []allocation.SiteDemand
	for i := 0; i < nsites; i++ {
		g := h.Root.Children[i%nmetros]
		name := fmt.Sprintf("s%02d", i)
		g.Sites = append(g.Sites, name)
		sites = append(sites, allocation.SiteDemand{
			Site: name, Weight: 1, CapacityCPU: int64(1000 + 100*(i%7)),
			Functions: []allocation.FunctionDemand{
				{Name: "auth", Weight: 2, DesiredCPU: int64(400 * (i % 5))},
				{Name: "encode", Weight: 1, DesiredCPU: int64(300 * ((i + 2) % 4))},
				{Name: "infer", Weight: 3, DesiredCPU: int64(250 * ((i + 1) % 6))},
			},
		})
	}
	a := allocation.NewAllocator()
	if err := a.SetHierarchy(h, true); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Allocate(sites, true); err != nil {
		b.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := a.Allocate(sites, true); err != nil {
			b.Fatal(err)
		}
	})
	if allocs != 0 {
		b.Fatalf("hierarchical steady-state epochs allocated %.1f times; the warm quota-tree path must stay at 0", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Shift one site's demand every iteration so no epoch takes the
		// unchanged fast path.
		sites[i%nsites].Functions[0].DesiredCPU += int64(1 + i%3)
		if _, err := a.Allocate(sites, true); err != nil {
			b.Fatal(err)
		}
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
