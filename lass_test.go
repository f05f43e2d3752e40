package lass_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lass"

	"lass/internal/cluster"
	"lass/internal/controller"
)

func TestPublicAPISimulation(t *testing.T) {
	spec := lass.MicroBenchmark(100 * time.Millisecond)
	wl, err := lass.StaticWorkload(20)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lass.NewSimulation(lass.SimulationConfig{
		Cluster:   lass.PaperCluster(),
		Seed:      1,
		Functions: []lass.FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Functions[spec.Name]
	if fr.Completed == 0 {
		t.Fatal("nothing completed through the public API")
	}
	if fr.SLO.Attainment() < 0.8 {
		t.Errorf("attainment %.3f", fr.SLO.Attainment())
	}
}

func TestPublicAPISolvers(t *testing.T) {
	c, err := lass.RequiredContainers(30, 10, lass.DefaultSLO())
	if err != nil {
		t.Fatal(err)
	}
	if c < 4 || c > 7 {
		t.Errorf("c=%d outside plausible range for lambda=30 mu=10", c)
	}
}

func TestPublicAPICatalogAndTraces(t *testing.T) {
	if _, err := lass.FunctionByName("squeezenet"); err != nil {
		t.Error(err)
	}
	row, err := lass.SynthesizeTrace(5, lass.TraceSporadic, 18, 1440)
	if err != nil {
		t.Fatal(err)
	}
	start := lass.FindActiveTraceWindow(row.Counts, 60)
	window := row.Window(start, start+60)
	if len(window) != 60 {
		t.Fatalf("window length %d", len(window))
	}
	wl, err := lass.TraceWorkload(window)
	if err != nil {
		t.Fatal(err)
	}
	if r := wl.RateAt(time.Hour); r != 0 {
		t.Errorf("trace workload rate %v after its hour", r)
	}
}

//lass:wallclock exercises the re-exported real-time platform live.
func TestPublicAPIRealtime(t *testing.T) {
	p, err := lass.NewRealtime(lass.RealtimeConfig{
		Cluster: lass.PaperCluster(),
		Controller: controller.Config{
			EvalInterval:  100 * time.Millisecond,
			Windows:       controller.DualWindowConfig{Short: 2 * time.Second, Long: 10 * time.Second, BurstFactor: 2},
			MinContainers: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	spec := lass.MicroBenchmark(5 * time.Millisecond)
	spec.ColdStart = 10 * time.Millisecond
	handler := func(ctx context.Context, payload []byte) ([]byte, error) {
		if f := lass.HandlerCPUFraction(ctx); f <= 0 || f > 1 {
			return nil, fmt.Errorf("bad cpu fraction %v", f)
		}
		return []byte("ok"), nil
	}
	if err := p.Register(spec, handler, lass.DefaultSLO()); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision(spec.Name, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := p.Invoke(ctx, spec.Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Errorf("out=%q", out)
	}
}

func TestPolicyConstantsWired(t *testing.T) {
	if lass.Termination == lass.Deflation {
		t.Error("policy constants collide")
	}
	ctl := lass.DefaultController()
	if ctl.Policy != lass.Deflation {
		t.Errorf("default policy %v", ctl.Policy)
	}
	_ = cluster.Config(lass.PaperCluster()) // type identity sanity
}

// ExampleRequiredContainers demonstrates sizing a function with the
// paper's queueing model.
func ExampleRequiredContainers() {
	slo := lass.SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	c, _ := lass.RequiredContainers(30, 10, slo)
	fmt.Println(c)
	// Output: 5
}

// TestPublicAPICoordinatorElection exercises the coordinator surface: the
// election constants, centroid election on a custom topology,
// outage windows, and the failure counters on the run result.
func TestPublicAPICoordinatorElection(t *testing.T) {
	if lass.CoordinatorFixed.String() != "fixed" || lass.CoordinatorRTTCentroid.String() != "centroid" {
		t.Error("coordinator election constants misnamed")
	}
	ms := time.Millisecond
	topo, err := lass.NewFederationTopology([][]time.Duration{
		{0, 20 * ms, 22 * ms},
		{18 * ms, 0, 2 * ms},
		{21 * ms, 3 * ms, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hub := topo.RTTCentroid(); hub != 1 {
		t.Fatalf("RTTCentroid = %d, want 1", hub)
	}
	spec, err := lass.FunctionByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	site := func(rate float64, seed uint64) lass.SimulationConfig {
		wl, err := lass.StaticWorkload(rate)
		if err != nil {
			t.Fatal(err)
		}
		return lass.SimulationConfig{
			Cluster:    lass.PaperCluster(),
			Controller: controller.Config{MinContainers: 1},
			Seed:       seed,
			Functions:  []lass.FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
		}
	}
	outage, err := lass.NewChaosEngine(lass.ChaosConfig{Sites: 3, Faults: []lass.ChaosFault{{
		Kind:    lass.ChaosFaultCoordinator,
		Windows: []lass.OutageWindow{{Start: 15 * time.Second, End: time.Hour}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := lass.NewFederation(lass.FederationConfig{
		Sites:               []lass.SimulationConfig{site(30, 1), site(5, 2), site(5, 3)},
		Topology:            topo,
		GlobalFairShare:     true,
		CoordinatorElection: lass.CoordinatorRTTCentroid,
		Faults:              outage,
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coordinator != 1 {
		t.Errorf("centroid coordinator = %d, want 1", res.Coordinator)
	}
	if res.MissedAllocEpochs == 0 {
		t.Error("run-long outage missed no allocation epochs")
	}
	if res.GrantLeaseExpirations == 0 {
		t.Error("outage longer than the default lease expired no grants")
	}
}

// slowPeerPlacer is a custom policy: offload overload to whichever peer
// currently has the most containers its backlog leaves free, cloud never.
type slowPeerPlacer struct{}

func (slowPeerPlacer) Name() string { return "most-idle-peer" }

func (slowPeerPlacer) Place(ctx *lass.PlacementContext) lass.PlacementDecision {
	if !ctx.Overloaded(ctx.Origin()) {
		return lass.PlaceLocal()
	}
	best, idle := -1, 0
	for _, p := range ctx.PeersByRTT() {
		if n := ctx.Containers(p) - ctx.Backlog(p); n > idle {
			best, idle = p, n
		}
	}
	if best >= 0 {
		return lass.PlaceAtSite(best)
	}
	return lass.PlaceLocal()
}

// TestPublicAPICustomPlacer runs a placement policy defined outside the
// library through FederationConfig.Placer end to end — its decisions and
// the run's result labelling — without touching internal/federation.
func TestPublicAPICustomPlacer(t *testing.T) {
	spec, err := lass.FunctionByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	site := func(rate float64, seed uint64, nodes int) lass.SimulationConfig {
		wl, err := lass.StaticWorkload(rate)
		if err != nil {
			t.Fatal(err)
		}
		return lass.SimulationConfig{
			Cluster:    lass.ClusterConfig{Nodes: nodes, CPUPerNode: 1000, MemPerNode: 2048},
			Controller: controller.Config{MinContainers: 1},
			Seed:       seed,
			Functions:  []lass.FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
		}
	}
	fed, err := lass.NewFederation(lass.FederationConfig{
		Sites:  []lass.SimulationConfig{site(60, 1, 1), site(2, 2, 8), site(2, 3, 8)},
		Placer: slowPeerPlacer{},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placer != "most-idle-peer" {
		t.Errorf("result labelled %q, want most-idle-peer", res.Placer)
	}
	if res.Sites[0].OffloadedPeer == 0 {
		t.Errorf("custom placer shed nothing from the overloaded site: %+v", res.Sites[0])
	}
	if res.Sites[0].OffloadedCloud != 0 {
		t.Errorf("most-idle-peer used the cloud: %+v", res.Sites[0])
	}
}
