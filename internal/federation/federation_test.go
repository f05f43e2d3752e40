package federation

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"lass/internal/azure"
	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/functions"
	"lass/internal/workload"
	"lass/internal/xrand"
)

func staticSite(t *testing.T, fn string, rate float64, seed uint64, cl cluster.Config) core.Config {
	t.Helper()
	spec, err := functions.ByName(fn)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.NewStatic(rate)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Cluster:    cl,
		Controller: controller.Config{MinContainers: 1},
		Seed:       seed,
		Functions:  []core.FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
	}
}

// tinyCluster fits exactly one standard squeezenet container, so any
// nontrivial load overloads it.
func tinyCluster() cluster.Config {
	return cluster.Config{Nodes: 1, CPUPerNode: 1000, MemPerNode: 512, Policy: cluster.WorstFit}
}

// TestNeverMatchesStandalone is the bit-for-bit regression the federation
// must preserve: with the never policy, every site's measurements are
// identical to running the same core.Config as a standalone single-cluster
// simulation.
func TestNeverMatchesStandalone(t *testing.T) {
	const dur = 2 * time.Minute
	siteCfgs := []core.Config{
		staticSite(t, "squeezenet", 30, 11, cluster.PaperCluster()),
		staticSite(t, "binaryalert", 80, 22, cluster.PaperCluster()),
	}
	fed, err := New(Config{Sites: siteCfgs, Placer: neverPlacer{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fed.Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range siteCfgs {
		p, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run(dur)
		if err != nil {
			t.Fatal(err)
		}
		fn := cfg.Functions[0].Spec.Name
		got := fres.Sites[i].Core.Functions[fn]
		ref := want.Functions[fn]
		if got.Arrivals != ref.Arrivals {
			t.Errorf("site %d arrivals: federation %d standalone %d", i, got.Arrivals, ref.Arrivals)
		}
		if got.Completed != ref.Completed {
			t.Errorf("site %d completed: federation %d standalone %d", i, got.Completed, ref.Completed)
		}
		if got.Requeued != ref.Requeued {
			t.Errorf("site %d requeued: federation %d standalone %d", i, got.Requeued, ref.Requeued)
		}
		if g, w := got.Waits.Quantile(0.95), ref.Waits.Quantile(0.95); g != w {
			t.Errorf("site %d P95 wait: federation %v standalone %v", i, g, w)
		}
		if g, w := got.Responses.Quantile(0.99), ref.Responses.Quantile(0.99); g != w {
			t.Errorf("site %d P99 response: federation %v standalone %v", i, g, w)
		}
		if g, w := got.SLO.Violations(), ref.SLO.Violations(); g != w {
			t.Errorf("site %d SLO violations: federation %d standalone %d", i, g, w)
		}
		if fres.Sites[i].OffloadedPeer != 0 || fres.Sites[i].OffloadedCloud != 0 {
			t.Errorf("site %d offloaded under never policy: peer=%d cloud=%d",
				i, fres.Sites[i].OffloadedPeer, fres.Sites[i].OffloadedCloud)
		}
	}
	if fres.CloudServed != 0 {
		t.Errorf("cloud served %d requests under never policy", fres.CloudServed)
	}
}

// TestMetroAllocsPerEvent holds the whole-stack hot path (engine, arrival
// batches, pooled requests, dispatch, per-site control, metrics) under one
// heap allocation per fired event on the many-site never-placer harness:
// ten one-node sites each replaying an hour of its own steady trace. It
// measures about 0.04; a per-event or per-request allocation anywhere in
// the stack pushes it past 1 on any host.
func TestMetroAllocsPerEvent(t *testing.T) {
	const nsites, minutes = 10, 60
	spec, err := functions.ByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	sites := make([]core.Config, nsites)
	for i := range sites {
		row, err := azure.Synthesize(rng, azure.SynthConfig{
			Archetype: azure.Steady, MeanPerMinute: 15, Minutes: minutes})
		if err != nil {
			t.Fatal(err)
		}
		wl, err := workload.FromPerMinuteCounts(row.Counts)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = core.Config{
			Cluster:    cluster.Config{Nodes: 1, CPUPerNode: 4000, MemPerNode: 8192, Policy: cluster.WorstFit},
			Controller: controller.Config{MinContainers: 1},
			Seed:       uint64(100 + i),
			Functions:  []core.FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
		}
	}
	fed, err := New(Config{Sites: sites, Placer: neverPlacer{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := fed.Run(minutes * time.Minute); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs, events := after.Mallocs-before.Mallocs, fed.Engine.Fired()
	if events == 0 {
		t.Fatal("no events fired")
	}
	if perEvent := float64(allocs) / float64(events); perEvent >= 1 {
		t.Errorf("%d heap allocations over %d events = %.3f per event; the pooled hot path must stay below 1",
			allocs, events, perEvent)
	}
}

// TestPlacementAllocsPerRequest is the same kind of floor for the placement
// path: on the fed_full-shaped harness (metro-affine scans, global fair
// share, admission, a reclaiming hierarchy, chaos) a run must stay under a
// tenth of a heap allocation per request. The allocator's epochs, container
// churn and the metrics' growth account for what is left, about 0.05; a
// slice per scanning decision or a closure per shipped request each cost a
// quarter of an allocation per request or more.
func TestPlacementAllocsPerRequest(t *testing.T) {
	fed, err := New(fedFullShaped(t, metroAffinePlacer{}, 8))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	var requests, offloaded uint64
	for _, s := range res.Sites {
		requests += s.SLO.Total() + s.Unresolved
		offloaded += s.OffloadedPeer
	}
	if requests == 0 || offloaded*10 < requests {
		t.Fatalf("%d requests, %d offloaded to peers: the harness is not exercising placement", requests, offloaded)
	}
	allocs := after.Mallocs - before.Mallocs
	if perRequest := float64(allocs) / float64(requests); perRequest >= 0.1 {
		t.Errorf("%d heap allocations over %d requests = %.3f per request; placement and offload must stay below 0.1",
			allocs, requests, perRequest)
	} else {
		t.Logf("%.3f heap allocations per request (%d requests, %d shipped to peers)", perRequest, requests, offloaded)
	}
}

// TestOverloadedShedsToCloud drives one undersized site far past capacity:
// cloud-only must shed, and its end-to-end SLO attainment must beat the
// never baseline.
func TestOverloadedShedsToCloud(t *testing.T) {
	const dur = 2 * time.Minute
	attainment := map[string]float64{}
	var cloudOnly *Result
	for _, pol := range []Placer{neverPlacer{}, cloudOnlyPlacer{}} {
		fed, err := New(Config{
			Sites:  []core.Config{staticSite(t, "squeezenet", 60, 33, tinyCluster())},
			Placer: pol,
			Seed:   7,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(dur)
		if err != nil {
			t.Fatal(err)
		}
		attainment[pol.Name()] = res.Sites[0].SLO.Attainment()
		if pol.Name() == "cloud-only" {
			cloudOnly = res
		}
	}
	if cloudOnly.Sites[0].OffloadedCloud == 0 || cloudOnly.CloudServed == 0 {
		t.Fatalf("overloaded site shed nothing to cloud: %+v", cloudOnly.Sites[0])
	}
	if attainment["cloud-only"] <= attainment["never"] {
		t.Errorf("cloud-only attainment %.3f not better than never %.3f",
			attainment["cloud-only"], attainment["never"])
	}
	if attainment["never"] > 0.5 {
		t.Errorf("never policy attainment %.3f suspiciously high for a 6x-overloaded site", attainment["never"])
	}
}

// TestPeerOffloadRTTPenalty forces every served request at site 0 through
// a peer: site 0's cluster cannot fit a single container, so everything
// sheds to site 1, and every recorded response must include both network
// legs of the peer RTT.
func TestPeerOffloadRTTPenalty(t *testing.T) {
	const (
		dur     = time.Minute
		peerRTT = 20 * time.Millisecond
	)
	// Site 0 cannot host squeezenet at all (100 mC < any deflation floor).
	noCap := staticSite(t, "squeezenet", 20, 44,
		cluster.Config{Nodes: 1, CPUPerNode: 100, MemPerNode: 64, Policy: cluster.WorstFit})
	noCap.Functions[0].Prewarm = 0
	helper := staticSite(t, "squeezenet", 5, 55, cluster.PaperCluster())
	helper.Controller.MinContainers = 2
	helper.Functions[0].Prewarm = 2

	fed, err := New(Config{
		Sites:   []core.Config{noCap, helper},
		Placer:  nearestPeerPlacer{},
		PeerRTT: peerRTT,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := res.Sites[0], res.Sites[1]
	if s0.OffloadedPeer == 0 {
		t.Fatalf("site 0 offloaded nothing to its peer: %+v", s0)
	}
	// The last offloads may still be in the network when the run ends, so
	// the peer serves at most — and nearly — everything the origin shed.
	if s1.PeerServed > s0.OffloadedPeer || s0.OffloadedPeer-s1.PeerServed > 2 {
		t.Errorf("peer served %d, origin offloaded %d", s1.PeerServed, s0.OffloadedPeer)
	}
	if s0.Responses.Count() == 0 {
		t.Fatal("no end-to-end responses recorded at site 0")
	}
	if minResp := s0.Responses.Min(); minResp < (2 * peerRTT).Seconds() {
		t.Errorf("offloaded response %.1fms below the 2×RTT floor %.1fms",
			minResp*1000, (2*peerRTT).Seconds()*1000)
	}
}

// TestModelDrivenBeatsNeverUnderOverload checks the queuing-model policy
// end to end on an asymmetric federation: one hot site, two cold peers.
func TestModelDrivenBeatsNeverUnderOverload(t *testing.T) {
	const dur = 2 * time.Minute
	build := func(pol Placer) *Result {
		sites := []core.Config{
			staticSite(t, "squeezenet", 60, 66, tinyCluster()),
			staticSite(t, "squeezenet", 5, 77, cluster.PaperCluster()),
			staticSite(t, "squeezenet", 5, 88, cluster.PaperCluster()),
		}
		fed, err := New(Config{Sites: sites, Placer: pol, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(dur)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	never := build(neverPlacer{})
	model := build(modelDrivenPlacer{})
	if model.Sites[0].OffloadedPeer+model.Sites[0].OffloadedCloud == 0 {
		t.Fatalf("model-driven shed nothing from the hot site: %+v", model.Sites[0])
	}
	if g, w := model.Sites[0].SLO.Attainment(), never.Sites[0].SLO.Attainment(); g <= w {
		t.Errorf("model-driven attainment %.3f not better than never %.3f on the hot site", g, w)
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a federation with no sites")
	}
}

// TestRunRejectsNonPositiveDuration: a zero or negative duration used to
// yield an all-zero table with violation rate 0 instead of an error.
func TestRunRejectsNonPositiveDuration(t *testing.T) {
	for _, d := range []time.Duration{0, -5 * time.Second} {
		fed, err := New(Config{Sites: []core.Config{staticSite(t, "squeezenet", 5, 1, tinyCluster())}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fed.Run(d); err == nil || !strings.Contains(err.Error(), d.String()) {
			t.Errorf("Run(%v) returned %v, want an error naming the duration", d, err)
		}
	}
}

// TestNewRejectsNegativeKnobs: a negative allocation epoch (sim.EveryFrom
// would panic on it inside Run) and a negative cloud concurrency cap (the
// pool would treat it as unbounded) are configuration errors.
func TestNewRejectsNegativeKnobs(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"alloc epoch", func(c *Config) { c.GlobalFairShare = true; c.AllocEpoch = -time.Second }, "alloc epoch"},
		{"alloc epoch, local allocation", func(c *Config) { c.AllocEpoch = -time.Second }, "alloc epoch"},
		{"cloud max concurrency", func(c *Config) { c.CloudMaxConcurrency = -1 }, "cloud max concurrency"},
	} {
		cfg := Config{Sites: []core.Config{staticSite(t, "squeezenet", 5, 1, tinyCluster())}}
		c.mutate(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New returned %v, want a config error mentioning %q", c.name, err, c.want)
		}
	}
}
