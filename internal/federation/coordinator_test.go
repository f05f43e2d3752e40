package federation

import (
	"testing"
	"time"

	"lass/internal/chaos"
	"lass/internal/cluster"
	"lass/internal/core"
)

// asymmetricStar builds the four-site matrix the coordinator tests run
// on: site 1 is the natural centroid, site 0 hangs off a long spoke.
func asymmetricStar(t *testing.T) *Topology {
	t.Helper()
	ms := time.Millisecond
	topo, err := NewTopology([][]time.Duration{
		{0, 25 * ms, 28 * ms, 30 * ms},
		{20 * ms, 0, 3 * ms, 5 * ms},
		{24 * ms, 4 * ms, 0, 9 * ms},
		{26 * ms, 6 * ms, 11 * ms, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func fourSites(t *testing.T, seed uint64) []core.Config {
	t.Helper()
	return []core.Config{
		staticSite(t, "squeezenet", 30, seed, cluster.PaperCluster()),
		staticSite(t, "squeezenet", 5, seed+1, cluster.PaperCluster()),
		staticSite(t, "squeezenet", 5, seed+2, cluster.PaperCluster()),
		staticSite(t, "squeezenet", 5, seed+3, cluster.PaperCluster()),
	}
}

// TestCoordinatorElection: Fixed keeps the configured index (the zero
// value reproduces today's site-0 default), RTTCentroid elects the
// topology's round-trip centroid, and the run's Result reports
// both the seat and the mode.
func TestCoordinatorElection(t *testing.T) {
	build := func(el CoordinatorElection) *Federation {
		fed, err := New(Config{
			Sites:               fourSites(t, 21),
			Placer:              neverPlacer{},
			Topology:            asymmetricStar(t),
			GlobalFairShare:     true,
			CoordinatorElection: el,
			Seed:                3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}

	fed := build(Fixed)
	if fed.coordinator != 0 {
		t.Errorf("Fixed election seated site %d, want the configured default 0", fed.coordinator)
	}

	fed = build(RTTCentroid)
	if fed.coordinator != 1 {
		t.Errorf("RTTCentroid seated site %d, want the hub 1", fed.coordinator)
	}
	res, err := fed.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coordinator != 1 || res.Election != RTTCentroid {
		t.Errorf("Result reports coordinator %d/%v, want 1/centroid", res.Coordinator, res.Election)
	}
	if res.MeanGrantDelay <= 0 {
		t.Error("no mean grant-delivery delay reported")
	}
}

// TestCentroidElectionReducesGrantDelay: on the asymmetric star the
// centroid seat must strictly beat the fixed far-spoke seat on mean
// grant-delivery delay (gather + return leg).
func TestCentroidElectionReducesGrantDelay(t *testing.T) {
	run := func(el CoordinatorElection) *Result {
		fed, err := New(Config{
			Sites:               fourSites(t, 43),
			Placer:              neverPlacer{},
			Topology:            asymmetricStar(t),
			GlobalFairShare:     true,
			CoordinatorElection: el,
			Seed:                3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fixed, centroid := run(Fixed), run(RTTCentroid)
	if centroid.MeanGrantDelay >= fixed.MeanGrantDelay {
		t.Errorf("centroid mean grant delay %v not below fixed %v",
			centroid.MeanGrantDelay, fixed.MeanGrantDelay)
	}
}

// TestCoordinatorOutageMissesEpochs: epochs that fire while the
// coordinator is dark produce no grants and are counted — an outage
// covering the whole run means global governance never engages.
func TestCoordinatorOutageMissesEpochs(t *testing.T) {
	fed, err := New(Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 30, 11, cluster.PaperCluster()),
			staticSite(t, "squeezenet", 5, 12, cluster.PaperCluster()),
		},
		Placer:          neverPlacer{},
		GlobalFairShare: true,
		Faults:          coordinatorOutage(t, 2, []Window{{Start: 0, End: time.Hour}}),
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocEpochs != 0 {
		t.Errorf("%d allocation epochs completed inside a run-long outage", res.AllocEpochs)
	}
	// Epochs fire at 0, 5, ..., 30s: seven boundaries inside the window.
	if res.MissedAllocEpochs != 7 {
		t.Errorf("MissedAllocEpochs = %d, want 7", res.MissedAllocEpochs)
	}
	for i, s := range fed.Sites {
		if s.Platform.Controller.GrantedExternally() {
			t.Errorf("site %d received grants from a dark coordinator", i)
		}
	}
}

// TestOutageCoversComputeMoment: the coordinator acts one gather after
// the epoch boundary, so an outage that begins after the boundary but
// covers the compute moment still misses the epoch — a coordinator that
// went dark while the demand reports were in flight cannot compute.
func TestOutageCoversComputeMoment(t *testing.T) {
	fed, err := New(Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 10, 11, cluster.PaperCluster()),
			staticSite(t, "squeezenet", 10, 12, cluster.PaperCluster()),
		},
		Placer:          neverPlacer{},
		GlobalFairShare: true,
		Topology:        ring(t, 2, 30*time.Second), // gather = 30s
		// Clear at every epoch boundary (0, 5, ... mod nothing — starts at
		// 1s), dark at every compute moment (boundary + 30s).
		Faults: coordinatorOutage(t, 2, []Window{{Start: time.Second, End: 2 * time.Hour}}),
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(40 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocEpochs != 0 {
		t.Errorf("%d epochs computed by a coordinator dark at every compute moment", res.AllocEpochs)
	}
	// The t=0 boundary is outside the window; its compute moment (t=30s)
	// is inside. Boundaries at 5..40s are inside directly.
	if res.MissedAllocEpochs != 9 {
		t.Errorf("MissedAllocEpochs = %d, want 9 (one missed at compute time, eight at the boundary)", res.MissedAllocEpochs)
	}
	if fed.Sites[0].Platform.Controller.GrantedExternally() {
		t.Error("grants delivered from an epoch whose compute moment fell in an outage")
	}
}

// TestOutageWindowValidation: a backwards or negative outage window is a
// configuration error, not a silent no-op.
func TestOutageWindowValidation(t *testing.T) {
	for _, w := range []Window{
		{Start: 10 * time.Second, End: 5 * time.Second},
		{Start: -time.Second, End: time.Second},
		{Start: time.Second, End: time.Second},
	} {
		_, err := chaos.New(chaos.Config{
			Sites:  4,
			Faults: []chaos.Fault{{Kind: chaos.FaultCoordinator, Windows: []Window{w}}},
		})
		if err == nil {
			t.Errorf("chaos.New accepted outage window %+v", w)
		}
	}
}

// TestGrantLeaseFallbackDuringOutage is the federation-level lease test:
// an outage longer than the lease triggers fallback to local enforcement
// at every site (counted per site and in the aggregate), while the
// unleased legacy (GrantLease < 0) stays frozen on its stale grants for
// the rest of the run.
func TestGrantLeaseFallbackDuringOutage(t *testing.T) {
	run := func(lease time.Duration) (*Federation, *Result) {
		fed, err := New(Config{
			Sites: []core.Config{
				staticSite(t, "squeezenet", 30, 31, cluster.PaperCluster()),
				staticSite(t, "squeezenet", 5, 32, cluster.PaperCluster()),
			},
			Placer:          neverPlacer{},
			GlobalFairShare: true,
			// Epochs at 0, 5, 10s deliver; every epoch from 12s on is
			// missed, so the 10s default lease (2×epoch) lapses at ~20s.
			Faults:     coordinatorOutage(t, 2, []Window{{Start: 12 * time.Second, End: time.Hour}}),
			GrantLease: lease,
			Seed:       9,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(60 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return fed, res
	}

	fed, res := run(0) // default 2×AllocEpoch
	if res.MissedAllocEpochs == 0 {
		t.Fatal("outage missed no epochs")
	}
	for i, s := range fed.Sites {
		if s.Platform.Controller.GrantedExternally() {
			t.Errorf("site %d still enforcing grants long after its lease lapsed", i)
		}
		if s.GrantLeaseExpirations == 0 {
			t.Errorf("site %d recorded no lease expiration", i)
		}
	}
	if want := fed.Sites[0].GrantLeaseExpirations + fed.Sites[1].GrantLeaseExpirations; res.GrantLeaseExpirations != want {
		t.Errorf("aggregate GrantLeaseExpirations %d != per-site sum %d", res.GrantLeaseExpirations, want)
	}

	fed, res = run(-1) // frozen: no lease at all
	if res.GrantLeaseExpirations != 0 {
		t.Errorf("unleased run recorded %d lease expirations", res.GrantLeaseExpirations)
	}
	for i, s := range fed.Sites {
		if !s.Platform.Controller.GrantedExternally() {
			t.Errorf("unleased site %d dropped its grants without a lease to expire", i)
		}
	}
}

// TestFirstEpochGrantsBeforeSecondBoundary pins the epoch-timing fix:
// under GlobalFairShare the first allocation epoch fires at t≈0, so every
// site holds grants well before the second epoch boundary (t=5s) instead
// of running ungoverned-local for a full epoch.
func TestFirstEpochGrantsBeforeSecondBoundary(t *testing.T) {
	fed, err := New(Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 30, 11, cluster.PaperCluster()),
			staticSite(t, "squeezenet", 5, 12, cluster.PaperCluster()),
		},
		Placer:          neverPlacer{},
		GlobalFairShare: true,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(4 * time.Second) // strictly before the second boundary
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocEpochs != 1 {
		t.Errorf("AllocEpochs = %d before the second boundary, want exactly the t=0 epoch", res.AllocEpochs)
	}
	for i, s := range fed.Sites {
		if !s.Platform.Controller.GrantedExternally() {
			t.Errorf("site %d ungoverned before the second epoch boundary", i)
		}
	}
}

// TestFirstEpochPreservesPrewarmedPools is the regression for the t≈0
// epoch's bootstrap grants: with the controller's documented default
// MinContainers=0, a pre-first-Step demand report must reflect the live
// (prewarmed) pool capacity, not zero — otherwise the t=0 epoch's capped
// water-filling would emit zero grants and the first Step would shrink
// every prewarmed pool to nothing.
func TestFirstEpochPreservesPrewarmedPools(t *testing.T) {
	site := func(rate float64, seed uint64) core.Config {
		cfg := staticSite(t, "squeezenet", rate, seed, cluster.PaperCluster())
		cfg.Controller.MinContainers = 0 // the controller default
		cfg.Functions[0].Prewarm = 2
		return cfg
	}
	fed, err := New(Config{
		Sites:           []core.Config{site(20, 81), site(10, 82)},
		Placer:          neverPlacer{},
		GlobalFairShare: true,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 7s crosses the first Step (t=5s), which enforces the t=0 grants.
	if _, err := fed.Run(7 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, s := range fed.Sites {
		if n := s.Platform.Queues["squeezenet"].Containers(); n == 0 {
			t.Errorf("site %d: bootstrap grants destroyed the prewarmed pool (0 containers after the first Step)", i)
		}
	}
}

// TestDefaultConfigMatchesExplicitLegacyKnobs is the acceptance
// regression for the coordinator tentpole: Fixed election with no outages
// and an infinite lease must reproduce a default-config global-fair-share
// run bit-for-bit — in steady state grants renew every epoch, so the
// default 2×epoch lease must never perturb results.
func TestDefaultConfigMatchesExplicitLegacyKnobs(t *testing.T) {
	run := func(legacy bool) *Result {
		cfg := Config{
			Sites: []core.Config{
				staticSite(t, "squeezenet", 60, 51, tinyCluster()),
				staticSite(t, "squeezenet", 5, 52, cluster.PaperCluster()),
				staticSite(t, "squeezenet", 5, 53, cluster.PaperCluster()),
			},
			Placer:                modelDrivenPlacer{},
			GlobalFairShare:       true,
			OffloadAwareAdmission: true,
			CloudMaxConcurrency:   2,
			Seed:                  13,
		}
		if legacy {
			cfg.CoordinatorElection = Fixed
			cfg.Coordinator = 0
			cfg.Faults = nil
			cfg.GrantLease = -1 // infinite: never expires
		}
		fed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(2 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.AllocEpochs != b.AllocEpochs || a.MissedAllocEpochs != b.MissedAllocEpochs {
		t.Errorf("epoch counts differ: %d/%d vs %d/%d",
			a.AllocEpochs, a.MissedAllocEpochs, b.AllocEpochs, b.MissedAllocEpochs)
	}
	if a.CloudServed != b.CloudServed || a.Rejected != b.Rejected {
		t.Errorf("aggregate counters differ: cloud %d vs %d, rejected %d vs %d",
			a.CloudServed, b.CloudServed, a.Rejected, b.Rejected)
	}
	for i := range a.Sites {
		sa, sb := a.Sites[i], b.Sites[i]
		if sa.ServedLocal != sb.ServedLocal || sa.OffloadedPeer != sb.OffloadedPeer ||
			sa.OffloadedCloud != sb.OffloadedCloud || sa.PeerServed != sb.PeerServed ||
			sa.Rejected != sb.Rejected || sa.Unresolved != sb.Unresolved {
			t.Errorf("site %d placement counters differ: %+v vs %+v", i, sa, sb)
		}
		if sa.SLO.Total() != sb.SLO.Total() || sa.SLO.Violations() != sb.SLO.Violations() {
			t.Errorf("site %d SLO accounting differs", i)
		}
		if ga, gb := sa.Responses.Quantile(0.95), sb.Responses.Quantile(0.95); ga != gb {
			t.Errorf("site %d P95 response %v != %v", i, ga, gb)
		}
	}
}

// TestCloudAdmitsLatencyFloor is the regression for the admission bug: a
// cold, empty cloud pool whose 2×cloudRTT + ColdStart + mean service
// already exceeds the SLO is a guaranteed violation and must be rejected,
// not admitted just because no queue has formed yet.
func TestCloudAdmitsLatencyFloor(t *testing.T) {
	build := func(slo time.Duration, alwaysWarm bool) *Federation {
		site := staticSite(t, "squeezenet", 10, 71, cluster.PaperCluster())
		if alwaysWarm {
			site.Functions[0].Spec.ColdStart = 0
		}
		fed, err := New(Config{
			Sites:       []core.Config{site},
			Placer:      cloudOnlyPlacer{},
			ResponseSLO: slo,
			Seed:        9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}
	// SqueezeNet cold floor: 2×50ms RTT + 400ms cold start + 100ms mean
	// service = 600ms. A 250ms SLO cannot be met by a cold pool.
	fed := build(250*time.Millisecond, false)
	if fed.cloudAdmits(fed.Sites[0].Platform.Queues["squeezenet"]) {
		t.Error("cloudAdmits admitted a cold pool whose latency floor (600ms) exceeds the 250ms SLO")
	}
	// The same tight SLO is reachable warm (200ms floor)…
	fed = build(250*time.Millisecond, true)
	if !fed.cloudAdmits(fed.Sites[0].Platform.Queues["squeezenet"]) {
		t.Error("cloudAdmits rejected an always-warm pool inside its 200ms floor")
	}
	// …and a cold pool is fine under a loose SLO.
	fed = build(time.Second, false)
	if !fed.cloudAdmits(fed.Sites[0].Platform.Queues["squeezenet"]) {
		t.Error("cloudAdmits rejected a cold pool whose 600ms floor fits a 1s SLO")
	}
}
