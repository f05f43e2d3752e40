package federation

import (
	"strings"
	"testing"
	"time"

	"lass/internal/chaos"
	"lass/internal/cluster"
	"lass/internal/core"
)

// goldenOutageWindows are the two static coordinator outage windows of the
// frozen pre-chaos reference scenario.
var goldenOutageWindows = []Window{
	{Start: 10 * time.Second, End: 25 * time.Second},
	{Start: 40 * time.Second, End: 55 * time.Second},
}

// coordinatorOutage declares static windows as a coordinator-role fault.
func coordinatorOutage(t *testing.T, sites int, windows []Window) FaultView {
	t.Helper()
	eng, err := chaos.New(chaos.Config{
		Sites:  sites,
		Faults: []chaos.Fault{{Kind: chaos.FaultCoordinator, Windows: windows}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

type goldenSite struct {
	local, peer, cloud, served, total, viol, unres, exp uint64
	p95us                                               int64
}

var goldenSites = map[string]goldenSite{
	"edge-0": {local: 2481, peer: 149, cloud: 106, served: 1, total: 2731, viol: 108, unres: 5, exp: 2, p95us: 233044},
	"edge-1": {local: 439, peer: 6, cloud: 9, served: 71, total: 454, viol: 15, exp: 2, p95us: 225072},
	"edge-2": {local: 422, peer: 6, cloud: 10, served: 49, total: 438, viol: 12, exp: 2, p95us: 218716},
	"edge-3": {local: 439, peer: 4, cloud: 18, served: 44, total: 461, viol: 17, exp: 2, p95us: 226331},
}

func checkGolden(t *testing.T, res *Result, label string) {
	t.Helper()
	if res.Coordinator != 1 || res.AllocEpochs != 12 || res.MissedAllocEpochs != 6 ||
		res.GrantLeaseExpirations != 8 || res.MeanGrantDelay != 32*time.Millisecond ||
		res.CloudServed != 143 || res.Rejected != 0 {
		t.Errorf("%s: aggregate drift: coord=%d alloc=%d missed=%d exp=%d delay=%v cloud=%d rej=%d",
			label, res.Coordinator, res.AllocEpochs, res.MissedAllocEpochs,
			res.GrantLeaseExpirations, res.MeanGrantDelay, res.CloudServed, res.Rejected)
	}
	if res.PartitionedEpochs != 0 || res.GrantsLost != 0 {
		t.Errorf("%s: coordinator-role outages leaked into partition counters (%d, %d)",
			label, res.PartitionedEpochs, res.GrantsLost)
	}
	for _, s := range res.Sites {
		want, ok := goldenSites[s.Name]
		if !ok {
			t.Errorf("%s: unexpected site %s", label, s.Name)
			continue
		}
		got := goldenSite{
			local: s.ServedLocal, peer: s.OffloadedPeer, cloud: s.OffloadedCloud,
			served: s.PeerServed, total: s.SLO.Total(), viol: s.SLO.Violations(),
			unres: s.Unresolved, exp: s.GrantLeaseExpirations,
			p95us: int64(s.Responses.Quantile(0.95) * 1e6),
		}
		if got != want {
			t.Errorf("%s: site %s drifted:\n got %+v\nwant %+v", label, s.Name, got, want)
		}
	}
}

// TestStaticWindowsFaultViewEquivalence is the outage golden: four sites
// on the asymmetric star under model-driven placement, with two static
// coordinator outage windows declared as a chaos coordinator fault. The
// expected counters were captured on the commit before coordinator
// outages moved onto the chaos layer, so the replay is held to that
// behaviour exactly — aggregates, per-site dispatch splits, SLO totals,
// and the p95 down to the microsecond.
func TestStaticWindowsFaultViewEquivalence(t *testing.T) {
	sites := fourSites(t, 77)
	fed, err := New(Config{
		Sites:               sites,
		Placer:              modelDrivenPlacer{},
		Topology:            asymmetricStar(t),
		GlobalFairShare:     true,
		CoordinatorElection: RTTCentroid,
		Faults:              coordinatorOutage(t, len(sites), goldenOutageWindows),
		AllocEpoch:          5 * time.Second,
		GrantLease:          10 * time.Second,
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(90 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res, "static-window coordinator fault")
}

// TestOutageWindowOverlapRejected: overlapping outage windows are a
// configuration error with a clear message, not silent double-counting.
func TestOutageWindowOverlapRejected(t *testing.T) {
	_, err := chaos.New(chaos.Config{
		Sites: 4,
		Faults: []chaos.Fault{{Kind: chaos.FaultCoordinator, Windows: []Window{
			{Start: 0, End: 20 * time.Second},
			{Start: 10 * time.Second, End: 30 * time.Second},
		}}},
	})
	if err == nil {
		t.Fatal("chaos.New accepted overlapping outage windows")
	}
	if !strings.Contains(err.Error(), "overlap") {
		t.Errorf("error %q does not mention the overlap", err)
	}
}

// partitionSites builds the two-site fleet the partition tests run on:
// site 0 (the fixed coordinator host) heavy, site 1 light.
func partitionSites(t *testing.T) []core.Config {
	t.Helper()
	return []core.Config{
		staticSite(t, "squeezenet", 30, 51, cluster.PaperCluster()),
		staticSite(t, "squeezenet", 5, 52, cluster.PaperCluster()),
	}
}

// TestAsymmetricPartitionLeaseExpiry: a bidirectional link fault cuts
// site 1 off from the coordinator while site 0 keeps its seat-local
// grants flowing the same epochs. The cut-off site must sit out epochs
// (PartitionedEpochs), let its lease lapse into local-enforcement
// fallback (GrantLeaseExpirations), and the governed site must see none
// of it — the asymmetry PR 5's whole-coordinator outages could not
// express.
func TestAsymmetricPartitionLeaseExpiry(t *testing.T) {
	eng, err := chaos.New(chaos.Config{
		Sites: 2,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultLink, From: 1, To: 0, Bidirectional: true,
				Windows: []chaos.Window{{Start: 12 * time.Second, End: 60 * time.Second}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := New(Config{
		Sites:           partitionSites(t),
		Placer:          neverPlacer{},
		GlobalFairShare: true,
		AllocEpoch:      5 * time.Second,
		GrantLease:      10 * time.Second,
		Faults:          eng,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cut, governed := res.Sites[1], res.Sites[0]
	if cut.PartitionedEpochs == 0 {
		t.Error("cut-off site sat out no epochs")
	}
	if cut.GrantLeaseExpirations == 0 {
		t.Error("cut-off site's lease never lapsed into local enforcement")
	}
	if governed.PartitionedEpochs != 0 || governed.GrantLeaseExpirations != 0 {
		t.Errorf("governed site was disturbed: partitioned=%d expirations=%d",
			governed.PartitionedEpochs, governed.GrantLeaseExpirations)
	}
	if res.MissedAllocEpochs != 0 {
		t.Errorf("partial partition missed %d whole epochs; the coordinator never went dark", res.MissedAllocEpochs)
	}
	if res.AllocEpochs == 0 {
		t.Error("no allocation epochs completed")
	}
}

// TestReturnLegPartitionDropsGrants: a fault on only the coordinator→site
// direction lets demand uploads through (the site stays in the tree, so
// no PartitionedEpochs) but drops the computed grants on the dark return
// leg — counted in GrantsLost, with the lease again expiring only at the
// cut site.
func TestReturnLegPartitionDropsGrants(t *testing.T) {
	eng, err := chaos.New(chaos.Config{
		Sites: 2,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultLink, From: 0, To: 1,
				Windows: []chaos.Window{{Start: 12 * time.Second, End: 60 * time.Second}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := New(Config{
		Sites:           partitionSites(t),
		Placer:          neverPlacer{},
		GlobalFairShare: true,
		AllocEpoch:      5 * time.Second,
		GrantLease:      10 * time.Second,
		Faults:          eng,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cut, governed := res.Sites[1], res.Sites[0]
	if cut.PartitionedEpochs != 0 {
		t.Errorf("upload direction was clear but site sat out %d epochs", cut.PartitionedEpochs)
	}
	if cut.GrantsLost == 0 {
		t.Error("no grant sets were dropped on the dark return leg")
	}
	if cut.GrantLeaseExpirations == 0 {
		t.Error("cut site's lease never lapsed despite undelivered grants")
	}
	if governed.GrantsLost != 0 || governed.GrantLeaseExpirations != 0 {
		t.Errorf("governed site was disturbed: lost=%d expirations=%d",
			governed.GrantsLost, governed.GrantLeaseExpirations)
	}
}

// TestDarkPeerExcludedFromDispatch: a site-down fault makes the only
// peer unreachable for the whole run — the overloaded origin must route
// around it (cloud, not peer), the dark site must absorb no peer work,
// and its own local ingress must keep being served (network-dark, not
// powered off).
func TestDarkPeerExcludedFromDispatch(t *testing.T) {
	run := func(dark bool) *Result {
		cfg := Config{
			Sites: []core.Config{
				staticSite(t, "squeezenet", 40, 61, tinyCluster()),
				staticSite(t, "squeezenet", 2, 62, cluster.PaperCluster()),
			},
			Placer: modelDrivenPlacer{},
			Seed:   5,
		}
		if dark {
			eng, err := chaos.New(chaos.Config{
				Sites: 2,
				Faults: []chaos.Fault{
					{Kind: chaos.FaultSite, Site: 1,
						Windows: []chaos.Window{{Start: 0, End: time.Hour}}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = eng
		}
		fed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(60 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clear, dark := run(false), run(true)
	if clear.Sites[0].OffloadedPeer == 0 {
		t.Fatal("fault-free baseline never offloaded to the peer; the scenario is not exercising dispatch")
	}
	if dark.Sites[0].OffloadedPeer != 0 || dark.Sites[1].PeerServed != 0 {
		t.Errorf("dark peer still received work: offloaded=%d absorbed=%d",
			dark.Sites[0].OffloadedPeer, dark.Sites[1].PeerServed)
	}
	if dark.Sites[0].OffloadedCloud <= clear.Sites[0].OffloadedCloud {
		t.Errorf("overload did not reroute to the cloud: dark %d vs clear %d",
			dark.Sites[0].OffloadedCloud, clear.Sites[0].OffloadedCloud)
	}
	if dark.Sites[1].ServedLocal == 0 {
		t.Error("network-dark site stopped serving its own ingress")
	}
}

// TestDarkOriginLosesCloudUplink: a network-dark site cannot offload
// anywhere — peers or cloud — so its overload is absorbed locally (or
// shed), never shipped.
func TestDarkOriginLosesCloudUplink(t *testing.T) {
	eng, err := chaos.New(chaos.Config{
		Sites: 2,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultSite, Site: 0,
				Windows: []chaos.Window{{Start: 0, End: time.Hour}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := New(Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 40, 61, tinyCluster()),
			staticSite(t, "squeezenet", 2, 62, cluster.PaperCluster()),
		},
		Placer: modelDrivenPlacer{},
		Faults: eng,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sites[0]
	if s.OffloadedPeer != 0 || s.OffloadedCloud != 0 {
		t.Errorf("dark origin shipped work out: peer=%d cloud=%d", s.OffloadedPeer, s.OffloadedCloud)
	}
	if s.ServedLocal == 0 {
		t.Error("dark origin served nothing locally")
	}
}

// pickCounter wraps a placer and counts, per target site, the peer
// decisions it returns for requests entering at site 0 — before the
// federation sanitizes them.
type pickCounter struct {
	inner Placer
	picks map[int]uint64
}

func (p *pickCounter) Name() string { return p.inner.Name() }

func (p *pickCounter) Place(ctx *PlacementContext) Decision {
	d := p.inner.Place(ctx)
	if ctx.Origin() == 0 && d.Kind == OffloadSite {
		p.picks[d.Site]++
	}
	return d
}

// TestGrantAwareRoutesAroundDarkLink: the grant-aware estimator prices
// pools and grants, not links, so the model-driven family's shared scan has
// to drop unreachable peers for it. With the origin→nearest link dark for
// the whole run, the overloaded origin must ship its overflow to the
// farther, reachable peer — never pick the dark one, have the decision
// sanitized back to local service, and queue the request at home.
func TestGrantAwareRoutesAroundDarkLink(t *testing.T) {
	ms := time.Millisecond
	topo, err := NewTopology([][]time.Duration{
		{0, 2 * ms, 8 * ms},
		{2 * ms, 0, 8 * ms},
		{8 * ms, 8 * ms, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	faults, err := chaos.New(chaos.Config{
		Sites: 3,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultLink, From: 0, To: 1,
				Windows: []chaos.Window{{Start: 0, End: time.Hour}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	placer := &pickCounter{inner: grantAwarePlacer{}, picks: make(map[int]uint64)}
	fed, err := New(Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 40, 61, tinyCluster()),
			staticSite(t, "squeezenet", 2, 62, cluster.PaperCluster()),
			staticSite(t, "squeezenet", 2, 63, cluster.PaperCluster()),
		},
		Placer:   placer,
		Topology: topo,
		Faults:   faults,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := placer.picks[1]; n != 0 {
		t.Errorf("grant-aware picked the peer behind the dark link %d times", n)
	}
	if n := placer.picks[2]; n == 0 || res.Sites[0].OffloadedPeer != n {
		t.Errorf("overflow to the reachable peer: picked %d times, %d requests shipped", n, res.Sites[0].OffloadedPeer)
	}
}
