package federation

import (
	"math"
	"reflect"
	"slices"
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

// legacyEnumPlacer freezes the hard-coded place() switch the federation
// shipped before the Placer API (PR 1–3), expressed against the
// first-principles oracle (oracle_test.go) rather than the helpers the
// built-in placers use. The equivalence test runs it against each built-in
// placer and demands bit-for-bit identical results, so neither a drive-by
// edit to a built-in policy nor a wrong entry in the placement tables can
// silently change the historical enum behaviour. policy is the name of the
// built-in placer it stands in for.
type legacyEnumPlacer struct{ policy string }

func (l legacyEnumPlacer) Name() string { return "legacy-" + l.policy }

func (l legacyEnumPlacer) Place(ctx *PlacementContext) Decision {
	f, s := ctx.f, ctx.t.origin.Index
	o := newOracle(f, ctx.t.q.Spec().Name)
	deadline := responseSLO.Seconds()
	// bestPeer is the model-driven scan: the fastest predicted peer strictly
	// better than floor, or -1.
	bestPeer := func(floor float64) (int, float64) {
		best, bestResp := -1, floor
		for _, p := range o.peers(s) {
			if resp := o.predict(s, p); resp < bestResp {
				best, bestResp = p, resp
			}
		}
		return best, bestResp
	}
	if ctx.sheddable {
		switch l.policy {
		case "never":
			return Reject()
		case "cloud-only":
			if ctx.PredictCloud() <= deadline {
				return ToCloud()
			}
			return Reject()
		case "nearest-peer":
			if p := o.selectPeer(s); p >= 0 {
				return ToSite(p)
			}
			if ctx.PredictCloud() <= deadline {
				return ToCloud()
			}
			return Reject()
		case "model-driven":
			best, bestResp := bestPeer(math.Inf(1))
			if cloud := ctx.PredictCloud(); cloud < bestResp {
				if cloud <= deadline {
					return ToCloud()
				}
				return Reject()
			}
			if bestResp <= deadline {
				return ToSite(best)
			}
			return Reject()
		}
	}
	switch l.policy {
	case "cloud-only":
		if o.overloaded(s) {
			return ToCloud()
		}
	case "nearest-peer":
		if !o.overloaded(s) {
			return Local()
		}
		if p := o.selectPeer(s); p >= 0 {
			return ToSite(p)
		}
		return ToCloud()
	case "model-driven":
		local := o.predict(s, s)
		if local <= deadline {
			return Local()
		}
		best, bestResp := bestPeer(local)
		if ctx.PredictCloud() < bestResp {
			return ToCloud()
		}
		if best >= 0 {
			return ToSite(best)
		}
	}
	return Local()
}

// traceSites synthesizes the federation-trace workload (one bursty hot
// site over capacity, two steady peers with headroom) the equivalence
// suite drives placers with.
func traceSites(t *testing.T, seed uint64, minutes int) []core.Config {
	t.Helper()
	spec, err := functions.ByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed ^ 0x7ace)
	shapes := []struct {
		archetype azure.Archetype
		mean      float64
	}{
		{azure.Bursty, 1200},
		{azure.Steady, 600},
		{azure.Steady, 600},
	}
	var rows []azure.Row
	for _, sh := range shapes {
		row, err := azure.Synthesize(rng, azure.SynthConfig{Archetype: sh.archetype, MeanPerMinute: sh.mean})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	start := azure.FindActiveWindow(rows[0].Counts, minutes)
	var sites []core.Config
	for i, row := range rows {
		wl, err := workload.FromPerMinuteCounts(row.Window(start, start+minutes))
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, core.Config{
			Cluster:    cluster.Config{Nodes: 1, CPUPerNode: 4000, MemPerNode: 8192, Policy: cluster.WorstFit},
			Controller: controller.Config{MinContainers: 1},
			Seed:       seed ^ uint64(0xace1+i),
			Functions:  []core.FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
		})
	}
	return sites
}

// runCounters runs one federated configuration and flattens every per-site
// and aggregate counter the sweep reports into a comparable struct slice.
type siteCounters struct {
	ServedLocal, OffloadedPeer, OffloadedCloud, PeerServed, Rejected uint64
	CloudColdStarts, CloudTimedOut, CloudQueued                      uint64
	CloudCost                                                        float64
	Violations, Total, Unresolved, Arrivals                          uint64
	P95                                                              float64
}

func runCounters(t *testing.T, cfg Config, dur time.Duration) ([]siteCounters, uint64) {
	t.Helper()
	fed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(dur)
	if err != nil {
		t.Fatal(err)
	}
	var out []siteCounters
	for _, s := range res.Sites {
		var arrivals uint64
		for _, fr := range s.Core.Functions {
			arrivals += fr.Arrivals
		}
		out = append(out, siteCounters{
			ServedLocal:     s.ServedLocal,
			OffloadedPeer:   s.OffloadedPeer,
			OffloadedCloud:  s.OffloadedCloud,
			PeerServed:      s.PeerServed,
			Rejected:        s.Rejected,
			CloudColdStarts: s.CloudColdStarts,
			CloudTimedOut:   s.CloudTimedOut,
			CloudQueued:     s.CloudQueued,
			CloudCost:       s.CloudCost,
			Violations:      s.Violations(),
			Total:           s.SLO.Total(),
			Unresolved:      s.Unresolved,
			Arrivals:        arrivals,
			P95:             s.Responses.Quantile(0.95),
		})
	}
	return out, res.CloudServed
}

// TestBuiltinPlacersMatchLegacyEnum is the placer/enum equivalence guard
// the API redesign promised: each of the four original built-in placers
// produces bit-for-bit the per-site violation/offload/reject counters of
// the frozen pre-API place() switch on the federation-trace workload —
// across plain placement, offload-aware admission, the global fair-share
// allocator, and a throttled cloud.
func TestBuiltinPlacersMatchLegacyEnum(t *testing.T) {
	const dur = 6 * time.Minute
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"base", func(*Config) {}},
		{"admission", func(c *Config) { c.OffloadAwareAdmission = true }},
		{"admission+global", func(c *Config) {
			c.OffloadAwareAdmission = true
			c.GlobalFairShare = true
		}},
		{"admission+throttled", func(c *Config) {
			c.OffloadAwareAdmission = true
			c.CloudMaxConcurrency = 2
		}},
	}
	for _, policy := range []string{"never", "cloud-only", "nearest-peer", "model-driven"} {
		builtin, err := PlacerByName(policy)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			base := Config{Seed: 7}
			v.mutate(&base)

			builtinCfg := base
			builtinCfg.Sites = traceSites(t, 11, 6)
			builtinCfg.Placer = builtin
			gotSites, gotCloud := runCounters(t, builtinCfg, dur)

			legacyCfg := base
			legacyCfg.Sites = traceSites(t, 11, 6)
			legacyCfg.Placer = legacyEnumPlacer{policy: policy}
			wantSites, wantCloud := runCounters(t, legacyCfg, dur)

			if !reflect.DeepEqual(gotSites, wantSites) {
				t.Errorf("%s/%s: built-in placer diverged from legacy enum behaviour:\n got %+v\nwant %+v",
					policy, v.name, gotSites, wantSites)
			}
			if gotCloud != wantCloud {
				t.Errorf("%s/%s: cloud served %d via placer, %d via legacy", policy, v.name, gotCloud, wantCloud)
			}
		}
	}
}

// TestGrantAwareMatchesModelDrivenWithoutGrants: with per-site-local
// allocation there are no grants to fold in, so the grant-aware policy
// must degrade to exactly model-driven — bit-for-bit.
func TestGrantAwareMatchesModelDrivenWithoutGrants(t *testing.T) {
	const dur = 6 * time.Minute
	run := func(name string) ([]siteCounters, uint64) {
		p, err := PlacerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return runCounters(t, Config{Sites: traceSites(t, 13, 6), Placer: p, Seed: 7}, dur)
	}
	modelSites, modelCloud := run("model-driven")
	grantSites, grantCloud := run("grant-aware")
	if !reflect.DeepEqual(modelSites, grantSites) || modelCloud != grantCloud {
		t.Errorf("grant-aware diverged from model-driven without global grants:\n got %+v\nwant %+v",
			grantSites, modelSites)
	}
}

// TestCostBoundedPrefersFreePeer: with a well-provisioned free peer
// available, the cost-bounded policy routes the overflow there and pays
// the cloud only for the prediction spikes no free candidate covers — a
// strictly smaller bill than model-driven's on the same scenario, with no
// more violations.
func TestCostBoundedPrefersFreePeer(t *testing.T) {
	run := func(name string) (SiteResult, float64) {
		p, err := PlacerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		helper := staticSite(t, "squeezenet", 2, 44, cluster.PaperCluster())
		// Provision the peer for the whole shed load up front, so its
		// prediction meets the deadline from the first offload on.
		helper.Controller.MinContainers = 8
		helper.Functions[0].Prewarm = 8
		fed, err := New(Config{
			Sites: []core.Config{
				staticSite(t, "squeezenet", 60, 33, tinyCluster()),
				helper,
			},
			Placer: p,
			Seed:   7,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(2 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res.Sites[0], res.CloudCost
	}
	cost, costBill := run("cost-bounded")
	model, modelBill := run("model-driven")
	if cost.OffloadedPeer == 0 {
		t.Fatalf("cost-bounded shed nothing to the free peer: %+v", cost)
	}
	if cost.OffloadedPeer <= cost.OffloadedCloud {
		t.Errorf("cost-bounded preferred the cloud (%d) over the free peer (%d)",
			cost.OffloadedCloud, cost.OffloadedPeer)
	}
	if costBill >= modelBill {
		t.Errorf("cost-bounded bill $%.6f not below model-driven's $%.6f", costBill, modelBill)
	}
	if cost.Violations() > model.Violations() {
		t.Errorf("cost-bounded traded its $%.6f saving for more violations: %d vs %d",
			modelBill-costBill, cost.Violations(), model.Violations())
	}
}

// TestCostBoundedPaysCloudWhenNoPeerMeetsSLO: alone in the federation with
// an overloaded cluster, the cheapest candidate meeting the SLO is the
// cloud — cost-bounded must pay rather than violate.
func TestCostBoundedPaysCloudWhenNoPeerMeetsSLO(t *testing.T) {
	p, err := PlacerByName("cost-bounded")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := New(Config{
		Sites:  []core.Config{staticSite(t, "squeezenet", 60, 33, tinyCluster())},
		Placer: p,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sites[0].OffloadedCloud == 0 || res.CloudCost == 0 {
		t.Errorf("cost-bounded never paid the cloud on a hopelessly overloaded lone site: %+v", res.Sites[0])
	}
}

// TestBuiltinPlacersAllocationFree: a decision by any built-in policy
// allocates nothing — on a wired multi-site federation mid-run, for every
// (origin, function) stream, sheddable or not. The cost-bounded candidate
// list in particular lives in federation-owned scratch, not a fresh slice
// per request.
func TestBuiltinPlacersAllocationFree(t *testing.T) {
	fed, err := New(fedFullShaped(t, neverPlacer{}, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Stop mid-run: pools resized, backlogs standing, a link dark.
	if _, err := fed.Run(35 * time.Second); err != nil {
		t.Fatal(err)
	}
	var sink Decision
	for _, placer := range placers {
		name := placer.Name()
		for _, s := range fed.Sites {
			for fn, q := range s.Platform.Queues {
				queues, fns := fed.handlesFor(fn)
				// The never placer never lands in the cloud: every pool is empty.
				table := &placeTable{origin: s, q: q, fn: fn, queues: queues, fns: fns, cloud: &cloudPool{}}
				for _, sheddable := range []bool{false, true} {
					fed.ctxScratch = PlacementContext{f: fed, t: table, sheddable: sheddable,
						now: fed.Engine.Now(), originDark: fed.siteDark(s.Index, fed.Engine.Now())}
					if n := testing.AllocsPerRun(20, func() { sink = placer.Place(&fed.ctxScratch) }); n != 0 {
						t.Errorf("%s at %s/%s (sheddable=%v): %v allocations per decision, want 0",
							name, s.Name, fn, sheddable, n)
					}
				}
			}
		}
	}
	_ = sink
}

// TestPlacerRegistry covers the built-in table's lookup contract: the
// seven built-ins in sweep order, each resolvable, case-insensitive and
// whitespace-trimmed lookup, unknown names rejected — and a custom placer
// running end to end through Config.Placer.
func TestPlacerRegistry(t *testing.T) {
	want := []string{"never", "cloud-only", "nearest-peer", "model-driven",
		"grant-aware", "cost-bounded", "metro-affine"}
	if got := PlacerNames(); !slices.Equal(got, want) {
		t.Fatalf("PlacerNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		p, err := PlacerByName(name)
		if err != nil {
			t.Fatalf("built-in %q not found: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("placer %q reports name %q", name, p.Name())
		}
	}
	if p, err := PlacerByName("Model-Driven"); err != nil || p.Name() != "model-driven" {
		t.Errorf("case-insensitive lookup failed: %v, %v", p, err)
	}
	if p, err := PlacerByName(" nearest-peer "); err != nil || p.Name() != "nearest-peer" {
		t.Errorf("whitespace-trimmed lookup failed: %v, %v", p, err)
	}
	if _, err := PlacerByName("bogus"); err == nil {
		t.Error("unknown placer name accepted")
	}

	fed, err := New(Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 60, 33, tinyCluster()),
			staticSite(t, "squeezenet", 2, 44, cluster.PaperCluster()),
		},
		Placer: stickyFirstPeer{},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placer != "sticky-first-peer" {
		t.Errorf("result reports placer %q", res.Placer)
	}
	if res.Sites[0].OffloadedPeer == 0 {
		t.Errorf("custom placer never offloaded: %+v", res.Sites[0])
	}
	if res.Sites[0].OffloadedCloud != 0 {
		t.Errorf("sticky placer used the cloud: %+v", res.Sites[0])
	}
}

// stickyFirstPeer always sheds overload to the nearest peer, cloud never —
// a minimal custom policy exercising Config.Placer end to end.
type stickyFirstPeer struct{}

func (stickyFirstPeer) Name() string { return "sticky-first-peer" }

func (stickyFirstPeer) Place(ctx *PlacementContext) Decision {
	if !ctx.Overloaded(ctx.Origin()) {
		return Local()
	}
	if peers := ctx.PeersByRTT(); len(peers) > 0 {
		return ToSite(peers[0])
	}
	return Local()
}

// TestDecisionSanitized: a placer that probes every context accessor on
// every site — including a peer that serves a different function — and
// returns nonsense targets (out of range, the origin itself, a
// non-serving peer) must degrade to local service, not crash or
// mis-route. This is the no-bounds-obligation contract of the
// PlacementContext.
func TestDecisionSanitized(t *testing.T) {
	fed, err := New(Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 20, 33, cluster.PaperCluster()),
			staticSite(t, "geofence", 2, 44, cluster.PaperCluster()),
		},
		Placer: selfTargetPlacer{},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sites[0]
	if s.OffloadedPeer != 0 || s.OffloadedCloud != 0 {
		t.Errorf("invalid targets were routed: %+v", s)
	}
	if s.ServedLocal == 0 {
		t.Error("nothing served locally after sanitizing invalid targets")
	}
}

// selfTargetPlacer sweeps every per-site accessor over every site index
// (in range and out), then alternates between offloading to the origin itself, an
// out-of-range site, and a peer that does not serve the function — all
// invalid.
type selfTargetPlacer struct{}

func (selfTargetPlacer) Name() string { return "self-target" }

func (p selfTargetPlacer) Place(ctx *PlacementContext) Decision {
	// The origin plus its peers are every site: indices 0..len(peers).
	for site := -1; site <= len(ctx.PeersByRTT())+1; site++ {
		ctx.Overloaded(site)
		ctx.Serves(site)
		ctx.PredictResponse(site)
		ctx.Headroom(site)
		ctx.Metro(site)
		ctx.Backlog(site)
		ctx.Containers(site)
		ctx.ServiceCapacity(site)
		ctx.GrantedCPU(site)
		ctx.DesiredCPU(site)
	}
	switch ctx.Backlog(ctx.Origin()) % 3 {
	case 0:
		return ToSite(ctx.Origin())
	case 1:
		return ToSite(1 << 20)
	}
	return ToSite(1) // in range, but site 1 serves geofence, not squeezenet
}
