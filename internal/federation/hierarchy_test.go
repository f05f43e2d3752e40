package federation

import (
	"testing"
	"time"

	"lass/internal/allocation"
	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/functions"
	"lass/internal/workload"
)

// twoFnSite builds a site serving both squeezenet and binaryalert at the
// given static rates — the borrow-saturated peer shape the reclaim tests
// need (one function idle, the other eating the whole site).
func twoFnSite(t *testing.T, sqRate, baRate float64, seed uint64, cl cluster.Config) core.Config {
	t.Helper()
	sq, err := functions.ByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	ba, err := functions.ByName("binaryalert")
	if err != nil {
		t.Fatal(err)
	}
	sqWl, err := workload.NewStatic(sqRate)
	if err != nil {
		t.Fatal(err)
	}
	baWl, err := workload.NewStatic(baRate)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Cluster:    cl,
		Controller: controller.Config{MinContainers: 1},
		Seed:       seed,
		Functions: []core.FunctionConfig{
			{Spec: sq, Workload: sqWl, Prewarm: 1},
			{Spec: ba, Workload: baWl, Prewarm: 1},
		},
	}
}

// oneMetro puts every default-named site into a single leaf metro group.
func oneMetro(n int) *allocation.Hierarchy {
	g := &allocation.Group{ID: "m0"}
	for i := 0; i < n; i++ {
		g.Sites = append(g.Sites, siteName(i))
	}
	return &allocation.Hierarchy{Root: g}
}

func siteName(i int) string { return "edge-" + string(rune('0'+i)) }

// reclaimConfig is the federation form of the allocator's canonical
// reclaim scenario, one metro of three sites. The tiny site's squeezenet
// desire dwarfs its one-container cluster while its deserved share (a
// third of the metro) also exceeds that capacity, so the function is
// deserved-starved every epoch. The near-idle geofence site desires
// almost nothing, so the entitlement water-fill donates its unclaimed
// deserved share to the big peer — whose capacity binaryalert then
// saturates far above its own deserved quota (borrowed, revocable), and
// whose lack of spare leaves the spread pass nothing to compensate the
// starved function with (the geofence site does not serve squeezenet).
// Only reclaim can recover capacity, by preempting the big peer's
// borrowed binaryalert grant in favour of squeezenet there.
func reclaimConfig(t *testing.T, reclaim bool) Config {
	t.Helper()
	return Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 120, 11, tinyCluster()),
			twoFnSite(t, 0.2, 500, 22, cluster.PaperCluster()),
			staticSite(t, "geofence", 1, 33, cluster.PaperCluster()),
		},
		Placer:          nearestPeerPlacer{},
		GlobalFairShare: true,
		Hierarchy:       oneMetro(3),
		Reclaim:         reclaim,
		Seed:            9,
	}
}

// TestHierarchyConfigValidation: Reclaim without a Hierarchy and a
// Hierarchy missing a site are both assembly-time errors.
func TestHierarchyConfigValidation(t *testing.T) {
	cfg := reclaimConfig(t, true)
	cfg.Hierarchy = nil
	if _, err := New(cfg); err == nil {
		t.Error("Reclaim without Hierarchy accepted")
	}
	cfg = reclaimConfig(t, true)
	cfg.Hierarchy = &allocation.Hierarchy{Root: &allocation.Group{ID: "m0", Sites: []string{"edge-0"}}}
	if _, err := New(cfg); err == nil {
		t.Error("hierarchy missing a site accepted")
	}
	cfg = reclaimConfig(t, true)
	cfg.Hierarchy = &allocation.Hierarchy{Root: &allocation.Group{ID: "m0", Sites: []string{"edge-0", "edge-0"}}}
	if _, err := New(cfg); err == nil {
		t.Error("invalid hierarchy (duplicate site) accepted")
	}
}

// TestHierarchicalReclaimCounters: with reclaim on, commits land and book
// both sides — borrowed capacity preempted at the big peer, recovered for
// the starved tiny site — and with reclaim off neither counter moves.
func TestHierarchicalReclaimCounters(t *testing.T) {
	fed, err := New(reclaimConfig(t, true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hierarchical {
		t.Error("result does not report the hierarchy")
	}
	if res.AllocEpochs == 0 {
		t.Fatal("no allocation epochs ran")
	}
	if res.Reclaimed == 0 || res.Preempted == 0 {
		t.Fatalf("reclaim never landed: Reclaimed=%d Preempted=%d", res.Reclaimed, res.Preempted)
	}
	if res.Reclaimed != res.Preempted {
		t.Errorf("landed commits book both sides: Reclaimed=%d != Preempted=%d", res.Reclaimed, res.Preempted)
	}
	if res.Sites[0].Reclaimed == 0 || res.Sites[0].Preempted != 0 {
		t.Errorf("starved home site: Reclaimed=%d Preempted=%d, want >0 and 0",
			res.Sites[0].Reclaimed, res.Sites[0].Preempted)
	}
	if res.Sites[1].Preempted == 0 || res.Sites[1].Reclaimed != 0 {
		t.Errorf("borrowing peer: Preempted=%d Reclaimed=%d, want >0 and 0",
			res.Sites[1].Preempted, res.Sites[1].Reclaimed)
	}

	off, err := New(reclaimConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := off.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if resOff.Reclaimed != 0 || resOff.Preempted != 0 {
		t.Errorf("reclaim off still counted: Reclaimed=%d Preempted=%d", resOff.Reclaimed, resOff.Preempted)
	}
	if !resOff.Hierarchical {
		t.Error("borrow-only run does not report the hierarchy")
	}
}

// TestReclaimCommitLostToOutage is the lease+reclaim interaction contract:
// a reclaim commit scheduled before a coordinator outage but landing
// inside it is silently dropped — the pre-reclaim grants stand, the lease
// lapses into local enforcement (GrantLeaseExpirations), and GrantsLost
// never counts the epoch, whose base grant set did land. The link is
// checked once per site per epoch, so no grant set is ever double-counted
// as lost.
func TestReclaimCommitLostToOutage(t *testing.T) {
	build := func(outage bool) Config {
		cfg := reclaimConfig(t, true)
		// Push the commit well past the base delivery (~10ms after each
		// 5s epoch boundary) so an outage window can open between them.
		cfg.ReclaimLatency = 100 * time.Millisecond
		if outage {
			cfg.Faults = coordinatorOutage(t, len(cfg.Sites),
				[]Window{{Start: 10*time.Second + 20*time.Millisecond, End: time.Hour}})
		}
		return cfg
	}
	fed, err := New(build(false))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fed, err = New(build(true))
	if err != nil {
		t.Fatal(err)
	}
	cut, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Preempted == 0 {
		t.Fatal("outage-free run never reclaimed; the scenario no longer exercises the commit path")
	}
	// The t=10s epoch's base grants landed (~10.01s) before the window
	// opened at 10.02s, but its commit (~10.11s) fired inside it: the
	// outage run must have strictly fewer landed commits, not just fewer
	// epochs.
	if cut.Preempted >= clean.Preempted {
		t.Errorf("dropped commits still counted: Preempted=%d with outage, %d without", cut.Preempted, clean.Preempted)
	}
	if cut.Reclaimed != cut.Preempted {
		t.Errorf("landed commits book both sides: Reclaimed=%d != Preempted=%d", cut.Reclaimed, cut.Preempted)
	}
	if cut.GrantsLost != 0 {
		t.Errorf("GrantsLost=%d for epochs whose base delivery landed (double count)", cut.GrantsLost)
	}
	if cut.GrantLeaseExpirations == 0 {
		t.Error("no lease lapsed: sites never fell back to local enforcement under the outage")
	}
	if cut.MissedAllocEpochs == 0 {
		t.Error("epochs inside the outage window were not missed")
	}
}

// TestReclaimLatencyBeyondLeaseInert: a reclaim commit that cannot land
// before its lease expires is skipped outright — the counters stay zero
// while the hierarchy itself keeps governing.
func TestReclaimLatencyBeyondLeaseInert(t *testing.T) {
	cfg := reclaimConfig(t, true)
	cfg.GrantLease = 2 * time.Second
	cfg.ReclaimLatency = 2 * time.Second
	fed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reclaimed != 0 || res.Preempted != 0 {
		t.Errorf("commit at lease expiry still applied: Reclaimed=%d Preempted=%d", res.Reclaimed, res.Preempted)
	}
	if res.AllocEpochs == 0 {
		t.Error("no allocation epochs ran")
	}
}

// TestMetroAffineFlatDegradesToModelDriven: without a hierarchy every
// Metro() is -1, so metro-affine must reproduce model-driven decisions
// bit for bit.
func TestMetroAffineFlatDegradesToModelDriven(t *testing.T) {
	build := func(policy string) *Result {
		placer, err := PlacerByName(policy)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := New(Config{
			Sites: []core.Config{
				staticSite(t, "squeezenet", 120, 3, tinyCluster()),
				staticSite(t, "squeezenet", 1, 4, cluster.PaperCluster()),
				staticSite(t, "squeezenet", 1, 5, cluster.PaperCluster()),
			},
			Placer:          placer,
			GlobalFairShare: true,
			Seed:            9,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	md, ma := build("model-driven"), build("metro-affine")
	for i := range md.Sites {
		m, a := md.Sites[i], ma.Sites[i]
		if m.ServedLocal != a.ServedLocal || m.OffloadedPeer != a.OffloadedPeer ||
			m.OffloadedCloud != a.OffloadedCloud || m.PeerServed != a.PeerServed ||
			m.Rejected != a.Rejected {
			t.Errorf("site %d: flat metro-affine diverged from model-driven: %+v vs %+v", i,
				[5]uint64{m.ServedLocal, m.OffloadedPeer, m.OffloadedCloud, m.PeerServed, m.Rejected},
				[5]uint64{a.ServedLocal, a.OffloadedPeer, a.OffloadedCloud, a.PeerServed, a.Rejected})
		}
	}
}

// TestHierarchicalTopology: the RTT-class generator prices every ordered
// pair at the lowest shared tree level, symmetrically, and rejects sites
// the hierarchy does not place.
func TestHierarchicalTopology(t *testing.T) {
	h := &allocation.Hierarchy{Root: &allocation.Group{ID: "root", Children: []*allocation.Group{
		{ID: "r0", Children: []*allocation.Group{
			{ID: "m0", Sites: []string{"a", "b"}},
			{ID: "m1", Sites: []string{"c"}},
		}},
		{ID: "r1", Children: []*allocation.Group{
			{ID: "m2", Sites: []string{"d"}},
		}},
	}}}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	sites := []string{"a", "b", "c", "d"}
	classes := RTTClasses{IntraMetro: 1 * time.Millisecond, IntraRegion: 7 * time.Millisecond, CrossRegion: 30 * time.Millisecond}
	topo, err := Hierarchical(sites, h.Levels(), classes)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]time.Duration{
		{0, 1, 7, 30},
		{1, 0, 7, 30},
		{7, 7, 0, 30},
		{30, 30, 30, 0},
	}
	for i := range sites {
		for j := range sites {
			if got := topo.RTT(i, j); got != want[i][j]*time.Millisecond {
				t.Errorf("RTT(%s,%s) = %v, want %v", sites[i], sites[j], got, want[i][j]*time.Millisecond)
			}
		}
	}
	if _, err := Hierarchical([]string{"a", "zz"}, h.Levels(), classes); err == nil {
		t.Error("site missing from the hierarchy accepted")
	}
	if _, err := Hierarchical(nil, h.Levels(), classes); err == nil {
		t.Error("empty site list accepted")
	}
	// Zero classes select the documented defaults.
	topo, err = Hierarchical([]string{"a", "b"}, h.Levels(), RTTClasses{})
	if err != nil {
		t.Fatal(err)
	}
	if topo.RTT(0, 1) != 2*time.Millisecond {
		t.Errorf("default intra-metro RTT = %v, want 2ms", topo.RTT(0, 1))
	}
}
