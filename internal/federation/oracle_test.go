package federation

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"lass/internal/allocation"
	"lass/internal/chaos"
	"lass/internal/cluster"
	"lass/internal/core"
	"lass/internal/dispatch"
)

// oracle answers what a PlacementContext answers about one function at one
// instant, recomputed from first principles: the platforms' queue maps
// looked up by name, the cluster's container list priced with Spec.RateAt
// in ID order, the topology matrix, and the raw fault view asked three
// times per link. It reads none of the wiring-time tables and neither
// ServiceCapacity nor IdleContainers, so it is the reference the
// table-driven production path is compared against. Build one per decision
// (newOracle): it prices every site's pool once, up front.
type oracle struct {
	f     *Federation
	fn    string
	pools []oraclePool // site-indexed
}

// oraclePool is one site's pool for the function: its queue (nil when the
// site does not serve it), the attached containers' aggregate rate and
// count, and how many of them are idle.
type oraclePool struct {
	q        *dispatch.Queue
	capacity float64
	attached int
	idle     int
}

func newOracle(f *Federation, fn string) oracle {
	o := oracle{f: f, fn: fn, pools: make([]oraclePool, len(f.Sites))}
	for i, s := range f.Sites {
		q := s.Platform.Queues[fn]
		if q == nil {
			continue
		}
		p := oraclePool{q: q}
		spec := q.Spec()
		for _, c := range s.Platform.Cluster.ContainersOf(fn) {
			if q.Has(c) {
				p.capacity += spec.RateAt(c.CPUFraction())
				p.attached++
			}
		}
		p.idle = p.attached - q.InFlight()
		o.pools[i] = p
	}
	return o
}

// pool returns the site's pool, the zero pool for an out-of-range index.
func (o oracle) pool(site int) oraclePool {
	if site < 0 || site >= len(o.pools) {
		return oraclePool{}
	}
	return o.pools[site]
}

func (o oracle) reachable(origin, site int) bool {
	if site < 0 || site >= len(o.f.Sites) {
		return false
	}
	faults, now := o.f.cfg.Faults, o.f.Engine.Now()
	if faults == nil || origin == site {
		return true
	}
	return !faults.SiteDown(origin, now) && !faults.SiteDown(site, now) && !faults.LinkDown(origin, site, now)
}

func (o oracle) peers(origin int) []int {
	var peers []int
	for i := range o.f.Sites {
		if i != origin {
			peers = append(peers, i)
		}
	}
	topo := o.f.cfg.Topology
	sort.SliceStable(peers, func(i, j int) bool {
		if ri, rj := topo.RTT(origin, peers[i]), topo.RTT(origin, peers[j]); ri != rj {
			return ri < rj
		}
		return peers[i] < peers[j]
	})
	return peers
}

func (o oracle) backlog(site int) int {
	q := o.pool(site).q
	if q == nil {
		return 0
	}
	return q.QueueLength() + q.InFlight()
}

// predict is PlacementContext.PredictResponse from scratch.
func (o oracle) predict(origin, site int) float64 {
	p := o.pool(site)
	if p.q == nil || !o.reachable(origin, site) || p.capacity <= 0 {
		return math.Inf(1)
	}
	var extra time.Duration
	if site != origin {
		extra = o.f.cfg.Topology.RTT(origin, site) + o.f.cfg.Topology.RTT(site, origin)
	}
	return extra.Seconds() + (float64(o.backlog(site))+float64(p.attached))/p.capacity
}

func (o oracle) overloaded(site int) bool {
	p := o.pool(site)
	if p.q == nil || p.attached == 0 {
		return true
	}
	ctl := o.f.Sites[site].Platform.Controller
	if !ctl.GrantedExternally() && !ctl.Overloaded() {
		return false
	}
	return p.q.QueueLength() >= overloadQueueDepth*p.attached
}

func (o oracle) accepts(origin, site int) bool {
	p := o.pool(site)
	if p.q == nil || !o.reachable(origin, site) || o.overloaded(site) {
		return false
	}
	if o.f.Sites[site].Platform.Controller.Headroom() > 0 {
		return true
	}
	return o.f.cfg.GlobalFairShare && p.idle > 0
}

func (o oracle) selectPeer(origin int) int {
	for _, p := range o.peers(origin) {
		if o.accepts(origin, p) {
			return p
		}
	}
	return -1
}

// checkedPlacer wraps a placer from outside, the way the benchmark's tracer
// does, and before every decision compares each accessor the built-in
// policies read — for every site index, and one out of range on each side —
// with the oracle's recomputation: floats bit for bit.
type checkedPlacer struct {
	inner Placer
	t     *testing.T
	fed   *Federation // set once New returns

	calls, unreachable, sheddable int
}

func (p *checkedPlacer) Name() string { return p.inner.Name() }

func (p *checkedPlacer) Place(ctx *PlacementContext) Decision {
	t, origin, fn := p.t, ctx.Origin(), ctx.Function()
	o := newOracle(p.fed, fn)
	p.calls++
	if ctx.Sheddable() {
		p.sheddable++
	}
	if want := p.fed.cfg.OffloadAwareAdmission && o.overloaded(origin); ctx.Sheddable() != want {
		t.Fatalf("call %d origin %d %s: Sheddable %v, oracle %v", p.calls, origin, fn, ctx.Sheddable(), want)
	}
	if got, want := ctx.PeersByRTT(), o.peers(origin); !slices.Equal(got, want) {
		t.Fatalf("call %d origin %d: PeersByRTT %v, oracle %v", p.calls, origin, got, want)
	}
	for site := -1; site <= len(p.fed.Sites); site++ {
		at := func(what string, got, want any) {
			if got != want {
				t.Fatalf("call %d at %v origin %d %s: %s(%d) = %v, oracle %v",
					p.calls, p.fed.Engine.Now(), origin, fn, what, site, got, want)
			}
		}
		reach, pool := o.reachable(origin, site), o.pool(site)
		if !reach && site >= 0 && site < len(p.fed.Sites) {
			p.unreachable++
		}
		at("Reachable", ctx.Reachable(site), reach)
		at("Serves", ctx.Serves(site), pool.q != nil)
		at("PredictResponse bits", math.Float64bits(ctx.PredictResponse(site)), math.Float64bits(o.predict(origin, site)))
		at("ServiceCapacity bits", math.Float64bits(ctx.ServiceCapacity(site)), math.Float64bits(pool.capacity))
		at("Backlog", ctx.Backlog(site), o.backlog(site))
		at("Containers", ctx.Containers(site), pool.attached)
		at("IdleContainers", ctx.IdleContainers(site), pool.idle)
		at("Overloaded", ctx.Overloaded(site), o.overloaded(site))
		at("Accepts", ctx.Accepts(site), o.accepts(origin, site))
	}
	if got, want := ctx.SelectPeer(), o.selectPeer(origin); got != want {
		t.Fatalf("call %d origin %d %s: SelectPeer %d, oracle %d", p.calls, origin, fn, got, want)
	}
	return p.inner.Place(ctx)
}

// fedFullShaped is a small federation with everything the benchmark's
// fed_full workload turns on: two regions of metros under a reclaiming
// hierarchy with RTT classes, global fair share, offload-aware admission,
// and a chaos timeline of a coordinator outage, a site fault, a flapping
// link and a cascading group fault. The first metro is the allocator's
// reclaim scenario (see reclaimConfig): a one-container box offered several
// times what it holds beside a peer saturated by the other function; site
// 4 runs hot and the rest have room. scale multiplies every arrival rate
// and every node's size alike: the same utilizations and the same control
// plane, with scale times the requests between its epochs.
func fedFullShaped(t *testing.T, placer Placer, scale int) Config {
	t.Helper()
	h := &allocation.Hierarchy{Root: &allocation.Group{ID: "root", Children: []*allocation.Group{
		{ID: "r0", Children: []*allocation.Group{
			{ID: "m0", Sites: []string{"edge-0", "edge-1", "edge-2"}},
			{ID: "m1", Sites: []string{"edge-3"}},
		}},
		{ID: "r1", Children: []*allocation.Group{
			{ID: "m2", Sites: []string{"edge-4", "edge-5"}},
		}},
	}}}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	names := []string{"edge-0", "edge-1", "edge-2", "edge-3", "edge-4", "edge-5"}
	topo, err := Hierarchical(names, h.Levels(), RTTClasses{
		IntraMetro: 2 * time.Millisecond, IntraRegion: 10 * time.Millisecond, CrossRegion: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sized := func(c cluster.Config) cluster.Config {
		c.CPUPerNode *= int64(scale)
		c.MemPerNode *= int64(scale)
		return c
	}
	k := float64(scale)
	tiny, paper := sized(tinyCluster()), sized(cluster.PaperCluster())
	oneNode := sized(cluster.Config{Nodes: 1, CPUPerNode: 4000, MemPerNode: 8192, Policy: cluster.WorstFit})
	faults, err := chaos.New(chaos.Config{Sites: len(names), Seed: 3, Faults: []chaos.Fault{
		{Kind: chaos.FaultCoordinator, Windows: []chaos.Window{{Start: 12 * time.Second, End: 24 * time.Second}}},
		{Kind: chaos.FaultSite, Site: 3, Windows: []chaos.Window{{Start: 30 * time.Second, End: 38 * time.Second}}},
		{Kind: chaos.FaultLink, From: 0, To: 1, Bidirectional: true,
			GE: &chaos.GilbertElliott{MeanUp: 8 * time.Second, MeanDown: 3 * time.Second}},
		{Kind: chaos.FaultGroup, Sites: []int{4, 5}, Lag: 2 * time.Second,
			Windows: []chaos.Window{{Start: 44 * time.Second, End: 50 * time.Second}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 40*k, 11, tiny),
			twoFnSite(t, 0.2*k, 200*k, 22, oneNode),
			staticSite(t, "geofence", 1*k, 33, oneNode),
			twoFnSite(t, 15*k, 20*k, 44, paper),
			twoFnSite(t, 50*k, 40*k, 55, oneNode),
			twoFnSite(t, 5*k, 10*k, 66, paper),
		},
		Placer:                placer,
		Topology:              topo,
		GlobalFairShare:       true,
		OffloadAwareAdmission: true,
		Hierarchy:             h,
		Reclaim:               true,
		ReclaimLatency:        4 * time.Millisecond,
		GrantLease:            10 * time.Second,
		Faults:                faults,
		Seed:                  7,
	}
}

// TestPlacementTablesMatchFirstPrinciples drives the fed_full-shaped
// federation under each scanning policy with checkedPlacer in front:
// every value a decision reads from the wiring-time tables and the queues'
// maintained fields must equal the oracle's from-scratch recomputation,
// through container churn, deflation, reclaim and every fault kind.
func TestPlacementTablesMatchFirstPrinciples(t *testing.T) {
	for _, policy := range []string{"metro-affine", "nearest-peer", "grant-aware"} {
		inner, err := PlacerByName(policy)
		if err != nil {
			t.Fatal(err)
		}
		checked := &checkedPlacer{inner: inner, t: t}
		fed, err := New(fedFullShaped(t, checked, 1))
		if err != nil {
			t.Fatal(err)
		}
		checked.fed = fed
		res, err := fed.Run(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		var offloaded, deflated uint64
		for _, s := range res.Sites {
			offloaded += s.OffloadedPeer
			deflated += s.Core.ControllerOps.Deflations
		}
		// The run must have gone through the states the tables could get
		// wrong, or passing proves little.
		if checked.calls == 0 || checked.unreachable == 0 || checked.sheddable == 0 ||
			offloaded == 0 || deflated == 0 || res.Reclaimed == 0 {
			t.Errorf("%s: harness too quiet: %d decisions, %d unreachable candidates, %d sheddable, %d peer offloads, %d deflations, %d mC reclaimed",
				policy, checked.calls, checked.unreachable, checked.sheddable, offloaded, deflated, res.Reclaimed)
		}
	}
}
