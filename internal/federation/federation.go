// Package federation simulates a multi-cluster edge–cloud deployment: N
// edge sites, each running the unmodified LaSS controller/cluster/dispatch
// stack, plus an elastic but high-latency cloud backend. A per-request
// placement layer decides at each site's ingress whether to serve locally,
// offload to a peer edge site (paying an RTT penalty), fall back to the
// cloud when the local site is over capacity or the backlog predicts an
// SLO miss, or reject the request outright (§3.4 admission).
//
// Placement is pluggable: every decision goes through a Placer
// (Place(ctx *PlacementContext) Decision), and the PlacementContext hands
// the policy everything the federation knows about the request's
// candidates — predicted responses, topology RTTs, controller headroom and
// backlog, global fair-share grants, and cloud prediction/queue/cost
// state. The built-in policies are placers registered by name; custom
// policies register with RegisterPlacer and are selected by name without
// touching this package.
//
// The paper (§3.4) evaluates admission control on a single
// resource-constrained cluster; this package opens the scenario family of
// Das et al., "Performance Optimization for Edge-Cloud Serverless
// Platforms via Dynamic Task Placement" (2020): dynamic edge↔cloud
// placement. Every site shares one deterministic sim.Engine, so federated
// runs are exactly reproducible, and under the never placer each site
// behaves bit-for-bit like a standalone single-cluster simulation.
//
// Inter-site latency comes from an explicit Topology: a validated one-way
// latency matrix (optionally asymmetric, after the measured edge-platform
// RTT heterogeneity of Javed et al. 2021). Configurations that set no
// Topology get the original ring — sites at ring distance d are
// d×Config.PeerRTT apart — so "nearest peer" keeps its historical meaning.
//
// The cloud is modelled as standard-size capacity behind Config.CloudRTT,
// but it is neither always-warm nor free: each function has a
// warm-instance pool with a keep-alive window, the first request after
// idle pays the function's cold-start latency behind the RTT, and every
// invocation accrues cost at configurable FaaS price points. Cloud
// executions also honour the function's hard execution limit (§2.1) —
// a request whose sampled service time exceeds the limit is killed and
// counted as a violation at its origin site. Config.CloudMaxConcurrency
// adds the real FaaS throttle: at the cap, offloads queue FIFO for the
// next free instance and the wait counts toward response time.
//
// Beyond per-request placement, Config.GlobalFairShare lifts the paper's
// §4.1 weighted fair-share allocator to the federation level
// (internal/allocation): a coordinator site gathers every controller's
// demand report each epoch, water-fills the federation's total edge
// capacity over the site → user → function tree, and pushes per-site
// grants back down — every network leg read from the topology and
// charged, including the demand upload, so grants are always computed
// from RTT-stale snapshots. The coordinator is a first-class, elected,
// failure-tolerant role: Config.CoordinatorElection places it at a fixed
// index or at the topology's weighted RTT centroid, a coordinator-role
// fault in Config.Faults schedules windows during which the coordinator
// is dark (missed epochs produce no grants), and grants carry a lease
// (Config.GrantLease, default 2×AllocEpoch) so a site cut off from the
// coordinator falls back to local enforcement instead of freezing on
// stale grants forever. Config.OffloadAwareAdmission couples
// §3.4 admission control to placement: sheddable requests are offered
// along the policy's placement preferences and rejected only as a last
// resort.
package federation

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lass/internal/allocation"
	"lass/internal/chaos"
	"lass/internal/core"
	"lass/internal/dispatch"
	"lass/internal/metrics"
	"lass/internal/sim"
	"lass/internal/xrand"
)

// CoordinatorElection selects how the site hosting the global allocator is
// chosen.
type CoordinatorElection int

const (
	// Fixed pins the coordinator at Config.Coordinator (default site 0) —
	// the historical behaviour, and deliberately the zero value.
	Fixed CoordinatorElection = iota
	// RTTCentroid elects the site minimizing the weighted round-trip sum
	// over the Topology matrix (Topology.RTTCentroid, weighted by
	// SiteWeights): the placement that minimizes the demand-gather and
	// grant-delivery legs every allocation epoch pays. The election runs
	// when the federation is assembled and is re-run whenever membership
	// — the Sites list and its Topology — changes.
	RTTCentroid
)

// String returns the election-mode name.
func (e CoordinatorElection) String() string {
	switch e {
	case Fixed:
		return "fixed"
	case RTTCentroid:
		return "centroid"
	}
	return fmt.Sprintf("election(%d)", int(e))
}

// ParseCoordinatorElection returns the election mode named by s.
func ParseCoordinatorElection(s string) (CoordinatorElection, error) {
	for _, e := range []CoordinatorElection{Fixed, RTTCentroid} {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("federation: unknown coordinator election %q (fixed|centroid)", s)
}

// Window is a half-open interval [Start, End) of simulated time: the chaos
// package's window type, as static fault schedules (a coordinator outage,
// say) declare them.
type Window = chaos.Window

// FaultView is the point-in-time failure oracle the federation consults:
// the chaos engine (internal/chaos) implements it, and Config.Faults
// accepts any implementation. The epoch loop asks CoordinatorDown (plus
// SiteDown for the coordinator's host) before gathering demand and again
// at the compute moment; the demand-upload and grant-return legs each
// check the corresponding directed link; and the dispatch path treats a
// dark link as an unreachable peer — excluded from placement outright,
// not modelled as extra latency. Queries arrive in nondecreasing
// simulated time.
type FaultView interface {
	// CoordinatorDown reports whether the coordinator role is dark at t
	// (the global allocator is silenced; no site's data plane is touched).
	CoordinatorDown(at time.Duration) bool
	// SiteDown reports whether the site is network-dark at t: every link
	// to and from it — peers, coordinator, and cloud uplink — is down,
	// while local ingress keeps being served from local capacity.
	SiteDown(site int, at time.Duration) bool
	// LinkDown reports whether the directed link from→to is dark at t.
	LinkDown(from, to int, at time.Duration) bool
}

// UnionFaults folds fault views into one that reports dark whenever any
// constituent does; nils are skipped.
func UnionFaults(views ...FaultView) FaultView {
	merged := make(faultUnion, 0, len(views))
	for _, v := range views {
		if v != nil {
			merged = append(merged, v)
		}
	}
	switch len(merged) {
	case 0:
		return nil
	case 1:
		return merged[0]
	}
	return merged
}

type faultUnion []FaultView

func (u faultUnion) CoordinatorDown(at time.Duration) bool {
	for _, v := range u {
		if v.CoordinatorDown(at) {
			return true
		}
	}
	return false
}

func (u faultUnion) SiteDown(site int, at time.Duration) bool {
	for _, v := range u {
		if v.SiteDown(site, at) {
			return true
		}
	}
	return false
}

func (u faultUnion) LinkDown(from, to int, at time.Duration) bool {
	for _, v := range u {
		if v.LinkDown(from, to, at) {
			return true
		}
	}
	return false
}

// Config describes a federated deployment.
type Config struct {
	// Sites configures one core platform per edge site. Site i's cluster
	// is named "edge-i" unless its Cluster.Site is already set. Any
	// Engine set on a site config is replaced by the federation's shared
	// engine.
	Sites []core.Config
	// Placer is the placement policy consulted at every site's ingress;
	// nil means the built-in "never" placer (every request served at its
	// ingress site). Built-in and custom policies alike come from
	// PlacerByName / RegisterPlacer and need no federation changes.
	Placer Placer
	// Topology, when set, is the explicit one-way inter-site latency
	// matrix; its size must match Sites. When nil, the federation uses
	// Ring(len(Sites), PeerRTT) — the original ring-distance model.
	Topology *Topology
	// PeerRTT is the one-way RTT between ring-adjacent edge sites
	// (default 5ms); sites at ring distance d pay d×PeerRTT each way.
	// Ignored when Topology is set.
	PeerRTT time.Duration
	// CloudRTT is the one-way RTT from any edge site to the cloud
	// backend (default 50ms).
	CloudRTT time.Duration
	// CloudWarmWindow is how long an idle cloud instance stays warm
	// after finishing a request (default 10m). A request that finds no
	// idle warm instance pays its function's Spec.ColdStart behind the
	// cloud RTT before executing. A negative value means no keep-alive
	// at all — every idle gap cold-starts; zero selects the default.
	CloudWarmWindow time.Duration
	// CloudPricePerInvocation and CloudPricePerGBSecond set the cost
	// axis for cloud offloads (defaults: $0.20 per million requests and
	// $0.0000166667 per GB-second of billed execution, the common
	// on-demand FaaS price points). Billed execution is the sampled
	// service time, truncated at the function's hard execution limit.
	// A negative value means an explicit zero price (a free tier) —
	// zero itself selects the default.
	CloudPricePerInvocation float64
	CloudPricePerGBSecond   float64
	// ResponseSLO is the end-to-end response deadline the federation
	// accounts violations against, network RTT included (default 250ms).
	// This is deliberately a response-time SLO, unlike the controller's
	// waiting-time SLO: offloading trades queueing delay for network
	// delay, and only an end-to-end metric ranks that trade fairly.
	ResponseSLO time.Duration
	// OverloadQueueDepth is the per-container backlog beyond which an
	// epoch-level overloaded site starts shedding (default 4).
	OverloadQueueDepth int
	// Seed drives the cloud backend's service-time sampling.
	Seed uint64

	// GlobalFairShare lifts the §4.1 weighted fair-share allocator to the
	// federation level: every AllocEpoch a coordinator gathers
	// demand/weight from each site's controller, runs capped
	// water-filling over the federation's *total* edge capacity
	// (site → user → function), and pushes per-site capacity grants back
	// down. Site controllers then enforce the grants instead of computing
	// shares from local capacity, and demand is estimated from offered
	// load at each ingress (offloaded requests count at their origin, not
	// their host). Off by default: per-site-local allocation, bit-for-bit
	// the historical behaviour.
	GlobalFairShare bool
	// AllocEpoch is the global allocator's period (default 5s, the
	// controller evaluation interval).
	AllocEpoch time.Duration
	// Coordinator is the site index hosting the global allocator under
	// Fixed election (default 0; ignored under RTTCentroid). Epoch timing
	// is honest both ways: the coordinator waits for the slowest site's
	// demand upload (max_j rtt(j→coord)), computes grants from those
	// RTT-stale snapshots, and each site's grants land only after the
	// return leg rtt(coord→i) — coordination latency is charged, not
	// assumed away.
	Coordinator int
	// CoordinatorElection selects how the coordinator site is chosen:
	// Fixed (the zero value — Config.Coordinator, today's behaviour) or
	// RTTCentroid (the topology's weighted round-trip centroid, re-elected
	// when the federation is reassembled with different membership).
	CoordinatorElection CoordinatorElection
	// Faults, when set, is the failure oracle for the run — typically a
	// chaos.Engine built from seeded Gilbert-Elliott site/link processes
	// and static windows (see internal/chaos). Allocation epochs that fire
	// while the coordinator role is dark produce no grants and are counted
	// in Result.MissedAllocEpochs; sites keep enforcing their last grants
	// until the grant lease lapses (GrantLease), then fall back to local
	// enforcement. Nil means fault-free (every link always up).
	Faults FaultView
	// GrantLease is how long a delivered grant set stays valid without
	// renewal before the site's controller falls back to local enforcement
	// (default 2×AllocEpoch; negative = no lease, the freeze-on-stale
	// legacy). In steady state grants renew every epoch so the default
	// lease never lapses; it only bites when the coordinator goes dark.
	GrantLease time.Duration
	// SiteWeights optionally sets each site's weight at the root of the
	// global allocation tree. Entries must be non-negative: a negative
	// weight is a configuration error, and zero (like a missing entry)
	// explicitly means the default weight 1.
	SiteWeights []float64
	// Hierarchy, when set, arranges the sites into a region → metro → site
	// capacity tree (allocation.Hierarchy). Under GlobalFairShare the
	// allocator then cascades demand-independent deserved quotas down the
	// tree and water-fills displaced demand level by level — same-metro
	// first — instead of in one federation-wide pool; each grant reports
	// its DeservedCPU and the revocable BorrowedCPU above it. The tree must
	// cover every site name. Nil means a flat federation, bit-for-bit the
	// historical allocator.
	Hierarchy *allocation.Hierarchy
	// Reclaim enables cross-site reclamation within each metro: when a
	// function's deserved share is starved at its home site, the allocator
	// preempts borrowed (over-quota) grants at a metro peer and re-grants
	// that capacity to the starved function at the peer, before the home
	// site would shed the load. Requires Hierarchy.
	Reclaim bool
	// ReclaimLatency is the engine-charged delay of a reclaim commit: each
	// epoch's grants land in two steps, the pre-reclaim assignment on the
	// normal return leg and the reclaimed transfers one ReclaimLatency
	// later (preempting a borrowed container is not free). Default
	// PeerRTT; negative means an explicit zero (instantaneous reclaim).
	// When the latency reaches the grant lease the top-up would land
	// already expired, so it is skipped and reclaim is inert.
	ReclaimLatency time.Duration

	// OffloadAwareAdmission couples §3.4 admission control to placement:
	// a request that would be rejected at an overloaded origin is first
	// offered along the placement policy's preferences — peers with
	// headroom, then the cloud — and only rejected outright when no
	// site's grant has headroom and the cloud's projected queueing delay
	// already exceeds the response SLO. Under the never placer no placement
	// is allowed, so sheddable requests are rejected at the origin (the
	// paper's single-cluster admission control, verbatim). Off by default
	// (requests queue at the origin as before).
	OffloadAwareAdmission bool
	// CloudMaxConcurrency caps simultaneously running cloud instances per
	// function — the real FaaS throttle. At the cap, offloads queue FIFO
	// for the next free instance and the queue wait counts toward
	// response time. Zero means unbounded (the historical idealization).
	CloudMaxConcurrency int
}

func (c *Config) fillDefaults() {
	if c.PeerRTT == 0 {
		c.PeerRTT = 5 * time.Millisecond
	}
	if c.CloudRTT == 0 {
		c.CloudRTT = 50 * time.Millisecond
	}
	// Cloud knobs share one sentinel convention: zero selects the
	// default, negative means an explicit zero (free tier / no
	// keep-alive). With a zero warm window warmUntil collapses to
	// busyUntil, so the pool invariant (warmUntil >= busyUntil) holds.
	c.CloudWarmWindow = zeroDefault(c.CloudWarmWindow, 10*time.Minute)
	c.CloudPricePerInvocation = zeroDefault(c.CloudPricePerInvocation, defaultCloudPricePerInvocation)
	c.CloudPricePerGBSecond = zeroDefault(c.CloudPricePerGBSecond, defaultCloudPricePerGBSecond)
	if c.ResponseSLO == 0 {
		c.ResponseSLO = 250 * time.Millisecond
	}
	if c.OverloadQueueDepth == 0 {
		c.OverloadQueueDepth = 4
	}
	if c.AllocEpoch == 0 {
		c.AllocEpoch = 5 * time.Second
	}
	// Same sentinel convention as the cloud knobs: zero selects the
	// default, negative means explicitly none (an unleased grant).
	c.GrantLease = zeroDefault(c.GrantLease, 2*c.AllocEpoch)
	// Reclaim commits travel one more coordinator→peer message, so the
	// peer RTT is the honest default charge.
	c.ReclaimLatency = zeroDefault(c.ReclaimLatency, c.PeerRTT)
}

// Site is one edge deployment inside the federation.
type Site struct {
	Name     string
	Index    int
	Platform *core.Platform

	// Responses and SLO account end-to-end latency (RTT included) for
	// every request that entered the federation at this site, wherever
	// it was served.
	Responses *metrics.Reservoir
	SLO       *metrics.SLOTracker

	// ServedLocal counts ingress requests served on this site's own
	// cluster; OffloadedPeer and OffloadedCloud count ingress requests
	// placed elsewhere; PeerServed counts requests this site absorbed on
	// behalf of overloaded peers; Rejected counts ingress requests
	// refused by offload-aware admission after every peer and the cloud
	// declined (they remain SLO violations at this site).
	ServedLocal    uint64
	OffloadedPeer  uint64
	OffloadedCloud uint64
	PeerServed     uint64
	Rejected       uint64

	// CloudColdStarts counts this site's cloud offloads that paid a cold
	// start; CloudTimedOut counts those killed by the function's hard
	// execution limit (they never complete, so they stay violations);
	// CloudQueued counts those that waited at the per-function
	// concurrency cap; CloudCost is the accumulated cloud bill for this
	// site's offloads.
	CloudColdStarts uint64
	CloudTimedOut   uint64
	CloudQueued     uint64
	CloudCost       float64

	// GrantLeaseExpirations counts the grant leases that lapsed at this
	// site without renewal — each one a fallback from global grants to
	// local enforcement, typically because the coordinator went dark.
	GrantLeaseExpirations uint64

	// PartitionedEpochs counts allocation epochs this site sat out because
	// its uplink to the coordinator was dark at the boundary (the demand
	// upload never left); GrantsLost counts grant sets the coordinator
	// computed for this site that never landed because the return leg was
	// dark. Both are zero in fault-free runs.
	PartitionedEpochs uint64
	GrantsLost        uint64

	// Reclaimed totals the CPU millicores cross-site reclaim recovered for
	// this site's starved functions (served at metro peers on capacity
	// preempted from over-quota borrowers); Preempted totals the borrowed
	// millicores revoked *at* this site to fund peers' deserved shares.
	// Counted when the reclaim commit actually lands, so both are zero for
	// flat federations, with reclaim off, or when every commit was lost to
	// a coordinator outage.
	Reclaimed uint64
	Preempted uint64

	// peers lists the other sites' indices by ascending RTT from this one,
	// ties by index; legs is site-indexed and holds the round trip to each
	// site and back in seconds (zero for the site itself). Both are fixed
	// at assembly and shared by every placement decision made here.
	peers       []int
	legs        []float64
	borrowed    int64 // over-quota millicores in the last landed grant set
	observeDone func(*dispatch.Request)
}

// placeTable is what placement reads about one (origin site, function)
// stream that no event changes, resolved once when the stream is wired: a
// decision then costs loads from these slices and from the queues' own
// fields, not map lookups and unit conversions per candidate.
type placeTable struct {
	origin *Site
	q      *dispatch.Queue // the origin's queue for fn
	fn     string
	// queues is site-indexed: each site's queue for fn, nil where the site
	// does not serve it.
	queues []*dispatch.Queue
}

// Federation is an assembled multi-cluster deployment.
type Federation struct {
	Engine *sim.Engine
	Sites  []*Site

	cfg         Config
	placer      Placer
	cloudRng    *xrand.Rand
	cloudServed uint64
	cloudPools  map[string]*cloudPool // per-function warm-instance pools

	// Global fair-share state: the elected coordinator, the epoch-level
	// waste/drift accumulators the sweep reports, and the coordinator
	// failure/latency bookkeeping.
	coordinator       int
	allocEpochs       uint64
	missedAllocEpochs uint64
	strandedSum       float64
	driftSum          float64
	grantDelaySum     time.Duration
	grantDeliveries   uint64
	allocErr          error

	// alloc is the epoch loop's incremental global allocator: it keeps
	// per-site caches across epochs so sites whose demand reports did not
	// change reuse their previous feasibility clamps (steady-state epochs
	// allocate nothing at all inside the allocator).
	alloc *allocation.Allocator
	// metroOf / regionOf map site index → hierarchy level (Config.
	// Hierarchy.Levels()); nil for flat federations. byName resolves the
	// site names reclaim directives carry back to Site values.
	metroOf  []int
	regionOf []int
	byName   map[string]*Site
	// snapFree pools the demand-snapshot buffers allocEpoch uploads to the
	// coordinator. A snapshot stays checked out while its gather leg is in
	// flight — gathers can overlap the next epoch boundary on slow
	// topologies — and returns to the pool after allocDeliver consumes it.
	snapFree []*demandSnapshot

	// ctxScratch backs the PlacementContext handed to the placer on every
	// ingress decision. The engine is single-threaded and Place must not
	// retain its context (see Placer), so one reusable value keeps the
	// per-request hot path allocation-free. candScratch is the cost-bounded
	// placer's candidate list under the same rule: placers are stateless
	// values shared by concurrently running federations, so per-decision
	// scratch lives here.
	ctxScratch  PlacementContext
	candScratch []candidate
	// offloadFree recycles the records of finished peer offloads.
	offloadFree []*peerOffload
}

// New assembles a federation: every site's platform is built on one shared
// engine and its dispatch queues are wired to the placement layer.
func New(cfg Config) (*Federation, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("federation: no sites configured")
	}
	cfg.fillDefaults()
	if cfg.Topology == nil {
		ring, err := Ring(len(cfg.Sites), cfg.PeerRTT)
		if err != nil {
			return nil, err
		}
		cfg.Topology = ring
	} else if cfg.Topology.Size() != len(cfg.Sites) {
		return nil, fmt.Errorf("federation: topology is %d sites, config has %d",
			cfg.Topology.Size(), len(cfg.Sites))
	}
	if cfg.Coordinator < 0 || cfg.Coordinator >= len(cfg.Sites) {
		return nil, fmt.Errorf("federation: coordinator index %d out of range (have %d sites)",
			cfg.Coordinator, len(cfg.Sites))
	}
	switch cfg.CoordinatorElection {
	case Fixed, RTTCentroid:
	default:
		return nil, fmt.Errorf("federation: unknown coordinator election %d", int(cfg.CoordinatorElection))
	}
	if cfg.AllocEpoch < 0 {
		return nil, fmt.Errorf("federation: alloc epoch %v is negative (use 0 for the default 5s)", cfg.AllocEpoch)
	}
	if cfg.CloudMaxConcurrency < 0 {
		return nil, fmt.Errorf("federation: cloud max concurrency %d is negative (use 0 for unbounded)", cfg.CloudMaxConcurrency)
	}
	if len(cfg.SiteWeights) > len(cfg.Sites) {
		return nil, fmt.Errorf("federation: %d site weights for %d sites",
			len(cfg.SiteWeights), len(cfg.Sites))
	}
	for i, w := range cfg.SiteWeights {
		// Zero means "default weight 1" (documented); a negative weight is
		// always a mistake and used to be silently coerced to 1.
		if w < 0 {
			return nil, fmt.Errorf("federation: site %d weight %v is negative (use 0 or omit for the default 1)", i, w)
		}
	}
	placer := cfg.Placer
	if placer == nil {
		placer = neverPlacer{}
	}
	engine := sim.NewEngine()
	f := &Federation{
		Engine:     engine,
		cfg:        cfg,
		placer:     placer,
		cloudRng:   xrand.New(cfg.Seed ^ 0xfed0),
		cloudPools: make(map[string]*cloudPool),
		alloc:      allocation.NewAllocator(),
	}
	// Elect the coordinator. Membership is fixed for the federation's
	// lifetime, so the election runs once at assembly; rebuilding with a
	// different Sites list (or Topology) re-elects.
	f.coordinator = cfg.Coordinator
	if cfg.CoordinatorElection == RTTCentroid {
		f.coordinator = cfg.Topology.RTTCentroid(cfg.SiteWeights)
	}
	for i, sc := range cfg.Sites {
		sc.Engine = engine
		if sc.Cluster.Site == "" {
			sc.Cluster.Site = fmt.Sprintf("edge-%d", i)
		}
		p, err := core.New(sc)
		if err != nil {
			return nil, fmt.Errorf("federation: site %d: %w", i, err)
		}
		s := &Site{
			Name:      sc.Cluster.Site,
			Index:     i,
			Platform:  p,
			Responses: metrics.NewReservoir(),
			SLO:       metrics.NewSLOTracker(cfg.ResponseSLO),
		}
		// Bound once per site: the locally-served completion callback is
		// on the hot path, and a per-request closure there would undo the
		// dispatch layer's request pooling.
		s.observeDone = func(r *dispatch.Request) { s.observe(r.Response()) }
		f.Sites = append(f.Sites, s)
	}
	byFn := make(map[string][]*dispatch.Queue) // function → site-indexed queues
	for _, s := range f.Sites {
		s.peers = f.peersByRTT(s)
		s.legs = make([]float64, len(f.Sites))
		for j := range f.Sites {
			s.legs[j] = (f.rtt(s.Index, j) + f.rtt(j, s.Index)).Seconds()
		}
		for _, fc := range f.cfg.Sites[s.Index].Functions {
			fn := fc.Spec.Name
			queues, ok := byFn[fn]
			if !ok {
				queues = f.queuesFor(fn)
				byFn[fn] = queues
			}
			f.wire(&placeTable{origin: s, q: queues[s.Index], fn: fn, queues: queues})
		}
	}
	if cfg.Reclaim && cfg.Hierarchy == nil {
		return nil, fmt.Errorf("federation: Reclaim requires a Hierarchy")
	}
	if cfg.Hierarchy != nil {
		names := make([]string, len(f.Sites))
		f.byName = make(map[string]*Site, len(f.Sites))
		for i, s := range f.Sites {
			names[i] = s.Name
			f.byName[s.Name] = s
		}
		if err := cfg.Hierarchy.Covers(names); err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
		if err := f.alloc.SetHierarchy(cfg.Hierarchy, cfg.Reclaim); err != nil {
			return nil, fmt.Errorf("federation: %w", err)
		}
		levels := cfg.Hierarchy.Levels()
		f.metroOf = make([]int, len(f.Sites))
		f.regionOf = make([]int, len(f.Sites))
		for i, s := range f.Sites {
			lv := levels[s.Name]
			f.metroOf[i], f.regionOf[i] = lv.Metro, lv.Region
		}
	}
	return f, nil
}

// rtt returns the one-way latency from edge site i to edge site j, read
// from the topology matrix (the ring formula when none was configured).
func (f *Federation) rtt(i, j int) time.Duration {
	return f.cfg.Topology.RTT(i, j)
}

// Coordinator returns the site index hosting the global allocator: the
// configured index under Fixed election, the topology's weighted
// round-trip centroid under RTTCentroid.
func (f *Federation) Coordinator() int { return f.coordinator }

// coordinatorDark reports whether the global allocator is silenced at t:
// a coordinator-role fault holds, or the coordinator's host site is
// network-dark (nobody can reach the seat).
func (f *Federation) coordinatorDark(t time.Duration) bool {
	if f.cfg.Faults == nil {
		return false
	}
	return f.cfg.Faults.CoordinatorDown(t) || f.cfg.Faults.SiteDown(f.coordinator, t)
}

// linkUp reports whether a message can traverse the directed edge i→j at
// t: both endpoints must be network-up and the link itself must not be
// dark. A dark link makes the far side unreachable — the dispatch path
// excludes the peer from placement entirely and the epoch loop drops the
// corresponding demand upload or grant delivery — rather than modelling
// it as extra latency.
func (f *Federation) linkUp(i, j int, t time.Duration) bool {
	if f.cfg.Faults == nil || i == j {
		return true
	}
	return !f.cfg.Faults.SiteDown(i, t) && !f.cfg.Faults.SiteDown(j, t) && !f.cfg.Faults.LinkDown(i, j, t)
}

// siteDark reports whether site i is network-dark at t (all links down,
// cloud uplink included; local service continues).
func (f *Federation) siteDark(i int, t time.Duration) bool {
	return f.cfg.Faults != nil && f.cfg.Faults.SiteDown(i, t)
}

// queuesFor returns every site's queue for fn, indexed by site; nil where a
// site does not serve it.
func (f *Federation) queuesFor(fn string) []*dispatch.Queue {
	queues := make([]*dispatch.Queue, len(f.Sites))
	for i, s := range f.Sites {
		queues[i] = s.Platform.Queues[fn]
	}
	return queues
}

// peersByRTT returns the other sites' indices ordered by ascending RTT from
// s, breaking ties by site index, so "nearest peer" scans are deterministic.
func (f *Federation) peersByRTT(s *Site) []int {
	peers := make([]int, 0, len(f.Sites)-1)
	for i := range f.Sites {
		if i != s.Index {
			peers = append(peers, i)
		}
	}
	sort.SliceStable(peers, func(i, j int) bool {
		ri, rj := f.rtt(s.Index, peers[i]), f.rtt(s.Index, peers[j])
		if ri != rj {
			return ri < rj
		}
		return peers[i] < peers[j]
	})
	return peers
}

// wire installs the placement hook on one site queue: every arrival builds
// a PlacementContext, asks the configured Placer, and enacts the sanitized
// decision.
func (f *Federation) wire(t *placeTable) {
	s, q := t.origin, t.q
	q.Offload = func(r *dispatch.Request) bool {
		d := f.decide(t)
		if d.Kind != ServeLocal && f.offeredLoadDemand(s) {
			// Demand is estimated from offered load at the ingress: the
			// core platform records only locally-admitted arrivals, so the
			// hook records the shed ones here (and offloadToPeer skips the
			// host-side record under the global allocator). This is what
			// lets the coordinator — or, under ControllerConfig.
			// OfferedLoadDemand, the origin's own estimator — see an
			// overloaded site's full demand instead of just the share it
			// kept.
			s.Platform.Controller.RecordArrival(t.fn)
		}
		switch d.Kind {
		case RejectRequest:
			s.Rejected++
			q.Reject(r)
			return true
		case OffloadCloud:
			f.offloadToCloud(s, q, r)
			return true
		case OffloadSite:
			f.offloadToPeer(t, d.Site, r)
			return true
		default:
			s.ServedLocal++
			r.Done = s.observeDone
			return false
		}
	}
}

// offeredLoadDemand reports whether shed ingress requests at site s should
// still feed its controller's arrival-rate estimator: always under the
// global allocator (the coordinator needs full offered demand), and under
// per-site-local allocation when the site's controller opted in via
// ControllerConfig.OfferedLoadDemand — the knob that stops the origin's
// overload signal oscillating when shed load vanishes from its arrival
// stream.
func (f *Federation) offeredLoadDemand(s *Site) bool {
	return f.cfg.GlobalFairShare || s.Platform.Controller.Config().OfferedLoadDemand
}

// decide consults the placer for one ingress request at site s and
// sanitizes its decision: an out-of-range, self, or non-serving peer
// target falls back to local service, and — for a sheddable request —
// the §3.4 admission invariants are enforced independently of the policy:
// the request is never queued at its overloaded origin (ServeLocal becomes
// RejectRequest), and a cloud landing is gated by the cloud's projected
// queueing delay (cloudAdmits). Composing admission here is what lets any
// custom placer participate in offload-aware admission without
// special-casing.
func (f *Federation) decide(t *placeTable) Decision {
	s, q := t.origin, t.q
	now := f.Engine.Now()
	f.ctxScratch = PlacementContext{
		f:         f,
		t:         t,
		sheddable: f.cfg.OffloadAwareAdmission && f.overloaded(s, q),
		now:       now,
		// Whether the origin itself is network-dark is the same for every
		// candidate of this decision: asked once here, not once per peer.
		originDark: f.siteDark(s.Index, now),
	}
	ctx := &f.ctxScratch
	d := f.placer.Place(ctx)
	if d.Kind == OffloadSite {
		if d.Site < 0 || d.Site >= len(f.Sites) || d.Site == s.Index || t.queues[d.Site] == nil {
			d = Local()
		} else if !ctx.reaches(d.Site) {
			// A dark link means the peer is unreachable, not merely slow:
			// the request cannot be shipped, whatever the policy thinks.
			d = Local()
		}
	}
	if d.Kind == OffloadCloud && ctx.originDark {
		// A network-dark site has no cloud uplink either; the request
		// stays (and, if sheddable, is rejected below like any other
		// unplaceable overload).
		d = Local()
	}
	if ctx.sheddable {
		switch d.Kind {
		case ServeLocal:
			d = Reject()
		case OffloadCloud:
			if !f.cloudAdmits(q) {
				d = Reject()
			}
		}
	}
	return d
}

// observe records one end-to-end response attributed to the ingress site.
func (s *Site) observe(resp time.Duration) {
	s.Responses.AddDuration(resp)
	s.SLO.Observe(resp)
}

// overloaded reports whether site s cannot absorb more work for the function
// its queue q serves (nil when the site does not serve it) right
// now: nothing servable with work already waiting, or the controller's
// capacity headroom is exhausted and the backlog exceeds the shed depth.
// When an external allocator governs the site, the controller's
// demand-derived headroom only reflects the site's own ingress — absorbed
// peer work shows up as backlog instead — so the backlog signal alone
// gates, letting spread-granted hosts exert backpressure.
func (f *Federation) overloaded(s *Site, q *dispatch.Queue) bool {
	if q == nil {
		// The site does not serve fn at all: it can absorb nothing, which
		// for placement purposes is the same as being overloaded. Internal
		// callers never hit this, but PlacementContext.Overloaded hands
		// custom placers any site index without a bounds obligation.
		return true
	}
	n := q.Containers()
	if n == 0 {
		// An empty pool can serve nothing: shed immediately (and refuse
		// peer work) rather than strand requests in a queue no container
		// may ever drain.
		return true
	}
	if !s.Platform.Controller.GrantedExternally() && !s.Platform.Controller.Overloaded() {
		return false
	}
	return q.QueueLength() >= f.cfg.OverloadQueueDepth*n
}

// accepts reports whether peer p can take offloaded fn work: it serves the
// function, is not itself overloaded, and either its controller reports
// spare capacity or — under the global allocator — its fn pool holds
// pre-provisioned (spread-granted) capacity sitting idle. The idle
// -container check is the observable, per-function form of "this site's
// grant has headroom": a site saturated by its own demand whose grant was
// cut below capacity has busy pools and refuses, while a spread host with
// warm capacity for exactly this function accepts.
func (f *Federation) accepts(p *Site, q *dispatch.Queue) bool {
	if q == nil || f.overloaded(p, q) {
		return false
	}
	if p.Platform.Controller.Headroom() > 0 {
		return true
	}
	return f.cfg.GlobalFairShare && q.IdleContainers() > 0
}

// predictResponse estimates the end-to-end response time (seconds) of
// serving one more request on the pool behind q (nil: the site does not
// serve the function), legs seconds of network round trip included:
// current backlog drained at the pool's aggregate service rate, plus one
// mean service time.
func predictResponse(q *dispatch.Queue, legs float64) float64 {
	if q == nil {
		return math.Inf(1)
	}
	capacity := q.ServiceCapacity()
	if capacity <= 0 {
		return math.Inf(1)
	}
	backlog := float64(q.QueueLength() + q.InFlight())
	// The request's own service term uses the pool's average per-container
	// rate (n/capacity), not the standard-size mean, so predictions stay
	// honest on deflated pools — which are exactly the overloaded sites
	// where the placement decision matters. For an undeflated pool this
	// reduces to the standard mean service time.
	return legs + (backlog+float64(q.Containers()))/capacity
}

// offloadToPeer ships the request to the target site: it arrives there one
// RTT later, counts toward the target's rate estimator (the target must
// provision for it), and its recorded end-to-end response includes both
// network legs — which may differ under an asymmetric topology.
func (f *Federation) offloadToPeer(t *placeTable, site int, r *dispatch.Request) {
	t.origin.OffloadedPeer++
	var o *peerOffload
	if n := len(f.offloadFree); n > 0 {
		o = f.offloadFree[n-1]
		f.offloadFree = f.offloadFree[:n-1]
	} else {
		o = &peerOffload{f: f}
		o.arriveFn, o.doneFn = o.arrive, o.done
	}
	o.t, o.target = t, f.Sites[site]
	o.arrival = r.Arrival
	o.back = f.rtt(site, t.origin.Index)
	f.Engine.After(f.rtt(t.origin.Index, site), o.arriveFn)
}

// peerOffload is one request on its way to, or in service at, a peer site.
// Records are recycled through Federation.offloadFree with their two
// callbacks bound once, so shipping a request allocates nothing; a request
// the peer's hard execution limit kills never completes, and its record is
// simply dropped.
type peerOffload struct {
	f        *Federation
	t        *placeTable // the origin stream the request entered on
	target   *Site
	arrival  time.Duration // at the origin
	back     time.Duration // the return leg, charged on completion
	arriveFn func()
	doneFn   func(*dispatch.Request)
}

// arrive lands the request at the target, one outbound leg after it left.
func (o *peerOffload) arrive() {
	o.target.PeerServed++
	if !o.f.cfg.GlobalFairShare {
		// Locally-allocating hosts must provision for absorbed work;
		// under the global allocator the demand was already recorded
		// at the origin and capacity arrives via the grant.
		o.target.Platform.Controller.RecordArrival(o.t.fn)
	}
	pr := o.t.queues[o.target.Index].ArriveOffloaded()
	pr.Done = o.doneFn
}

// done books the completed request's end-to-end response at its origin.
func (o *peerOffload) done(pr *dispatch.Request) {
	o.t.origin.observe(pr.Finish - o.arrival + o.back)
	o.f.offloadFree = append(o.f.offloadFree, o)
}

// predictCloud estimates the end-to-end response time (seconds) of serving
// one request in the cloud right now: both network legs, the mean standard
// service time, the queueing delay a capped pool would impose, and the
// cold start the request would pay if no idle warm instance will greet it.
func (f *Federation) predictCloud(q *dispatch.Queue) float64 {
	spec := q.Spec()
	resp := 2*f.cfg.CloudRTT + spec.MeanServiceTimeAt(1.0)
	pool := f.cloudPools[spec.Name]
	at := f.Engine.Now() + f.cfg.CloudRTT
	var wait time.Duration
	if pool != nil {
		wait = pool.predictWait(at, f.cfg.CloudMaxConcurrency)
	}
	if wait > 0 {
		// Queueing at the cap ends in a warm FIFO hand-off, never a cold
		// start — charge one or the other, not both.
		resp += wait
	} else if pool == nil || !pool.hasWarm(at) {
		resp += spec.ColdStart
	}
	return resp.Seconds()
}

// cloudAdmits reports whether a cloud landing for one more fn request can
// still meet the response SLO: the full predictCloud floor — both network
// legs, the mean service time, and either the projected queueing delay at
// the concurrency cap or the cold start a pool with no warm instance would
// pay — must fit within the SLO. Beyond that a cloud landing is already a
// guaranteed violation, so admission rejects instead. (The check used to
// compare only the queue wait against the SLO, admitting cold pools whose
// 2×CloudRTT + ColdStart + mean service alone guaranteed a miss.)
func (f *Federation) cloudAdmits(q *dispatch.Queue) bool {
	return f.predictCloud(q) <= f.cfg.ResponseSLO.Seconds()
}

// offloadToCloud serves the request on the cloud backend: it reaches the
// cloud one RTT later, reuses an idle warm instance when one exists
// (otherwise paying the function's cold start — or, at the per-function
// concurrency cap, queueing FIFO for the next free instance, with the
// wait counted toward response time), executes a sampled standard-size
// service time capped by the function's hard execution limit, and accrues
// the invocation's cost at the origin site. A request killed by the limit
// never completes: it is counted in CloudTimedOut and remains an SLO
// violation at the origin (via the unresolved accounting).
func (f *Federation) offloadToCloud(origin *Site, q *dispatch.Queue, r *dispatch.Request) {
	spec := q.Spec()
	origin.OffloadedCloud++
	f.cloudServed++
	service := spec.SampleServiceTime(f.cloudRng, 1.0)
	run := service
	killed := false
	if tl := q.TimeLimit; tl > 0 && service > tl {
		run = tl
		killed = true
	}
	pool := f.cloudPools[spec.Name]
	if pool == nil {
		pool = &cloudPool{}
		f.cloudPools[spec.Name] = pool
	}
	wait, cold := pool.acquire(f.Engine.Now()+f.cfg.CloudRTT, run,
		spec.ColdStart, f.cfg.CloudWarmWindow, f.cfg.CloudMaxConcurrency)
	if cold > 0 {
		origin.CloudColdStarts++
	}
	if wait > 0 {
		origin.CloudQueued++
	}
	origin.CloudCost += f.cfg.CloudPricePerInvocation +
		run.Seconds()*f.cfg.CloudPricePerGBSecond*float64(spec.MemoryMiB)/1024
	if killed {
		origin.CloudTimedOut++
		return
	}
	arrival := r.Arrival
	f.Engine.After(2*f.cfg.CloudRTT+wait+cold+service, func() {
		origin.observe(f.Engine.Now() - arrival)
	})
}

// demandSnapshot is one epoch's pooled demand upload: the compacted
// per-site reports that actually reached the coordinator, and the site
// index behind each slot (under a partial partition the two differ —
// cut-off sites drop out of the tree but the survivors keep their
// identities for the return leg).
type demandSnapshot struct {
	sites []allocation.SiteDemand
	idx   []int
}

// allocEpoch starts one federation-wide fair-share epoch. Timing is
// honest end to end: each site snapshots its demand report at the epoch
// boundary and uploads it, the coordinator can only compute once the
// slowest upload has arrived (max_j rtt(j→coord)), so grants are always
// derived from RTT-stale snapshots, and each site's grants land only
// after the return leg rtt(coord→i). An epoch whose boundary — or whose
// compute moment, one gather later — falls inside a coordinator outage
// produces no grants at all and is counted in
// Result.MissedAllocEpochs — sites coast on their leased grants until the
// lease lapses, then fall back to local enforcement. Under a FaultView
// the partition can also be partial: a site whose uplink to the
// coordinator is dark at the boundary simply drops out of this epoch's
// allocation tree (counted in PartitionedEpochs) while its peers are
// governed normally — the asymmetric-lease-expiry case.
func (f *Federation) allocEpoch() {
	if f.allocErr != nil {
		return
	}
	now := f.Engine.Now()
	if f.coordinatorDark(now) {
		f.missedAllocEpochs++
		return
	}
	// Check a snapshot buffer out of the pool; its nested Functions slices
	// are reused across epochs, so a steady-state epoch's upload copies the
	// demand reports without allocating. (Demands() returns a view of
	// controller scratch, so the copy below is also what keeps the report
	// valid until the gather leg delivers it.)
	var snap *demandSnapshot
	if n := len(f.snapFree); n > 0 {
		snap = f.snapFree[n-1]
		f.snapFree = f.snapFree[:n-1]
	} else {
		snap = &demandSnapshot{}
	}
	if cap(snap.sites) < len(f.Sites) {
		snap.sites = make([]allocation.SiteDemand, len(f.Sites))
	}
	snap.sites = snap.sites[:len(f.Sites)]
	snap.idx = snap.idx[:0]
	count := 0
	var gather time.Duration
	for i, s := range f.Sites {
		if !f.linkUp(i, f.coordinator, now) {
			// The demand upload cannot leave the site: it sits out this
			// epoch (no grant will come back either — the coordinator has
			// nothing to compute for it) and its lease keeps ticking.
			s.PartitionedEpochs++
			continue
		}
		var w float64 = 1
		if i < len(f.cfg.SiteWeights) && f.cfg.SiteWeights[i] > 0 {
			w = f.cfg.SiteWeights[i]
		}
		fns := snap.sites[count].Functions[:0]
		for _, d := range s.Platform.Controller.Demands() {
			fns = append(fns, allocation.FunctionDemand{
				Name:       d.Name,
				User:       d.User,
				Weight:     d.Weight,
				UserWeight: d.UserWeight,
				DesiredCPU: d.DesiredCPU,
			})
		}
		snap.sites[count] = allocation.SiteDemand{
			Site:        s.Name,
			Weight:      w,
			CapacityCPU: s.Platform.Controller.Capacity(),
			Functions:   fns,
		}
		snap.idx = append(snap.idx, i)
		count++
		if up := f.rtt(i, f.coordinator); up > gather {
			gather = up
		}
	}
	if count == 0 {
		// Every uplink is dark: nothing reaches the seat, the epoch is
		// missed outright.
		f.missedAllocEpochs++
		f.snapFree = append(f.snapFree, snap)
		return
	}
	snap.sites = snap.sites[:count]
	f.Engine.After(gather, func() { f.allocDeliver(snap, gather) })
}

// allocDeliver runs the allocation at the coordinator — one demand-gather
// leg after the epoch boundary, over the boundary-time snapshots — and
// pushes each site's grants down the return leg with the configured lease.
// The coordinator acts here, so an outage covering the compute moment
// (not just the epoch boundary) also misses the epoch: a coordinator
// that went dark while the demand reports were in flight cannot compute.
// Epoch-level stranded-capacity and allocation-drift measurements
// accumulate for the sweep tables, as does each delivery's end-to-end
// delay (gather + return) for Result.MeanGrantDelay — counted when the
// grants actually land, so deliveries still in flight when the run ends
// are not reported as delivered.
func (f *Federation) allocDeliver(snap *demandSnapshot, gather time.Duration) {
	// The snapshot buffer is consumed synchronously below (the incremental
	// allocator copies what it needs into its own caches), so it returns
	// to the pool whichever way this delivery ends.
	defer func() { f.snapFree = append(f.snapFree, snap) }()
	if f.allocErr != nil {
		return
	}
	now := f.Engine.Now()
	if f.coordinatorDark(now) {
		f.missedAllocEpochs++
		return
	}
	res, err := f.alloc.Allocate(snap.sites, true)
	if err != nil {
		f.allocErr = err
		return
	}
	f.allocEpochs++
	f.strandedSum += float64(res.StrandedCPU)
	f.driftSum += float64(res.DriftCPU)
	// One pass over the grant list builds every site's delivery map —
	// res.SiteGrants per site would rescan the whole list S times. The
	// maps outlive res (they ride the return-leg events), so they are
	// fresh per epoch; the site controllers copy them on receipt.
	bySite := make(map[string]map[string]int64, len(f.Sites))
	for _, g := range res.Grants {
		m := bySite[g.Site]
		if m == nil {
			m = make(map[string]int64, 8)
			bySite[g.Site] = m
		}
		m[g.Function] = g.GrantedCPU
	}
	lease := f.cfg.GrantLease // negative = unleased (freeze on stale)
	reclaimLag := f.cfg.ReclaimLatency
	if reclaimLag < 0 {
		reclaimLag = 0 // explicit-zero sentinel: instantaneous reclaim
	}
	// A reclaim top-up that would land with no lease left is pointless: the
	// controller would expire it the same instant. Skip it and let the
	// pre-reclaim assignment stand for the whole epoch (reclaim is inert at
	// such extreme latencies, and the sweep tables make that visible).
	skipReclaim := lease > 0 && reclaimLag >= lease
	// bySite above is the allocator's *post-reclaim* assignment. Preempting
	// a borrowed container is not free, so the grants land in two steps:
	// the pre-reclaim assignment (directives reversed) rides the normal
	// return leg, and the full post-reclaim set follows one ReclaimLatency
	// later with the residue of the same lease — both steps share one
	// absolute expiry deadline, so the base delivery's expiry event covers
	// the renewed lease too.
	var preBySite map[string]map[string]int64
	var reclaimsAt map[string][]allocation.Reclaim
	if len(res.Reclaims) > 0 && !skipReclaim {
		reclaimsAt = make(map[string][]allocation.Reclaim, 4)
		for _, d := range res.Reclaims {
			reclaimsAt[d.Site] = append(reclaimsAt[d.Site], d)
		}
	}
	if len(res.Reclaims) > 0 && reclaimLag > 0 {
		preBySite = make(map[string]map[string]int64, 4)
		for _, d := range res.Reclaims {
			m := preBySite[d.Site]
			if m == nil {
				m = make(map[string]int64, len(bySite[d.Site]))
				for fn, g := range bySite[d.Site] {
					m[fn] = g
				}
				preBySite[d.Site] = m
			}
			m[d.From] += d.CPU
			m[d.To] -= d.CPU
		}
	}
	// Per-site borrowed totals (over-quota millicores) feed the placement
	// layer's BorrowedCPU signal; only hierarchical runs produce any.
	var borrowedBy map[string]int64
	if f.metroOf != nil {
		borrowedBy = make(map[string]int64, len(f.Sites))
		for _, g := range res.Grants {
			borrowedBy[g.Site] += g.BorrowedCPU
		}
	}
	for _, i := range snap.idx {
		s := f.Sites[i]
		if !f.linkUp(f.coordinator, i, now) {
			// The return leg went dark while the demand was in flight: the
			// grant set is computed but never lands, so the site's previous
			// lease keeps ticking toward expiry while its peers renew —
			// leases expire asymmetrically under partial partitions. The
			// link is checked once per site per epoch, here: a reclaim
			// top-up lost later never re-counts the same grant set.
			s.GrantsLost++
			continue
		}
		grants := bySite[s.Name]
		if grants == nil {
			// A site with no registered functions still receives an empty
			// grant set — nil would mean "return to local allocation".
			grants = map[string]int64{}
		}
		base := grants
		if m := preBySite[s.Name]; m != nil {
			base = m
		}
		topUp := reclaimsAt[s.Name]
		back := f.rtt(f.coordinator, i)
		delay := gather + back
		site, ctl := s, s.Platform.Controller
		borrowed := borrowedBy[s.Name]
		f.Engine.After(back, func() {
			f.grantDelaySum += delay
			f.grantDeliveries++
			site.borrowed = borrowed
			if lease > 0 {
				ctl.SetCapacityGrantsLeased(base, lease)
				// The expiry event makes the fallback visible to the
				// placement layer the instant the lease runs out; a renewal
				// in the meantime pushes the controller's deadline past this
				// event, turning it into a no-op.
				f.Engine.After(lease, func() {
					if ctl.ExpireGrantLease() {
						site.GrantLeaseExpirations++
					}
				})
			} else {
				ctl.SetCapacityGrants(base)
			}
			if len(topUp) == 0 {
				return
			}
			if reclaimLag == 0 {
				// Instantaneous reclaim: base was already the post-reclaim
				// set, only the counters remain.
				f.applyReclaims(site, topUp)
				return
			}
			f.Engine.After(reclaimLag, func() {
				// The reclaim commit is one more coordinator message. A
				// coordinator that went dark in the meantime never sends
				// it: the pre-reclaim grants simply stand until their
				// lease lapses into local enforcement — no second
				// GrantsLost count for an epoch whose base delivery
				// already landed.
				if f.coordinatorDark(f.Engine.Now()) {
					return
				}
				if lease > 0 {
					ctl.SetCapacityGrantsLeased(grants, lease-reclaimLag)
				} else {
					ctl.SetCapacityGrants(grants)
				}
				f.applyReclaims(site, topUp)
			})
		})
	}
}

// applyReclaims books a landed reclaim commit: the applying site hosted the
// preempted borrower, each directive's home site is the starved function's
// origin the capacity was recovered for.
func (f *Federation) applyReclaims(site *Site, ds []allocation.Reclaim) {
	for _, d := range ds {
		site.Preempted += uint64(d.CPU)
		if home := f.byName[d.HomeSite]; home != nil {
			home.Reclaimed += uint64(d.CPU)
		}
	}
}

// SiteResult is one site's view of a federated run.
type SiteResult struct {
	Name string
	// Core holds the site's standalone-platform results: queue latency,
	// allocation series, controller stats for the locally served share.
	Core *core.Result
	// Responses and SLO are the end-to-end measurements for ingress at
	// this site, wherever the requests were served.
	Responses *metrics.Reservoir
	SLO       *metrics.SLOTracker

	ServedLocal    uint64
	OffloadedPeer  uint64
	OffloadedCloud uint64
	PeerServed     uint64
	Rejected       uint64

	// CloudColdStarts, CloudTimedOut, CloudQueued, and CloudCost mirror
	// the Site counters: cold starts paid, hard-limit kills, waits at the
	// concurrency cap, and accumulated cloud bill for this site's
	// offloads.
	CloudColdStarts uint64
	CloudTimedOut   uint64
	CloudQueued     uint64
	CloudCost       float64

	// GrantLeaseExpirations counts grant leases that lapsed at this site
	// without renewal (fallbacks to local enforcement).
	GrantLeaseExpirations uint64

	// PartitionedEpochs counts allocation epochs this site sat out behind
	// a dark uplink; GrantsLost counts computed grant sets that never
	// landed because the return leg was dark.
	PartitionedEpochs uint64
	GrantsLost        uint64

	// Reclaimed and Preempted mirror the Site cross-site reclaim counters:
	// millicores recovered for this site's starved functions at metro
	// peers, and borrowed millicores revoked at this site for peers.
	Reclaimed uint64
	Preempted uint64

	// Unresolved counts ingress requests that never completed before the
	// run ended — still queued, in service, in the network, or killed by
	// a time limit (local or cloud). They are excluded from Responses/SLO
	// (which observe completions only); a backlogged policy can strand
	// thousands of its worst-latency requests here, so honest SLO
	// comparisons must count them as misses rather than ignore them.
	// Cloud-killed requests are a subset of Unresolved, so they are
	// already counted as violations.
	Unresolved uint64
}

// Violations returns the SLO miss count with unresolved ingress requests
// counted as misses: a request still unserved when the run ends has, by
// construction, not met a response deadline shorter than the run.
func (r SiteResult) Violations() uint64 { return r.SLO.Violations() + r.Unresolved }

// ViolationRate returns Violations over all accounted ingress requests
// (completed plus unresolved), or 0 when nothing arrived.
func (r SiteResult) ViolationRate() float64 {
	total := r.SLO.Total() + r.Unresolved
	if total == 0 {
		return 0
	}
	return float64(r.Violations()) / float64(total)
}

// Result is the outcome of a federated run.
type Result struct {
	// Placer names the placement policy the run used (the registry key,
	// e.g. "model-driven" or a custom name).
	Placer      string
	Duration    time.Duration
	Sites       []SiteResult
	CloudServed uint64
	// CloudColdStarts, CloudTimedOut, CloudQueued, and CloudCost
	// aggregate the per-site cloud realism counters across the
	// federation; Rejected aggregates admission rejections.
	CloudColdStarts uint64
	CloudTimedOut   uint64
	CloudQueued     uint64
	CloudCost       float64
	Rejected        uint64
	// GlobalFairShare reports whether the run used the federation-wide
	// allocator; AllocEpochs counts its completed epochs, and
	// MeanStrandedCPU / MeanAllocDriftCPU are the per-epoch means of the
	// allocator's stranded-capacity and cross-site drift measurements
	// (millicores).
	GlobalFairShare   bool
	AllocEpochs       uint64
	MeanStrandedCPU   float64
	MeanAllocDriftCPU float64
	// Coordinator is the site index that hosted the global allocator and
	// Election how it was chosen; MissedAllocEpochs counts epochs that
	// fired inside a coordinator outage window and so produced no grants;
	// GrantLeaseExpirations aggregates the per-site lease fallbacks; and
	// MeanGrantDelay is the mean end-to-end grant-delivery delay (demand
	// gather + return leg) over every delivery of the run.
	Coordinator           int
	Election              CoordinatorElection
	MissedAllocEpochs     uint64
	GrantLeaseExpirations uint64
	MeanGrantDelay        time.Duration
	// PartitionedEpochs and GrantsLost aggregate the per-site partial
	// partition counters: epochs a site sat out behind a dark uplink, and
	// computed grant sets dropped on a dark return leg.
	PartitionedEpochs uint64
	GrantsLost        uint64
	// Hierarchical reports whether the run used a region→metro→site quota
	// tree (Config.Hierarchy); Reclaimed and Preempted aggregate the
	// per-site cross-site reclaim counters (millicores). Over a whole run
	// the two totals agree unless a reclaim commit was still in flight at
	// the end — every landed commit books both sides at once.
	Hierarchical bool
	Reclaimed    uint64
	Preempted    uint64
}

// Run drives all sites on the shared engine for the given simulated
// duration, which must be positive, and collects per-site results.
func (f *Federation) Run(duration time.Duration) (*Result, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("federation: run duration must be positive, got %v", duration)
	}
	for _, s := range f.Sites {
		s.Platform.Start()
	}
	if f.cfg.GlobalFairShare {
		// Scheduled after the platforms so that, on shared epoch
		// timestamps, every controller's demand estimate is fresh before
		// the coordinator reads it. The first epoch fires at t≈0 — not one
		// full AllocEpoch in — so no site ever runs ungoverned-local while
		// the federation believes global governance is on; before their
		// first Step the controllers report their live (prewarmed) pool
		// capacity as demand, so bootstrap grants preserve the prewarm
		// rather than clawing back capacity nobody has measured yet.
		f.Engine.EveryFrom(0, f.cfg.AllocEpoch, f.allocEpoch)
	}
	f.Engine.RunUntil(duration)
	if f.allocErr != nil {
		return nil, fmt.Errorf("federation: global allocator: %w", f.allocErr)
	}
	res := &Result{Placer: f.placer.Name(), Duration: duration,
		CloudServed:     f.cloudServed,
		GlobalFairShare: f.cfg.GlobalFairShare, AllocEpochs: f.allocEpochs,
		Coordinator: f.coordinator, Election: f.cfg.CoordinatorElection,
		MissedAllocEpochs: f.missedAllocEpochs,
		Hierarchical:      f.cfg.Hierarchy != nil}
	if f.allocEpochs > 0 {
		res.MeanStrandedCPU = f.strandedSum / float64(f.allocEpochs)
		res.MeanAllocDriftCPU = f.driftSum / float64(f.allocEpochs)
	}
	if f.grantDeliveries > 0 {
		res.MeanGrantDelay = f.grantDelaySum / time.Duration(f.grantDeliveries)
	}
	for _, s := range f.Sites {
		cr, err := s.Platform.Collect(duration)
		if err != nil {
			return nil, fmt.Errorf("federation: site %s: %w", s.Name, err)
		}
		var ingress uint64
		for _, fr := range cr.Functions {
			ingress += fr.Arrivals
		}
		var unresolved uint64
		if observed := s.SLO.Total(); ingress > observed {
			unresolved = ingress - observed
		}
		res.Sites = append(res.Sites, SiteResult{
			Name:                  s.Name,
			Core:                  cr,
			Responses:             s.Responses,
			SLO:                   s.SLO,
			ServedLocal:           s.ServedLocal,
			OffloadedPeer:         s.OffloadedPeer,
			OffloadedCloud:        s.OffloadedCloud,
			PeerServed:            s.PeerServed,
			Rejected:              s.Rejected,
			CloudColdStarts:       s.CloudColdStarts,
			CloudTimedOut:         s.CloudTimedOut,
			CloudQueued:           s.CloudQueued,
			CloudCost:             s.CloudCost,
			GrantLeaseExpirations: s.GrantLeaseExpirations,
			PartitionedEpochs:     s.PartitionedEpochs,
			GrantsLost:            s.GrantsLost,
			Reclaimed:             s.Reclaimed,
			Preempted:             s.Preempted,
			Unresolved:            unresolved,
		})
		res.CloudColdStarts += s.CloudColdStarts
		res.CloudTimedOut += s.CloudTimedOut
		res.CloudQueued += s.CloudQueued
		res.CloudCost += s.CloudCost
		res.Rejected += s.Rejected
		res.GrantLeaseExpirations += s.GrantLeaseExpirations
		res.PartitionedEpochs += s.PartitionedEpochs
		res.GrantsLost += s.GrantsLost
		res.Reclaimed += s.Reclaimed
		res.Preempted += s.Preempted
	}
	return res, nil
}
