package federation

import (
	"fmt"
	"math"
	"strings"
	"time"

	"lass/internal/dispatch"
	"lass/internal/functions"
)

// Placer is the pluggable per-request placement policy: at every site's
// ingress the federation builds a PlacementContext for the arriving request
// and asks the configured Placer where to serve it. Implementations must be
// deterministic functions of the context (a policy that wants randomness
// owns a seeded xrand stream), so federated runs stay exactly reproducible.
//
// The seven built-in policies (never, cloud-only, nearest-peer,
// model-driven, grant-aware, cost-bounded, metro-affine) are Placers in a
// fixed table that PlacerByName and PlacerNames read (the scenario DSL's
// federation.placer key resolves that way); a custom policy is any other
// Placer passed in Config.Placer — no federation code needs to change to
// add one.
type Placer interface {
	// Name labels the policy in results and tables ("never",
	// "model-driven", ...).
	Name() string
	// Place decides where the request described by ctx is served. The
	// federation sanitizes the decision (an out-of-range or non-serving
	// peer target falls back to local service) and enforces §3.4 admission
	// on sheddable requests: a sheddable request is never queued at its
	// overloaded origin (ServeLocal becomes RejectRequest) and a cloud
	// landing whose PredictCloud misses ResponseSLO becomes RejectRequest.
	// ctx is only valid for the duration
	// of the call — the federation reuses one context value across
	// decisions, so implementations must not retain it.
	Place(ctx *PlacementContext) Decision
}

// DecisionKind enumerates the placement outcomes.
type DecisionKind int

const (
	// ServeLocal queues the request at its ingress site.
	ServeLocal DecisionKind = iota
	// OffloadSite ships the request to the peer edge site Decision.Site.
	OffloadSite
	// OffloadCloud serves the request on the cloud backend.
	OffloadCloud
	// RejectRequest drops the request (§3.4 admission control); it remains
	// an SLO violation at its origin.
	RejectRequest
)

// Decision is a Placer's verdict for one request.
type Decision struct {
	Kind DecisionKind
	// Site is the target site index; meaningful only for OffloadSite.
	Site int
}

// Local places the request at its ingress site.
func Local() Decision { return Decision{Kind: ServeLocal} }

// ToSite offloads the request to the peer edge site with the given index.
func ToSite(site int) Decision { return Decision{Kind: OffloadSite, Site: site} }

// ToCloud offloads the request to the cloud backend.
func ToCloud() Decision { return Decision{Kind: OffloadCloud} }

// Reject drops the request at admission (§3.4).
func Reject() Decision { return Decision{Kind: RejectRequest} }

// String names the decision for logs and errors.
func (d Decision) String() string {
	switch d.Kind {
	case ServeLocal:
		return "local"
	case OffloadSite:
		return fmt.Sprintf("site(%d)", d.Site)
	case OffloadCloud:
		return "cloud"
	case RejectRequest:
		return "reject"
	}
	return fmt.Sprintf("decision(%d)", int(d.Kind))
}

// PlacementContext exposes, per candidate location, everything the
// federation computes about one arriving request: the request's function
// spec and end-to-end SLO, predicted responses (§3.1's queueing model
// extended with the network legs), the peers in RTT order, controller
// headroom and backlog, the global fair-share allocator's grants
// (including granted-but-cold pre-provisioned pools), and the cloud's
// predicted response and per-request cost. Site
// arguments are federation site indices (Origin, PeersByRTT); accessors
// return +Inf / zero values for out-of-range sites, so placers need no
// bounds checks.
type PlacementContext struct {
	f         *Federation
	t         *placeTable
	sheddable bool
	// now is the decision's instant and originDark whether the ingress site
	// is network-dark at it: the per-decision part of every reachability
	// answer, asked of the fault view once.
	now        time.Duration
	originDark bool
	// cloud caches PredictCloud's answer for the decision; a price is
	// never zero (it includes both network legs), so zero means not
	// priced yet.
	cloud float64
}

// Spec returns the request's function spec (container size, service-time
// model, cold start — Table 1).
func (ctx *PlacementContext) Spec() functions.Spec { return ctx.t.q.Spec() }

// Origin returns the ingress site's index.
func (ctx *PlacementContext) Origin() int { return ctx.t.origin.Index }

// ResponseSLO returns the end-to-end response deadline the federation
// accounts violations against (network RTT included).
func (ctx *PlacementContext) ResponseSLO() time.Duration { return responseSLO }

// Sheddable reports whether §3.4 offload-aware admission applies to this
// request: admission control is enabled and the origin is overloaded. The
// federation will not queue a sheddable request locally — a ServeLocal
// decision becomes RejectRequest — so placers that want the legacy
// admission behaviour should offer the request along their placement
// preferences and Reject only when nothing admissible remains.
func (ctx *PlacementContext) Sheddable() bool { return ctx.sheddable }

// Serves reports whether the site runs this request's function at all.
func (ctx *PlacementContext) Serves(site int) bool { return ctx.siteQueue(site) != nil }

// Overloaded reports the federation's epoch-level overload signal for the
// site: no servable capacity, or controller headroom exhausted with the
// backlog beyond the shed depth (overloadQueueDepth backlogged requests per
// container).
func (ctx *PlacementContext) Overloaded(site int) bool {
	if site < 0 || site >= len(ctx.f.Sites) {
		return true
	}
	return ctx.f.overloaded(ctx.f.Sites[site], ctx.t.queues[site])
}

// accepts reports whether the in-range site would absorb offloaded work
// for this function right now (Federation.accepts), reachability first: a
// peer behind a dark link can absorb nothing from this origin, whatever
// its headroom says.
func (ctx *PlacementContext) accepts(site int) bool {
	return ctx.reaches(site) && ctx.f.accepts(ctx.f.Sites[site], ctx.t.queues[site])
}

// reaches reports whether the origin can currently reach the in-range
// site: Federation.linkUp from the origin at the decision's instant, with
// the origin's own half of the answer already in hand. Unreachability is
// binary — placement excludes the peer rather than pricing it as RTT.
func (ctx *PlacementContext) reaches(site int) bool {
	faults := ctx.f.cfg.Faults
	if faults == nil || site == ctx.t.origin.Index {
		return true
	}
	return !ctx.originDark && !faults.SiteDown(site, ctx.now) &&
		!faults.LinkDown(ctx.t.origin.Index, site, ctx.now)
}

// SelectPeer scans the origin's peers nearest first and returns the index
// of the first that accepts the request, or -1 when no peer does. Other
// selection strategies (power-of-two-choices, say) are custom placers over
// PeersByRTT, Headroom and PredictResponse.
func (ctx *PlacementContext) SelectPeer() int {
	for _, p := range ctx.t.origin.peers {
		if ctx.accepts(p) {
			return p
		}
	}
	return -1
}

// PeersByRTT returns the other sites' indices in ascending-RTT order from
// the origin (ties broken by index) — the deterministic scan order the
// built-in policies iterate candidates in. The slice is the federation's
// own, shared by every decision at this origin: callers must not modify
// it (copy it to reorder).
func (ctx *PlacementContext) PeersByRTT() []int { return ctx.t.origin.peers }

// PredictResponse estimates the end-to-end response time (seconds) of
// serving this request at the given site: current backlog drained at the
// pool's aggregate service rate, plus one mean service time, plus — for a
// peer — both network legs from the origin. +Inf when the site cannot
// serve the function or is unreachable behind a dark link (an
// unreachable peer has no finite response time, however idle it is).
func (ctx *PlacementContext) PredictResponse(site int) float64 {
	if site < 0 || site >= len(ctx.f.Sites) {
		return math.Inf(1)
	}
	if !ctx.reaches(site) {
		return math.Inf(1)
	}
	return ctx.predictReachable(site)
}

// predictReachable is PredictResponse for an in-range site already known
// to be reachable (the origin always is).
func (ctx *PlacementContext) predictReachable(site int) float64 {
	return predictResponse(ctx.t.queues[site], ctx.t.origin.legs[site])
}

// PredictCloud estimates the end-to-end response time (seconds) of serving
// this request in the cloud right now: both network legs, the mean
// standard service time, and what the function's pool would charge on
// arrival — the queueing delay at the concurrency cap, or the cold start
// when no idle warm instance will greet it. The cloud is priced once per
// decision: the placer and §3.4 admission, which rejects a sheddable
// cloud landing whose prediction misses ResponseSLO, read the same answer.
func (ctx *PlacementContext) PredictCloud() float64 {
	if ctx.cloud == 0 {
		ctx.cloud = ctx.f.predictCloud(ctx.t)
	}
	return ctx.cloud
}

// CloudCostPerRequest returns the expected bill ($) for serving one
// request of this function in the cloud: the per-invocation price plus the
// mean standard service time at the GB-second price (the cost axis the
// sweep tables report).
func (ctx *PlacementContext) CloudCostPerRequest() float64 {
	spec := ctx.t.q.Spec()
	return cloudBill(spec, spec.MeanServiceTime)
}

// Headroom returns the site controller's capacity-headroom signal
// (millicores left after the queueing model's desires; negative while
// overloaded).
func (ctx *PlacementContext) Headroom(site int) int64 {
	if site < 0 || site >= len(ctx.f.Sites) {
		return 0
	}
	return ctx.f.Sites[site].Platform.Controller.Headroom()
}

// Metro returns the site's metro index under the federation's hierarchy
// (Config.Hierarchy: leaf groups in depth-first order), or -1 when the
// federation is flat or the site is out of range.
func (ctx *PlacementContext) Metro(site int) int {
	if ctx.f.metroOf == nil || site < 0 || site >= len(ctx.f.metroOf) {
		return -1
	}
	return ctx.f.metroOf[site]
}

// SameMetro reports whether two sites share a metro under the
// federation's hierarchy — the scope within which over-quota borrowing is
// water-filled first and cross-site reclaim operates. Always false for
// flat federations.
func (ctx *PlacementContext) SameMetro(i, j int) bool {
	return ctx.Metro(i) >= 0 && ctx.Metro(i) == ctx.Metro(j)
}

// Backlog returns the site's queued plus in-service request count for this
// function — the numerator of the drain-time prediction.
func (ctx *PlacementContext) Backlog(site int) int {
	if q := ctx.siteQueue(site); q != nil {
		return q.QueueLength() + q.InFlight()
	}
	return 0
}

// Containers returns the site's attached container count for this
// function.
func (ctx *PlacementContext) Containers(site int) int {
	if q := ctx.siteQueue(site); q != nil {
		return q.Containers()
	}
	return 0
}

// ServiceCapacity returns the site's aggregate service rate (req/s) for
// this function at the pool's current (possibly deflated) CPU allocations.
func (ctx *PlacementContext) ServiceCapacity(site int) float64 {
	if q := ctx.siteQueue(site); q != nil {
		return q.ServiceCapacity()
	}
	return 0
}

// GrantedCPU returns the global allocator's current CPU grant (millicores)
// for this function at the site, and whether such a grant exists. Grants
// lag pool reconciliation by up to a controller epoch plus the cold-start
// delay, so a grant can exceed the live ServiceCapacity — that gap is the
// granted-but-cold pre-provisioned capacity the grant-aware policy folds
// into its predictions.
func (ctx *PlacementContext) GrantedCPU(site int) (int64, bool) {
	if site < 0 || site >= len(ctx.f.Sites) {
		return 0, false
	}
	return ctx.f.Sites[site].Platform.Controller.GrantOf(ctx.t.fns[site])
}

// DesiredCPU returns the site controller's model-computed CPU desire
// (millicores) for this function as of its most recent epoch — the §3.1
// queueing model's answer to the estimated arrival rate, before any
// fair-share clamp. A site whose desire exceeds its grant is grant-bound:
// its arrivals outpace the capacity it will be allowed to keep.
func (ctx *PlacementContext) DesiredCPU(site int) int64 {
	if site < 0 || site >= len(ctx.f.Sites) {
		return 0
	}
	f := ctx.t.fns[site]
	if f == nil {
		return 0
	}
	return int64(f.Desired) * f.Spec.CPUMillis
}

func (ctx *PlacementContext) siteQueue(site int) *dispatch.Queue {
	if site < 0 || site >= len(ctx.f.Sites) {
		return nil
	}
	return ctx.t.queues[site]
}

// --- built-in placers ---

// placers is every built-in policy in sweep order: the four original
// policies first, then the ones the Placer API made possible.
var placers = [...]Placer{
	neverPlacer{},
	cloudOnlyPlacer{},
	nearestPeerPlacer{},
	modelDrivenPlacer{},
	grantAwarePlacer{},
	costBoundedPlacer{},
	metroAffinePlacer{},
}

// PlacerByName returns the built-in placement policy with the given name,
// case-insensitive and whitespace-trimmed.
func PlacerByName(name string) (Placer, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	for _, p := range placers {
		if p.Name() == key {
			return p, nil
		}
	}
	return nil, fmt.Errorf("federation: unknown placement policy %q (built-in: %s)",
		name, strings.Join(PlacerNames(), ", "))
}

// PlacerNames returns the built-in policy names in sweep order; the
// federation sweeps run one row set per entry.
func PlacerNames() []string {
	names := make([]string, len(placers))
	for i, p := range placers {
		names[i] = p.Name()
	}
	return names
}

// neverPlacer serves every request at its ingress site. Under §3.4
// admission a sheddable request is rejected at the origin (the paper's
// single-cluster admission control verbatim) — the federation's admission
// guard converts the ServeLocal decision.
type neverPlacer struct{}

func (neverPlacer) Name() string { return "never" }

func (neverPlacer) Place(ctx *PlacementContext) Decision { return Local() }

// cloudOnlyPlacer sheds to the cloud when the ingress site is overloaded.
type cloudOnlyPlacer struct{}

func (cloudOnlyPlacer) Name() string { return "cloud-only" }

func (cloudOnlyPlacer) Place(ctx *PlacementContext) Decision {
	if ctx.Overloaded(ctx.Origin()) {
		return ToCloud()
	}
	return Local()
}

// nearestPeerPlacer sheds to the closest accepting peer, falling back to
// the cloud when no peer can absorb the work.
type nearestPeerPlacer struct{}

func (nearestPeerPlacer) Name() string { return "nearest-peer" }

func (nearestPeerPlacer) Place(ctx *PlacementContext) Decision {
	if !ctx.Overloaded(ctx.Origin()) {
		return Local()
	}
	if p := ctx.SelectPeer(); p >= 0 {
		return ToSite(p)
	}
	return ToCloud()
}

// modelDrivenPlacer predicts the response time at every candidate location
// (backlog drain time plus RTT) and offloads to the best one whenever the
// local prediction misses the response SLO. For a sheddable request (§3.4)
// it skips the local candidate and rejects when even the best prediction
// misses the SLO.
type modelDrivenPlacer struct{}

func (modelDrivenPlacer) Name() string { return "model-driven" }

func (modelDrivenPlacer) Place(ctx *PlacementContext) Decision {
	return placePredictive(ctx, (*PlacementContext).predictReachable, false)
}

// placePredictive is the shared decision logic of the model-driven family:
// predict every candidate with the given estimator, serve locally while
// the local prediction meets the deadline, otherwise offload to the
// fastest alternative (cloud included), rejecting sheddable requests when
// nothing admissible meets the deadline. With metro set, a same-metro
// peer with positive headroom that meets the deadline and beats local
// service wins before the fastest alternative is considered. The scan
// itself drops peers the origin cannot reach, so an estimator prices only
// reachable sites and no member of the family can pick a peer behind a
// dark link.
func placePredictive(ctx *PlacementContext, predict func(ctx *PlacementContext, site int) float64, metro bool) Decision {
	deadline := ctx.ResponseSLO().Seconds()
	origin := ctx.Origin()
	// §3.4 coupled to placement: a sheddable request never queues at its
	// origin, so local service is no candidate at all.
	local := math.Inf(1)
	if !ctx.Sheddable() {
		if local = predict(ctx, origin); local <= deadline {
			return Local()
		}
	}
	// Predicted SLO miss: one scan over the deterministic candidate order
	// tracks the fastest peer and, for metro affinity, the fastest
	// same-metro peer with borrowable headroom. Peer predictions pay both
	// network legs, which may differ under an asymmetric topology.
	best, bestResp := -1, math.Inf(1)
	inMetro, inMetroResp := -1, math.Inf(1)
	for _, p := range ctx.PeersByRTT() {
		if !ctx.reaches(p) {
			continue
		}
		resp := predict(ctx, p)
		if resp < bestResp {
			best, bestResp = p, resp
		}
		if metro && resp < inMetroResp && ctx.SameMetro(origin, p) && ctx.Headroom(p) > 0 {
			inMetro, inMetroResp = p, resp
		}
	}
	if inMetro >= 0 && inMetroResp <= deadline && inMetroResp < local {
		return ToSite(inMetro)
	}
	// Offloading must actually help: the cloud wins only when it beats
	// every peer and local service.
	if cloud := ctx.PredictCloud(); cloud < bestResp && cloud < local {
		if !ctx.Sheddable() || cloud <= deadline {
			return ToCloud()
		}
		return Reject()
	}
	if bestResp <= deadline || (!ctx.Sheddable() && bestResp < local) {
		return ToSite(best)
	}
	if ctx.Sheddable() {
		return Reject()
	}
	return Local()
}

// grantAwarePlacer is the allocator-aware refinement of model-driven
// placement (the ROADMAP item): its per-candidate prediction folds the
// federation-wide fair-share allocator's grants into the estimate in both
// directions. A peer whose grant pre-provisions capacity that has not
// finished cold-starting is credited with the granted pool rather than the
// (smaller) live one, and a grant-bound site — model-computed desire above
// its grant, so arrivals outpace the capacity it is allowed to keep — has
// its drain-time term inflated by the demand-to-grant load factor, because
// its backlog refills as fast as it drains (plain model-driven prices the
// backlog as if arrivals stopped, which is exactly why it trails on skewed
// traces). Without global grants it degrades to exactly the model-driven
// prediction.
type grantAwarePlacer struct{}

func (grantAwarePlacer) Name() string { return "grant-aware" }

func (grantAwarePlacer) Place(ctx *PlacementContext) Decision {
	return placePredictive(ctx, predictGrantAware, false)
}

// predictGrantAware estimates the end-to-end response time (seconds) at a
// site crediting the global allocator's view: the granted pool when it
// exceeds the live one (pre-provisioned capacity still cold-starting), and
// the desire/grant load factor on the drain term when the grant binds.
// Reachability is placePredictive's concern, not priced here.
func predictGrantAware(ctx *PlacementContext, site int) float64 {
	if !ctx.Serves(site) {
		return math.Inf(1)
	}
	n := float64(ctx.Containers(site))
	capacity := ctx.ServiceCapacity(site)
	load := 1.0
	if g, ok := ctx.GrantedCPU(site); ok && g > 0 {
		spec := ctx.Spec()
		granted := float64(g) / float64(spec.CPUMillis)
		if grantedCap := granted * spec.ServiceRate(); grantedCap > capacity {
			n, capacity = granted, grantedCap
		}
		if desired := ctx.DesiredCPU(site); desired > g {
			load = float64(desired) / float64(g)
		}
	}
	if capacity <= 0 {
		return math.Inf(1)
	}
	extra := ctx.t.origin.legs[site]
	// The load factor inflates only the backlog-drain term — the backlog
	// is what keeps refilling at a grant-bound site — never the request's
	// own service time.
	return extra + (load*float64(ctx.Backlog(site))+n)/capacity
}

// costBoundedPlacer prefers the cheapest candidate whose predicted
// response still meets the SLO: edge capacity is sunk cost (free), while
// every cloud invocation bills at the FaaS price points
// (CloudCostPerRequest), so the cloud is used only when no edge candidate
// — origin included — is predicted to make the deadline. When nothing
// meets the deadline the SLO bound is lost either way: a sheddable
// request is rejected (§3.4), and a normal one takes the fastest
// candidate regardless of price, ties to the cheaper.
type costBoundedPlacer struct{}

// candidate is one location the cost-bounded placer weighs: what choosing
// it would decide, bill and predict.
type candidate struct {
	d    Decision
	cost float64
	resp float64
}

func (costBoundedPlacer) Name() string { return "cost-bounded" }

func (costBoundedPlacer) Place(ctx *PlacementContext) Decision {
	cands := ctx.f.candScratch[:0]
	if !ctx.Sheddable() {
		cands = append(cands, candidate{Local(), 0, ctx.PredictResponse(ctx.Origin())})
	}
	for _, p := range ctx.PeersByRTT() {
		cands = append(cands, candidate{ToSite(p), 0, ctx.PredictResponse(p)})
	}
	// The cloud is always a candidate: the selection loop below filters by
	// the same PredictCloud-vs-deadline test §3.4 admission applies, and the
	// no-candidate-meets-SLO fallback must still be able to pick the cloud
	// when it is the fastest miss (e.g. a 600ms cold cloud beats a
	// hopelessly backlogged local queue).
	cands = append(cands, candidate{ToCloud(), ctx.CloudCostPerRequest(), ctx.PredictCloud()})
	ctx.f.candScratch = cands // keep the grown backing array for the next decision
	deadline := ctx.ResponseSLO().Seconds()
	// Cheapest candidate meeting the SLO, ties to the faster prediction;
	// PeersByRTT order breaks exact ties deterministically.
	best := -1
	for i, c := range cands {
		if c.resp > deadline {
			continue
		}
		if best < 0 || c.cost < cands[best].cost ||
			(c.cost == cands[best].cost && c.resp < cands[best].resp) {
			best = i
		}
	}
	if best >= 0 {
		return cands[best].d
	}
	if ctx.Sheddable() {
		return Reject()
	}
	// Nothing makes the deadline: fastest candidate, ties to the cheaper.
	pick, bestResp, bestCost := Local(), math.Inf(1), 0.0
	for _, c := range cands {
		if c.resp < bestResp || (c.resp == bestResp && c.cost < bestCost) {
			pick, bestResp, bestCost = c.d, c.resp, c.cost
		}
	}
	return pick
}

// metroAffinePlacer is the hierarchy-aware refinement of model-driven:
// offloads prefer same-metro peers with positive capacity headroom
// whenever one is predicted to meet the SLO, even when a farther peer
// predicts marginally faster. Intra-metro RTTs are the cheapest in a
// hierarchical topology, and keeping displaced work inside the metro
// keeps it inside the scope where the allocator water-fills borrowing
// first and reclaim can repatriate capacity. Under a flat federation (no
// Config.Hierarchy) every Metro() is -1 and the policy degrades to
// exactly model-driven: it is placePredictive with the metro flag set.
type metroAffinePlacer struct{}

func (metroAffinePlacer) Name() string { return "metro-affine" }

func (metroAffinePlacer) Place(ctx *PlacementContext) Decision {
	return placePredictive(ctx, (*PlacementContext).predictReachable, true)
}
