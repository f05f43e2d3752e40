package controller

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"lass/internal/allocation"
	"lass/internal/cluster"
	"lass/internal/fairshare"
	"lass/internal/functions"
	"lass/internal/queuing"
)

// ReclamationPolicy selects how resources are taken back from
// over-allocated functions during overload (§4.2).
type ReclamationPolicy int

const (
	// DefaultPolicy defers to the paper default (Deflation, see Default).
	// It is deliberately the zero value so a partially-specified Config
	// runs the documented defaults instead of silently selecting
	// Termination; opting into Termination requires naming it.
	DefaultPolicy ReclamationPolicy = iota
	// Termination shuts down whole containers to free capacity.
	Termination
	// Deflation shrinks containers' CPU in place, terminating only when
	// maximum deflation is still insufficient.
	Deflation
)

// String returns the policy name.
func (p ReclamationPolicy) String() string {
	switch p {
	case DefaultPolicy:
		return "default(deflation)"
	case Termination:
		return "termination"
	case Deflation:
		return "deflation"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// The paper's fixed constants. Every caller runs them, so they are not
// configuration.
const (
	// ewmaAlpha is the weight of the newest epoch in the rate EWMA.
	ewmaAlpha = 0.6
	// deflationThreshold is τ, the maximum fraction of a container's CPU
	// that deflation may reclaim (§4.2 sets it "conservatively (e.g.,
	// τ = 30%)").
	deflationThreshold = 0.30
	// deflationIncrement is the per-iteration deflation step as a fraction
	// of the standard size ("in small increments").
	deflationIncrement = 0.05
	// drainTTL is how long an over-provisioned container stays in the
	// lazily-reclaimed Draining state before being terminated outright.
	drainTTL = 60 * time.Second
)

// DefaultSLO is the latency objective of every function registered without
// one: §6.1's "95th of waiting time should be under 100 ms".
func DefaultSLO() queuing.SLO {
	return queuing.SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
}

// Config holds the controller's tunables. Zero values are replaced by the
// paper's defaults (see Default).
type Config struct {
	// EvalInterval is how often the allocation step runs; §5 evaluates
	// the windows every 5 seconds.
	EvalInterval time.Duration
	// Windows configures the dual sliding-window estimator.
	Windows DualWindowConfig
	// Policy selects the overload reclamation policy.
	Policy ReclamationPolicy
	// MinContainers keeps at least this many containers per function
	// even when the model wants fewer.
	MinContainers int
	// NoInflateOnSlack disables restoring deflated containers to their
	// standard size when resource pressure ends. The Fig 4 model
	// -validation experiment needs manually deflated containers to stay
	// deflated so the heterogeneous model's reaction can be measured.
	NoInflateOnSlack bool
	// NoBurstDetection ignores the short-window burst signal and always
	// uses the EWMA-smoothed long-window rate — the estimator ablation.
	NoBurstDetection bool
}

// Default returns the paper-faithful configuration.
func Default() Config {
	return Config{
		EvalInterval:  5 * time.Second,
		Windows:       DefaultDualWindow(),
		Policy:        Deflation,
		MinContainers: 0,
	}
}

func (c *Config) fillDefaults() {
	d := Default()
	if c.EvalInterval == 0 {
		c.EvalInterval = d.EvalInterval
	}
	if c.Windows.Short == 0 {
		c.Windows = d.Windows
	}
	if c.Policy == DefaultPolicy {
		c.Policy = d.Policy
	}
}

// Hooks connect the controller to its host (the simulated platform or the
// real-time runtime). The controller mutates the cluster directly; hooks
// tell the host when containers become usable or disappear so the data
// path can attach/detach them.
type Hooks struct {
	// Now returns the current time.
	Now func() time.Duration
	// ScheduleColdStart arranges for ready() to run after the
	// container's cold-start delay.
	ScheduleColdStart func(c *cluster.Container, delay time.Duration, ready func())
	// OnReady fires when a container finished cold-starting (it is
	// already marked Running).
	OnReady func(c *cluster.Container)
	// OnRemove fires when a container is terminated; the host must
	// detach it from the data path (requeueing any in-flight request).
	OnRemove func(c *cluster.Container)
	// OnResize fires after a container's CPU allocation changed. It is
	// optional: New puts a no-op in its place.
	OnResize func(c *cluster.Container)
}

func (h Hooks) validate() error {
	if h.Now == nil || h.ScheduleColdStart == nil || h.OnReady == nil || h.OnRemove == nil {
		return fmt.Errorf("controller: Now, ScheduleColdStart, OnReady and OnRemove hooks are required")
	}
	return nil
}

// Function is the controller's per-function state.
type Function struct {
	Spec   functions.Spec
	SLO    queuing.SLO
	Weight float64
	User   string // namespace for two-level hierarchical shares ("" = none)

	estimator *DualWindow
	smoother  *EWMA

	// LambdaHat is the rate estimate used by the most recent Step.
	LambdaHat float64
	// Desired is the model-computed container count c_new from the most
	// recent Step.
	Desired int
	// Burst reports whether the most recent estimate came from the
	// short window.
	Burst bool

	// sizer is the function's own Algorithm 1 state: the bracket of rates
	// its last count is proven for and the deflated-pool search's start,
	// model and rate list. It changes how many counts an epoch probes,
	// never the count.
	sizer queuing.Sizer
	// pos is the function's registration position: its index in Demands
	// and in a grant vector.
	pos int
	// containers holds every container the controller placed for the
	// function and has not terminated, in any state, in ID order:
	// createContainer appends (IDs only grow) and terminate removes.
	containers []*cluster.Container
}

// Containers returns the function's containers that are not terminated —
// Starting, Running and Draining — in ID order. The slice is the
// controller's own: callers must not modify it, and it is valid only until
// the controller next creates or terminates a container.
func (f *Function) Containers() []*cluster.Container { return f.containers }

// Stats are the controller's cumulative action counters.
type Stats struct {
	Creations    uint64
	Terminations uint64
	Deflations   uint64
	Inflations   uint64
	Revivals     uint64
	Drains       uint64
	Overloads    uint64 // Steps that bound a pool: local overload, or a grant below desire
	Steps        uint64
	// GrantLeaseExpiries counts grant leases that lapsed without renewal,
	// each dropping the controller back to local enforcement.
	GrantLeaseExpiries uint64
}

// Controller is the LaSS control plane for one edge cluster.
type Controller struct {
	cfg      Config
	cluster  *cluster.Cluster
	hooks    Hooks
	funcs    map[string]*Function
	order    []*Function // registration order, for deterministic iteration
	users    map[string]float64
	drained  map[cluster.ContainerID]time.Duration // when marked draining
	stats    Stats
	headroom int64   // capacity minus model-desired CPU, from the last Step
	grants   []int64 // externally-imposed CPU grants by position (nil = local allocation)
	// grantDeadline is when the current grant lease lapses (0 = no lease:
	// grants stay valid until explicitly replaced or cleared).
	grantDeadline time.Duration
	// liveScratch/drainScratch back liveContainers and drainingContainers.
	// They are separate because reconcileNormal holds a live slice while it
	// fetches the draining one; no caller holds two results of the SAME
	// helper across a second call to it.
	liveScratch  []*cluster.Container
	drainScratch []*cluster.Container
	// shares is the §5 user → function share tree over the registered
	// functions, rebuilt only by Register and RegisterUser. Its node IDs
	// are never validated: Register rules out duplicate and reserved
	// names, and the division repeats every other check.
	shares       *allocation.ShareTree
	shareScratch fairshare.Scratch // shares' division memory
	// Per-epoch scratch: Demands, grantTargets and fairShares return
	// views of these buffers so a steady-state control epoch performs no
	// heap allocations. Each helper's result is valid only until its next
	// call on this controller. targetScratch has one entry per registered
	// function, added by Register.
	demandsOut    []allocation.FunctionDemand
	targetScratch []int64
	feasScratch   []fairshare.Demand
}

// New builds a controller for the cluster.
func New(cfg Config, cl *cluster.Cluster, hooks Hooks) (*Controller, error) {
	if cl == nil {
		return nil, fmt.Errorf("controller: nil cluster")
	}
	if err := hooks.validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if hooks.OnResize == nil {
		hooks.OnResize = func(*cluster.Container) {}
	}
	return &Controller{
		cfg:      cfg,
		cluster:  cl,
		hooks:    hooks,
		funcs:    make(map[string]*Function),
		users:    make(map[string]float64),
		drained:  make(map[cluster.ContainerID]time.Duration),
		headroom: cl.TotalCPU(), // optimistic until the first Step runs
	}, nil
}

// Config returns the controller's effective configuration.
func (ctl *Controller) Config() Config { return ctl.cfg }

// Stats returns the cumulative action counters.
func (ctl *Controller) Stats() Stats { return ctl.stats }

// Headroom is the controller's capacity-headroom signal: cluster CPU
// (millicores) left over after the queuing model's desired allocations, as
// of the most recent Step. Negative values mean the last epoch's desire
// exceeded the cluster, with or without grants. Before the first Step it is
// the full cluster capacity. The federation placement layer reads this to
// decide whether a site can absorb more load or should shed it.
func (ctl *Controller) Headroom() int64 { return ctl.headroom }

// Overloaded reports whether the most recent Step found aggregate demand
// exceeding cluster capacity.
func (ctl *Controller) Overloaded() bool { return ctl.headroom < 0 }

// reservedPrefix starts the share tree's own names (its root's ID and the
// "::default" namespace of functions without a user), so no function or
// user name may start with it.
const reservedPrefix = "::"

// RegisterUser sets a namespace weight for the two-level hierarchical
// share tree (§5). Functions registered with this user name share the
// user's cluster fraction.
func (ctl *Controller) RegisterUser(name string, weight float64) error {
	if name == "" || weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("controller: invalid user %q weight %v", name, weight)
	}
	if strings.HasPrefix(name, reservedPrefix) {
		return fmt.Errorf("controller: user %q: names starting with %q are reserved", name, reservedPrefix)
	}
	ctl.users[name] = weight
	ctl.shares = allocation.NewShareTree("::cluster", ctl.Demands())
	return nil
}

// Register adds a function to the platform. weight is its fair-share
// weight ω_i; user optionally names a namespace (RegisterUser). A zero SLO
// uses the controller default.
func (ctl *Controller) Register(spec functions.Spec, user string, weight float64, slo queuing.SLO) (*Function, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if strings.HasPrefix(spec.Name, reservedPrefix) {
		return nil, fmt.Errorf("controller: function %q: names starting with %q are reserved", spec.Name, reservedPrefix)
	}
	if _, dup := ctl.funcs[spec.Name]; dup {
		return nil, fmt.Errorf("controller: function %q already registered", spec.Name)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) {
		return nil, fmt.Errorf("controller: function %q has non-finite weight %v", spec.Name, weight)
	}
	if weight <= 0 {
		weight = spec.Weight
	}
	if slo.Deadline == 0 {
		slo = DefaultSLO()
	}
	if user != "" {
		if _, ok := ctl.users[user]; !ok {
			return nil, fmt.Errorf("controller: user %q not registered", user)
		}
	}
	est, err := NewDualWindow(ctl.cfg.Windows)
	if err != nil {
		return nil, err
	}
	sm, err := NewEWMA(ewmaAlpha)
	if err != nil {
		return nil, err
	}
	f := &Function{
		Spec:      spec,
		SLO:       slo,
		Weight:    weight,
		User:      user,
		estimator: est,
		smoother:  sm,
		pos:       len(ctl.order),
	}
	ctl.funcs[spec.Name] = f
	ctl.order = append(ctl.order, f)
	ctl.targetScratch = append(ctl.targetScratch, 0)
	ctl.shares = allocation.NewShareTree("::cluster", ctl.Demands())
	return f, nil
}

// Function returns the registered function state.
func (ctl *Controller) Function(name string) (*Function, bool) {
	f, ok := ctl.funcs[name]
	return f, ok
}

// RecordArrivalOf feeds f's estimator; the data path calls it for every
// incoming request, with the handle Register returned.
func (ctl *Controller) RecordArrivalOf(f *Function) {
	f.estimator.RecordArrival(ctl.hooks.Now())
}

// RecordArrival is RecordArrivalOf by name, for a caller that holds no
// handle (the benchmark's controller replay); unknown names are ignored.
func (ctl *Controller) RecordArrival(function string) {
	if f, ok := ctl.funcs[function]; ok {
		ctl.RecordArrivalOf(f)
	}
}

// liveContainers returns f's containers that count toward its allocation
// (Starting or Running; Draining containers are spare capacity pending
// lazy reclaim), in ID order.
// The result aliases a controller-owned scratch buffer: it is valid only
// until the next liveContainers call and must not be retained.
func (ctl *Controller) liveContainers(f *Function) []*cluster.Container {
	out := ctl.liveScratch[:0]
	for _, c := range f.containers {
		if c.State() == cluster.Starting || c.State() == cluster.Running {
			out = append(out, c)
		}
	}
	ctl.liveScratch = out
	return out
}

// drainingContainers mirrors liveContainers for the Draining state, on its
// own scratch buffer (see the struct comment); the same retention rule
// applies.
func (ctl *Controller) drainingContainers(f *Function) []*cluster.Container {
	out := ctl.drainScratch[:0]
	for _, c := range f.containers {
		if c.State() == cluster.Draining {
			out = append(out, c)
		}
	}
	ctl.drainScratch = out
	return out
}

// liveCPU sums the current CPU of fn's live containers.
func liveCPU(cs []*cluster.Container) int64 {
	var t int64
	for _, c := range cs {
		t += c.CPUCurrent
	}
	return t
}

// desiredContainers runs the queueing model for one function: Algorithm 1
// on the homogeneous model, plus the Alves heterogeneous bound when the
// function's pool contains deflated containers (§3.2-§3.3). Both go
// through the function's own Sizer: the homogeneous count is usually its
// bracket's answer with no probe, and the heterogeneous search starts from
// the previous epoch's answer, so slowly-drifting rates probe O(1)
// counts. Both equal the cold scan's.
func (ctl *Controller) desiredContainers(f *Function, lambda float64) (int, error) {
	mu := f.Spec.ServiceRate()
	want, err := f.sizer.Size(lambda, mu, f.SLO)
	if err != nil {
		return 0, err
	}
	live := ctl.liveContainers(f)
	if slices.ContainsFunc(live, (*cluster.Container).Deflated) {
		// How many standard containers must join the deflated pool (Fig
		// 4's reaction)? When none, the pool may shrink to the homogeneous
		// count, so over-provisioned deflated pools scale down.
		add, err := f.sizer.Additional(lambda, len(live), func(i int) float64 {
			return f.Spec.RateAt(live[i].CPUFraction())
		}, mu, f.SLO)
		if err != nil {
			return 0, err
		}
		if add > 0 {
			want = len(live) + add
		} else {
			want = min(want, len(live))
		}
	}
	return max(want, ctl.cfg.MinContainers), nil
}

// Demands returns the per-function demand estimates from the most recent
// Step (model-desired CPU, fair-share weight, namespace and its weight — 1
// for a function without a user), in registration order, in the type the
// federation's allocator consumes. Every desire is floored at
// MinContainers' worth of CPU, and — until the first Step has produced a
// real estimate — at the function's current live pool CPU: a controller
// has no demand history at bootstrap, and an allocator reading it then
// (e.g. a global epoch firing at t≈0) must see the provisioned (prewarmed)
// capacity, not an artificial zero it would turn into a pool-killing zero
// grant. After the first Step both floors are no-ops for sizing-governed
// pools, so scale-down is unimpeded. The federation-level global allocator gathers these from
// every site's controller each epoch.
//
// The result aliases a controller-owned scratch buffer: it is valid only
// until the next Demands call and must not be retained. Callers that need
// the report later copy it (the federation's epoch snapshot does).
func (ctl *Controller) Demands() []allocation.FunctionDemand {
	out := ctl.demandsOut[:0]
	for _, f := range ctl.order {
		uw := 1.0
		if w := ctl.users[f.User]; w > 0 {
			uw = w
		}
		desired := int64(max(f.Desired, ctl.cfg.MinContainers)) * f.Spec.CPUMillis
		if ctl.stats.Steps == 0 {
			desired = max(desired, liveCPU(ctl.liveContainers(f)))
		}
		out = append(out, allocation.FunctionDemand{
			Name:       f.Spec.Name,
			User:       f.User,
			Weight:     f.Weight,
			UserWeight: uw,
			DesiredCPU: desired,
		})
	}
	ctl.demandsOut = out
	return out
}

// Capacity returns the cluster's total CPU capacity in millicores.
func (ctl *Controller) Capacity() int64 { return ctl.cluster.TotalCPU() }

// SetCapacityGrantsLeased imposes externally-computed per-function CPU
// grants valid for lease from now: one entry per registered function, in
// Demands order. Subsequent Steps take their targets from the grants
// instead of from the local fair share (the federation-level global
// fair-share path). The controller keeps the slice, so the caller must not
// change it afterwards. When the lease lapses without a renewal (another
// call), the controller falls back to local enforcement instead of
// freezing on stale grants forever: the next Step — or an explicit
// ExpireGrantLease call, which the federation schedules on its shared
// engine at the expiry instant — drops the grants. A non-positive lease
// means no expiry (the freeze-on-stale legacy); a nil slice restores local
// allocation immediately. A non-nil slice of the wrong length is a caller
// bug and panics.
func (ctl *Controller) SetCapacityGrantsLeased(grants []int64, lease time.Duration) {
	if grants == nil {
		ctl.grants = nil
		ctl.grantDeadline = 0
		return
	}
	if len(grants) != len(ctl.order) {
		panic(fmt.Sprintf("controller: %d grants for %d registered functions", len(grants), len(ctl.order)))
	}
	ctl.grants = grants
	if lease > 0 {
		ctl.grantDeadline = ctl.hooks.Now() + lease
	} else {
		ctl.grantDeadline = 0
	}
}

// ExpireGrantLease drops the externally-imposed grants if their lease has
// lapsed, restoring local enforcement, and reports whether it did. A
// controller with no grants, no lease, or an unexpired lease is untouched.
// The federation calls this from an engine event at the lease deadline so
// the fallback is visible to the placement layer the instant the lease
// runs out; Step also checks, so standalone hosts need no extra wiring.
func (ctl *Controller) ExpireGrantLease() bool {
	if ctl.grants == nil || ctl.grantDeadline == 0 || ctl.hooks.Now() < ctl.grantDeadline {
		return false
	}
	ctl.grants = nil
	ctl.grantDeadline = 0
	ctl.stats.GrantLeaseExpiries++
	return true
}

// GrantedExternally reports whether an external allocator currently
// governs this controller's capacity enforcement.
func (ctl *Controller) GrantedExternally() bool { return ctl.grants != nil }

// GrantOf returns the externally-imposed CPU grant (millicores) for the
// function handle f, and whether such a grant exists (never for a nil f).
// The federation's placement context exposes this per candidate site, so
// allocator-aware policies can credit granted-but-not-yet-materialized
// capacity.
func (ctl *Controller) GrantOf(f *Function) (int64, bool) {
	if ctl.grants == nil || f == nil {
		return 0, false
	}
	return ctl.grants[f.pos], true
}

// Step runs one allocation epoch (§3.3): estimate rates and size every
// function, expire a lapsed grant lease and old drained containers, then
// pick per-function CPU targets and enforce them. The targets are the
// external grants while an allocator imposes them
// (SetCapacityGrantsLeased); otherwise, when total desire exceeds the
// cluster, the §4.1 fair shares (§5's user tree); otherwise none, and
// every function gets its model desire.
func (ctl *Controller) Step() error {
	if err := ctl.estimate(); err != nil {
		return err
	}
	ctl.ExpireGrantLease()
	ctl.expireDrained(ctl.hooks.Now())
	capacity := ctl.cluster.TotalCPU()
	ctl.headroom = capacity
	for _, f := range ctl.order {
		ctl.headroom -= int64(f.Desired) * f.Spec.CPUMillis
	}
	var targets []int64
	var err error
	overloaded := ctl.grants == nil && ctl.headroom < 0
	switch {
	case ctl.grants != nil:
		targets, err = ctl.grantTargets(capacity)
	case overloaded:
		targets, err = ctl.fairShares(capacity)
	}
	if err != nil {
		return err
	}
	return ctl.enforce(targets, overloaded)
}

// estimate runs the demand-estimation half of an epoch: per-function rate
// estimates and model-driven desired container counts, left on the
// function handles, with no enforcement.
func (ctl *Controller) estimate() error {
	now := ctl.hooks.Now()
	ctl.stats.Steps++

	// 1. Rate estimates.
	for _, f := range ctl.order {
		raw, burst := f.estimator.Rate(now)
		if ctl.cfg.NoBurstDetection {
			burst = false
		}
		f.Burst = burst
		switch {
		case burst:
			// React to the burst immediately (§5): bypass smoothing but
			// keep the smoother current.
			f.smoother.Update(raw)
			f.LambdaHat = raw
		case raw == 0:
			// The entire long window is silent: the function is idle.
			// Snap the EWMA to zero rather than decaying geometrically,
			// so idle functions release their capacity.
			f.smoother.Reset()
			f.LambdaHat = f.smoother.Update(0)
		default:
			f.LambdaHat = f.smoother.Update(raw)
		}
	}

	// 2. Model-driven desired capacity.
	for _, f := range ctl.order {
		want, err := ctl.desiredContainers(f, f.LambdaHat)
		if err != nil {
			return fmt.Errorf("controller: sizing %s: %w", f.Spec.Name, err)
		}
		f.Desired = want
	}
	return nil
}

// grantTargets computes the per-function CPU targets the external-grant
// path enforces: each function's target is its grant, floored at
// MinContainers' worth of CPU —
// an external allocator's snapshot is at least an epoch and a round trip
// stale, and may predate this site's first demand report entirely, so a
// stale or zero grant must not shrink a pool below the configured minimum.
// An infeasible target set (summing beyond cluster capacity) is scaled
// down by one local capped adjustment, so enforcement never tries to place
// more CPU than physically exists.
//
// The returned slice, indexed by registration position, aliases
// controller-owned scratch, valid only until the next grantTargets or
// fairShares call (i.e. within the Step that requested it).
func (ctl *Controller) grantTargets(capacity int64) ([]int64, error) {
	targets := ctl.targetScratch
	var totalTarget int64
	for i, f := range ctl.order {
		t := max(ctl.grants[i], 0, int64(ctl.cfg.MinContainers)*f.Spec.CPUMillis)
		targets[i] = t
		totalTarget += t
	}
	if totalTarget > capacity {
		feasible := ctl.feasScratch[:0]
		for i, f := range ctl.order {
			feasible = append(feasible, fairshare.Demand{ID: f.Spec.Name, Weight: f.Weight, Desired: targets[i]})
		}
		ctl.feasScratch = feasible
		allocs, err := fairshare.AdjustCapped(feasible, capacity)
		if err != nil {
			return nil, err
		}
		for i, a := range allocs {
			targets[i] = a.Adjusted
		}
	}
	return targets, nil
}

// enforce brings every pool to its CPU target, in registration order. A
// function binds when the epoch is overloaded or its target is below its
// model desire. Binding pools are reclaimed first with the configured
// policy (§4.2), freeing capacity, and then grown into their targets.
// Every other pool is reconciled normally toward its desired count, or
// toward its target's count when that is larger: a grant can pre-provision
// capacity for offloaded work the global allocator expects to arrive.
// targets is indexed by registration position; when it is nil every
// function targets its desire. Overload binds every pool, even one whose
// fair share covers its desire, so its drained containers go at once, not
// lazily.
func (ctl *Controller) enforce(targets []int64, overloaded bool) error {
	bound := false
	for _, f := range ctl.order {
		if t, binds := target(f, targets, overloaded); binds {
			bound = true
			if err := ctl.shrinkTo(f, t); err != nil {
				return err
			}
		}
	}
	if bound {
		ctl.stats.Overloads++
	}
	for _, f := range ctl.order {
		t, binds := target(f, targets, overloaded)
		var err error
		if binds {
			err = ctl.growTo(f, t)
		} else {
			err = ctl.reconcileNormal(f, max(f.Desired, int(t/f.Spec.CPUMillis)))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// target returns f's CPU target for enforce and whether it binds.
func target(f *Function, targets []int64, overloaded bool) (int64, bool) {
	desired := int64(f.Desired) * f.Spec.CPUMillis
	t := desired
	if targets != nil {
		t = targets[f.pos]
	}
	return t, overloaded || t < desired
}

// fairShares divides capacity over the two-level tree of §5: users
// (weighted) → functions (weighted), with capped adjustments. Functions
// without a user share the weight-1 "::default" namespace; with no users
// at all it is the root's only child, gets the whole capacity, and the
// functions divide it exactly as one flat §4.1 capped adjustment would.
// It is the division the federation's allocator reports drift against for
// this site (allocation.ShareTree). The result is indexed like
// grantTargets'.
func (ctl *Controller) fairShares(capacity int64) ([]int64, error) {
	for _, f := range ctl.order {
		ctl.targetScratch[f.pos] = int64(f.Desired) * f.Spec.CPUMillis
	}
	if err := ctl.shares.Divide(&ctl.shareScratch, ctl.targetScratch, capacity, true, ctl.targetScratch); err != nil {
		return nil, err
	}
	return ctl.targetScratch, nil
}

// expireDrained terminates Draining containers older than drainTTL.
func (ctl *Controller) expireDrained(now time.Duration) {
	for _, f := range ctl.order {
		for _, c := range ctl.drainingContainers(f) {
			at, ok := ctl.drained[c.ID]
			if ok && now-at >= drainTTL {
				ctl.terminate(f, c)
			}
		}
	}
}

// terminate removes f's container c everywhere.
func (ctl *Controller) terminate(f *Function, c *cluster.Container) {
	delete(ctl.drained, c.ID)
	wasServable := c.Servable()
	if err := ctl.cluster.Terminate(c); err != nil {
		return
	}
	if i := slices.Index(f.containers, c); i >= 0 {
		f.containers = slices.Delete(f.containers, i, i+1)
	}
	ctl.stats.Terminations++
	if wasServable {
		ctl.hooks.OnRemove(c)
	}
}

// createContainer places and cold-starts one container (possibly below
// standard size for the deflation policy's fragment-filling). On capacity
// failure it lazily reclaims drained containers and retries (§3.3: "any
// container marked for termination ... is actively terminated, and those
// resources are reallocated").
func (ctl *Controller) createContainer(f *Function, cpu int64) (*cluster.Container, error) {
	place := func() (*cluster.Container, error) {
		if cpu == f.Spec.CPUMillis {
			return ctl.cluster.Place(f.Spec.Name, cpu, f.Spec.MemoryMiB)
		}
		return ctl.cluster.PlaceDeflated(f.Spec.Name, f.Spec.CPUMillis, cpu, f.Spec.MemoryMiB)
	}
	c, err := place()
	if err != nil {
		if !ctl.reclaimDrainedFor(cpu, f.Spec.MemoryMiB) {
			return nil, err
		}
		c, err = place()
		if err != nil {
			return nil, err
		}
	}
	f.containers = append(f.containers, c)
	ctl.stats.Creations++
	ctl.hooks.ScheduleColdStart(c, f.Spec.ColdStart, func() {
		if c.State() != cluster.Starting {
			return // terminated while cold-starting
		}
		if err := ctl.cluster.MarkRunning(c); err == nil {
			ctl.hooks.OnReady(c)
		}
	})
	return c, nil
}

// reclaimDrainedFor terminates drained containers (oldest first, across
// all functions) until some node could fit the requested size. Reports
// whether any progress was made.
func (ctl *Controller) reclaimDrainedFor(cpu, mem int64) bool {
	type cand struct {
		f  *Function
		c  *cluster.Container
		at time.Duration
	}
	var cands []cand
	for _, f := range ctl.order {
		for _, c := range ctl.drainingContainers(f) {
			cands = append(cands, cand{f, c, ctl.drained[c.ID]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].at != cands[j].at {
			return cands[i].at < cands[j].at
		}
		return cands[i].c.ID < cands[j].c.ID
	})
	progress := false
	for _, cd := range cands {
		if ctl.fits(cpu, mem) {
			return true
		}
		ctl.terminate(cd.f, cd.c)
		progress = true
	}
	return progress && ctl.fits(cpu, mem)
}

func (ctl *Controller) fits(cpu, mem int64) bool {
	for _, n := range ctl.cluster.Nodes() {
		if n.Fits(cpu, mem) {
			return true
		}
	}
	return false
}

// markDraining transitions a container to lazy-reclaim state. The data
// path keeps serving on it until it is actually terminated.
func (ctl *Controller) markDraining(c *cluster.Container, now time.Duration) {
	if err := ctl.cluster.MarkDraining(c); err == nil {
		ctl.drained[c.ID] = now
		ctl.stats.Drains++
	}
}

// revive pulls a draining container back into service.
func (ctl *Controller) revive(c *cluster.Container) bool {
	if err := ctl.cluster.Revive(c); err != nil {
		return false
	}
	delete(ctl.drained, c.ID)
	ctl.stats.Revivals++
	return true
}
