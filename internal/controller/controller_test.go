package controller

import (
	"strings"
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/functions"
	"lass/internal/queuing"
)

// harness drives a Controller with fake time and instant cold starts.
type harness struct {
	t       *testing.T
	now     time.Duration
	cl      *cluster.Cluster
	ctl     *Controller
	ready   []*cluster.Container
	removed []*cluster.Container
	pending []func() // delayed cold starts when instant=false
	instant bool
}

func newHarness(t *testing.T, cfg Config, clCfg cluster.Config) *harness {
	t.Helper()
	h := &harness{t: t, instant: true}
	cl, err := cluster.New(clCfg)
	if err != nil {
		t.Fatal(err)
	}
	h.cl = cl
	hooks := Hooks{
		Now: func() time.Duration { return h.now },
		ScheduleColdStart: func(c *cluster.Container, delay time.Duration, ready func()) {
			if h.instant {
				ready()
			} else {
				h.pending = append(h.pending, ready)
			}
		},
		OnReady:  func(c *cluster.Container) { h.ready = append(h.ready, c) },
		OnRemove: func(c *cluster.Container) { h.removed = append(h.removed, c) },
		OnResize: func(c *cluster.Container) {},
	}
	ctl, err := New(cfg, cl, hooks)
	if err != nil {
		t.Fatal(err)
	}
	h.ctl = ctl
	return h
}

// offer feeds deterministic arrivals at the given rate over the window
// [h.now, h.now+dur), then advances the clock to the window's end.
func (h *harness) offer(fn string, rate float64, dur time.Duration) {
	end := h.now + dur
	if rate > 0 {
		gap := time.Duration(float64(time.Second) / rate)
		for t := h.now; t < end; t += gap {
			h.now = t
			h.ctl.RecordArrival(fn)
		}
	}
	h.now = end
}

func (h *harness) step() {
	h.t.Helper()
	if err := h.ctl.Step(); err != nil {
		h.t.Fatal(err)
	}
}

func liveOf(cl *cluster.Cluster, fn string) []*cluster.Container {
	var out []*cluster.Container
	for _, c := range cl.ContainersOf(fn) {
		if c.State() == cluster.Starting || c.State() == cluster.Running {
			out = append(out, c)
		}
	}
	return out
}

func mustSpec(t *testing.T, name string) functions.Spec {
	t.Helper()
	s, err := functions.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidatesConfig(t *testing.T) {
	cl, _ := cluster.New(cluster.PaperCluster())
	hooks := Hooks{
		Now:               func() time.Duration { return 0 },
		ScheduleColdStart: func(*cluster.Container, time.Duration, func()) {},
		OnReady:           func(*cluster.Container) {},
		OnRemove:          func(*cluster.Container) {},
	}
	if _, err := New(Config{}, nil, hooks); err == nil {
		t.Error("want error for nil cluster")
	}
	if _, err := New(Config{}, cl, Hooks{}); err == nil {
		t.Error("want error for missing hooks")
	}
}

func TestRegisterValidation(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	if _, err := h.ctl.Register(spec, "", 1, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ctl.Register(spec, "", 1, queuing.SLO{}); err == nil {
		t.Error("want error for duplicate registration")
	}
	if _, err := h.ctl.Register(mustSpec(t, "geofence"), "ghost", 1, queuing.SLO{}); err == nil {
		t.Error("want error for unregistered user")
	}
	bad := spec
	bad.Name = ""
	if _, err := h.ctl.Register(bad, "", 1, queuing.SLO{}); err == nil {
		t.Error("want error for invalid spec")
	}
	if err := h.ctl.RegisterUser("", 1); err == nil {
		t.Error("want error for empty user name")
	}
	if err := h.ctl.RegisterUser("u", 0); err == nil {
		t.Error("want error for zero user weight")
	}
	if fns := h.ctl.order; len(fns) != 1 || fns[0] != "micro-benchmark" {
		t.Errorf("functions=%v", fns)
	}
}

func TestScaleUpOnLoad(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	spec := functions.MicroBenchmark(100 * time.Millisecond) // mu=10
	f, err := h.ctl.Register(spec, "", 1, queuing.SLO{})
	if err != nil {
		t.Fatal(err)
	}
	h.offer(spec.Name, 30, 30*time.Second)
	h.step()
	if f.LambdaHat < 25 || f.LambdaHat > 35 {
		t.Fatalf("lambdaHat=%v want ~30", f.LambdaHat)
	}
	want, err := queuing.MinimalContainers(f.LambdaHat, 10, DefaultSLO())
	if err != nil {
		t.Fatal(err)
	}
	if f.Desired != want {
		t.Errorf("desired=%d want %d", f.Desired, want)
	}
	if got := len(liveOf(h.cl, spec.Name)); got != want {
		t.Errorf("live containers=%d want %d", got, want)
	}
	if len(h.ready) != want {
		t.Errorf("ready callbacks=%d want %d", len(h.ready), want)
	}
}

func TestScaleDownMarksDrainingThenExpires(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	h.ctl.Register(spec, "", 1, queuing.SLO{})

	h.offer(spec.Name, 30, 30*time.Second)
	h.step()
	before := len(liveOf(h.cl, spec.Name))
	if before < 4 {
		t.Fatalf("setup: live=%d", before)
	}

	// Load vanishes; estimates decay over the 2-minute window.
	h.offer(spec.Name, 0, 3*time.Minute)
	h.step()
	after := len(liveOf(h.cl, spec.Name))
	if after != 0 {
		t.Errorf("live=%d want 0 after idle", after)
	}
	// Surplus went to Draining, not terminated (lazy, §3.3).
	draining := 0
	for _, c := range h.cl.ContainersOf(spec.Name) {
		if c.State() == cluster.Draining {
			draining++
		}
	}
	if draining != before {
		t.Errorf("draining=%d want %d", draining, before)
	}
	if len(h.removed) != 0 {
		t.Error("lazy drain must not remove containers from the data path yet")
	}

	// After the TTL, the next step reaps them.
	h.now += drainTTL + time.Second
	h.step()
	if n := len(h.cl.ContainersOf(spec.Name)); n != 0 {
		t.Errorf("containers after TTL=%d want 0", n)
	}
	if len(h.removed) != before {
		t.Errorf("removed=%d want %d", len(h.removed), before)
	}
}

func TestDrainingContainersAreRevivedOnLoadReturn(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	h.ctl.Register(spec, "", 1, queuing.SLO{})

	h.offer(spec.Name, 30, 30*time.Second)
	h.step()
	created := h.ctl.Stats().Creations

	h.offer(spec.Name, 0, 3*time.Minute)
	h.step()

	// Load returns: pool should be rebuilt by revival, not creation.
	h.offer(spec.Name, 30, 30*time.Second)
	h.step()
	if h.ctl.Stats().Creations != created {
		t.Errorf("creations went %d -> %d; expected revivals instead",
			created, h.ctl.Stats().Creations)
	}
	if h.ctl.Stats().Revivals == 0 {
		t.Error("no revivals recorded")
	}
}

func TestBurstReactsInOneStep(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	f, _ := h.ctl.Register(spec, "", 1, queuing.SLO{})

	h.offer(spec.Name, 5, 2*time.Minute)
	h.step()
	small := len(liveOf(h.cl, spec.Name))

	// 6x burst for 10 seconds: the short window must win immediately.
	h.offer(spec.Name, 30, 10*time.Second)
	h.step()
	if !f.Burst {
		t.Fatal("burst not flagged")
	}
	if f.LambdaHat < 25 {
		t.Errorf("lambdaHat=%v want ~30 (short window, unsmoothed)", f.LambdaHat)
	}
	if got := len(liveOf(h.cl, spec.Name)); got <= small {
		t.Errorf("containers=%d did not grow from %d on burst", got, small)
	}
}

func TestMinContainersFloor(t *testing.T) {
	h := newHarness(t, Config{MinContainers: 2}, cluster.PaperCluster())
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	h.ctl.Register(spec, "", 1, queuing.SLO{})
	h.now = 10 * time.Second
	h.step() // no traffic at all
	if got := len(liveOf(h.cl, spec.Name)); got != 2 {
		t.Errorf("live=%d want MinContainers=2", got)
	}
}

// TestPartialConfigAppliesDocumentedDefaults is the regression for the
// silent-Termination bug: a Config that sets only unrelated fields must
// still resolve to the paper defaults — Deflation reclamation, 5s epochs
// and the dual 10s/2min windows — exactly as the Config doc promises.
// Termination remains available, but only as an explicit opt-in.
func TestPartialConfigAppliesDocumentedDefaults(t *testing.T) {
	h := newHarness(t, Config{MinContainers: 1}, cluster.PaperCluster())
	cfg := h.ctl.Config()
	d := Default()
	if cfg.Policy != Deflation || cfg.EvalInterval != d.EvalInterval || cfg.Windows != d.Windows {
		t.Errorf("partial config resolved to %+v, want the defaults of %+v", cfg, d)
	}
	if d.Policy != Deflation || d.EvalInterval != 5*time.Second {
		t.Errorf("Default() = %+v no longer paper-faithful", d)
	}
	// An explicit opt-in survives default filling.
	h2 := newHarness(t, Config{Policy: Termination}, cluster.PaperCluster())
	if got := h2.ctl.Config(); got.Policy != Termination {
		t.Errorf("explicit Termination overwritten: %+v", got)
	}
}

func TestProvision(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	h.ctl.Register(spec, "", 1, queuing.SLO{})
	if err := h.ctl.Provision(spec.Name, 3); err != nil {
		t.Fatal(err)
	}
	if got := len(liveOf(h.cl, spec.Name)); got != 3 {
		t.Errorf("live=%d", got)
	}
	if err := h.ctl.Provision("ghost", 1); err == nil ||
		!strings.Contains(err.Error(), "unknown function") {
		t.Errorf("want unknown-function error, got %v", err)
	}
}

func TestOverloadFairShareTerminationPolicy(t *testing.T) {
	// Two functions, equal weights, both demanding far beyond half the
	// cluster: each must end at its guaranteed ~50% share (Lemma 1), via
	// container termination.
	cfg := Config{Policy: Termination}
	h := newHarness(t, cfg, cluster.PaperCluster()) // 12000 mC
	mb := functions.MicroBenchmark(100 * time.Millisecond)
	mobile := mustSpec(t, "mobilenet-v2")
	h.ctl.Register(mb, "", 1, queuing.SLO{})
	h.ctl.Register(mobile, "", 1, queuing.SLO{})

	// Saturate the micro-benchmark first: it takes over the cluster.
	h.offer(mb.Name, 250, 30*time.Second)
	h.step()
	mbCPU := h.cl.CPUOf(mb.Name)
	if mbCPU <= 6000 {
		t.Fatalf("setup: micro-benchmark only has %d mC", mbCPU)
	}

	// MobileNet load arrives; both now overloaded. Feed both functions in
	// the same window so neither estimate decays.
	gap := 20 * time.Millisecond // 50 req/s for mb
	end := h.now + 30*time.Second
	for tt := h.now; tt < end; tt += gap {
		h.now = tt
		h.ctl.RecordArrival(mb.Name)
		if int(tt/gap)%5 == 0 { // 10 req/s for mobilenet
			h.ctl.RecordArrival(mobile.Name)
		}
	}
	h.now = end
	h.step()

	mbCPU = h.cl.CPUOf(mb.Name)
	moCPU := h.cl.CPUOf(mobile.Name)
	// Guaranteed share is 6000 each; termination quantizes to whole
	// containers (mobilenet: 2000 mC each -> exactly 6000; micro: 400 -> 6000).
	if mbCPU > 6000 {
		t.Errorf("micro-benchmark kept %d mC > fair share 6000", mbCPU)
	}
	if moCPU < 4000 {
		t.Errorf("mobilenet got %d mC, below within-a-container of its 6000 share", moCPU)
	}
	if h.ctl.Stats().Overloads == 0 {
		t.Error("overload step not counted")
	}
	if h.ctl.Stats().Deflations != 0 {
		t.Error("termination policy must not deflate")
	}
}

func TestOverloadDeflationPolicyKeepsMoreContainers(t *testing.T) {
	// The deflation policy must leave the shrunk function with at least
	// as many containers as the termination policy would (§4.2: "allows a
	// function to have strictly more containers").
	run := func(policy ReclamationPolicy) (containers int, cpu int64, util float64) {
		h := newHarness(t, Config{Policy: policy}, cluster.PaperCluster())
		mb := functions.MicroBenchmark(100 * time.Millisecond)
		mobile := mustSpec(t, "mobilenet-v2")
		h.ctl.Register(mb, "", 1, queuing.SLO{})
		h.ctl.Register(mobile, "", 1, queuing.SLO{})
		// MobileNet grabs most of the cluster.
		h.offer(mobile.Name, 18, 30*time.Second)
		h.step()
		// Then the micro-benchmark bursts; overload.
		gap := 10 * time.Millisecond // 100 req/s micro
		end := h.now + 30*time.Second
		for tt := h.now; tt < end; tt += gap {
			h.now = tt
			h.ctl.RecordArrival(mb.Name)
			if int(tt/gap)%6 == 0 {
				h.ctl.RecordArrival(mobile.Name)
			}
		}
		h.now = end
		h.step()
		return len(liveOf(h.cl, mobile.Name)), h.cl.CPUOf(mobile.Name), h.cl.CPUUtilization()
	}
	tN, tCPU, tUtil := run(Termination)
	dN, dCPU, dUtil := run(Deflation)
	if dN < tN {
		t.Errorf("deflation left %d containers < termination %d", dN, tN)
	}
	if dCPU < tCPU {
		t.Errorf("deflation left %d mC < termination %d (functions must get >= resources)", dCPU, tCPU)
	}
	if dUtil < tUtil {
		t.Errorf("deflation utilization %.3f < termination %.3f", dUtil, tUtil)
	}
}

func TestDeflationRespectsThreshold(t *testing.T) {
	h := newHarness(t, Config{Policy: Deflation}, cluster.PaperCluster())
	mb := functions.MicroBenchmark(100 * time.Millisecond)
	mobile := mustSpec(t, "mobilenet-v2")
	h.ctl.Register(mb, "", 1, queuing.SLO{})
	h.ctl.Register(mobile, "", 1, queuing.SLO{})
	h.offer(mobile.Name, 18, 30*time.Second)
	h.step()
	gap := 10 * time.Millisecond
	end := h.now + 30*time.Second
	for tt := h.now; tt < end; tt += gap {
		h.now = tt
		h.ctl.RecordArrival(mb.Name)
		if int(tt/gap)%6 == 0 {
			h.ctl.RecordArrival(mobile.Name)
		}
	}
	h.now = end
	h.step()
	for _, c := range h.cl.ContainersOf(mobile.Name) {
		if c.CPUFraction() < 1-deflationThreshold-1e-9 {
			t.Errorf("container %d deflated to %.2f, below 1-τ=0.70", c.ID, c.CPUFraction())
		}
	}
	if h.ctl.Stats().Deflations == 0 {
		t.Error("no deflations recorded")
	}
}

func TestHierarchicalSharesWeightedUsers(t *testing.T) {
	// User2 has twice user1's weight: under full overload user2's
	// functions get ~2/3 of the cluster (§6.7 setup).
	h := newHarness(t, Config{Policy: Termination}, cluster.PaperCluster())
	h.ctl.RegisterUser("user1", 1)
	h.ctl.RegisterUser("user2", 2)
	f1 := functions.MicroBenchmark(100 * time.Millisecond)
	f2 := mustSpec(t, "binaryalert")
	h.ctl.Register(f1, "user1", 1, queuing.SLO{})
	h.ctl.Register(f2, "user2", 1, queuing.SLO{})
	// Both saturate (micro: 400mC × huge, binaryalert: 500mC × huge).
	gap := 2 * time.Millisecond
	end := h.now + 30*time.Second
	for tt := h.now; tt < end; tt += gap {
		h.now = tt
		h.ctl.RecordArrival(f1.Name)
		h.ctl.RecordArrival(f2.Name)
	}
	h.now = end
	h.step()
	u1 := h.cl.CPUOf(f1.Name)
	u2 := h.cl.CPUOf(f2.Name)
	if u1 > 4000 {
		t.Errorf("user1 got %d mC > 1/3 share 4000", u1)
	}
	if u2 < 7000 {
		t.Errorf("user2 got %d mC, want ~8000 (2/3 share)", u2)
	}
}

func TestColdStartDelayedReady(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	h.instant = false
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	h.ctl.Register(spec, "", 1, queuing.SLO{})
	h.offer(spec.Name, 20, 30*time.Second)
	h.step()
	if len(h.ready) != 0 {
		t.Fatal("ready fired before cold start completed")
	}
	for _, c := range liveOf(h.cl, spec.Name) {
		if c.State() != cluster.Starting {
			t.Errorf("container %d state %v want starting", c.ID, c.State())
		}
	}
	for _, fn := range h.pending {
		fn()
	}
	if len(h.ready) == 0 {
		t.Fatal("ready not fired after cold start")
	}
	for _, c := range liveOf(h.cl, spec.Name) {
		if c.State() != cluster.Running {
			t.Errorf("container %d state %v want running", c.ID, c.State())
		}
	}
}

func TestColdStartOnTerminatedContainerIsNoop(t *testing.T) {
	h := newHarness(t, Config{Policy: Termination}, cluster.PaperCluster())
	h.instant = false
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	h.ctl.Register(spec, "", 1, queuing.SLO{})
	h.ctl.Provision(spec.Name, 1)
	c := h.cl.ContainersOf(spec.Name)[0]
	h.cl.Terminate(c)
	for _, fn := range h.pending {
		fn() // must not panic or mark a terminated container running
	}
	if len(h.ready) != 0 {
		t.Error("ready fired for terminated container")
	}
}

func TestStatsAccumulate(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	h.ctl.Register(spec, "", 1, queuing.SLO{})
	h.offer(spec.Name, 20, 30*time.Second)
	h.step()
	st := h.ctl.Stats()
	if st.Steps != 1 || st.Creations == 0 {
		t.Errorf("stats=%+v", st)
	}
}

func TestPolicyString(t *testing.T) {
	if Termination.String() != "termination" || Deflation.String() != "deflation" {
		t.Error("policy strings wrong")
	}
}

func TestHeadroomSignal(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	if h.ctl.Headroom() != h.cl.TotalCPU() {
		t.Errorf("initial headroom %d want full capacity %d", h.ctl.Headroom(), h.cl.TotalCPU())
	}
	if h.ctl.Overloaded() {
		t.Error("controller overloaded before any Step")
	}
	spec := mustSpec(t, "squeezenet")
	if _, err := h.ctl.Register(spec, "", 1, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	// Modest load: headroom shrinks but stays positive.
	h.offer(spec.Name, 20, 5*time.Second)
	h.step()
	if h.ctl.Overloaded() || h.ctl.Headroom() <= 0 {
		t.Errorf("headroom %d at 20 req/s on a %d mC cluster; want positive", h.ctl.Headroom(), h.cl.TotalCPU())
	}
	if h.ctl.Headroom() >= h.cl.TotalCPU() {
		t.Errorf("headroom %d did not shrink under load", h.ctl.Headroom())
	}
	// Offered load far past cluster capacity: headroom must go negative.
	h.offer(spec.Name, 800, 5*time.Second)
	h.step()
	if !h.ctl.Overloaded() || h.ctl.Headroom() >= 0 {
		t.Errorf("headroom %d at 800 req/s on a %d mC cluster; want negative", h.ctl.Headroom(), h.cl.TotalCPU())
	}
}

// TestExternalGrantsEnforced pins the external-grant enforcement path the
// federation-wide allocator drives: a grant below the model desire binds
// (the pool shrinks to the granted CPU), a grant above it pre-provisions
// (the pool grows past the model count for expected offloads), and a nil
// grant map restores local allocation.
func TestExternalGrantsEnforced(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster()) // 3 nodes x 4000 mC
	spec := mustSpec(t, "squeezenet")                    // 1000 mC standard
	if _, err := h.ctl.Register(spec, "", 1, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	if h.ctl.GrantedExternally() {
		t.Error("GrantedExternally before any grant")
	}

	// Establish a local desire of several containers.
	h.offer(spec.Name, 40, 5*time.Second)
	h.step()
	f, _ := h.ctl.Function(spec.Name)
	if f.Desired < 3 {
		t.Fatalf("desire %d containers at 40 req/s; want >= 3", f.Desired)
	}
	ds := h.ctl.Demands()
	if len(ds) != 1 || ds[0].DesiredCPU != int64(f.Desired)*spec.CPUMillis {
		t.Fatalf("Demands() = %+v, want desired CPU %d", ds, int64(f.Desired)*spec.CPUMillis)
	}

	// Binding grant: the pool must shrink to the granted CPU.
	h.ctl.SetCapacityGrantsLeased(map[string]int64{spec.Name: 2000}, 0)
	if !h.ctl.GrantedExternally() {
		t.Error("GrantedExternally false after SetCapacityGrantsLeased")
	}
	h.offer(spec.Name, 40, 5*time.Second)
	h.step()
	if cpu := liveCPU(liveOf(h.cl, spec.Name)); cpu > 2000 {
		t.Errorf("live CPU %d under a 2000 mC grant", cpu)
	}

	// Pre-provisioning grant: the pool must grow past the model desire.
	h.ctl.SetCapacityGrantsLeased(map[string]int64{spec.Name: 9000}, 0)
	h.offer(spec.Name, 40, 5*time.Second)
	h.step()
	if live := len(liveOf(h.cl, spec.Name)); live < 9 {
		t.Errorf("%d live containers under a 9000 mC grant; want 9 (pre-provisioned)", live)
	}

	// An infeasible grant set is scaled to cluster capacity, not placed
	// blindly.
	h.ctl.SetCapacityGrantsLeased(map[string]int64{spec.Name: 50000}, 0)
	h.offer(spec.Name, 40, 5*time.Second)
	h.step()
	if cpu := liveCPU(liveOf(h.cl, spec.Name)); cpu > h.cl.TotalCPU() {
		t.Errorf("live CPU %d exceeds cluster capacity %d", cpu, h.cl.TotalCPU())
	}

	// Back to local allocation: the pool returns toward the model desire
	// (surplus drains lazily, so live count falls to the desire after the
	// drain TTL).
	h.ctl.SetCapacityGrantsLeased(nil, 0)
	if h.ctl.GrantedExternally() {
		t.Error("GrantedExternally after clearing grants")
	}
	h.offer(spec.Name, 40, 5*time.Second)
	h.step()
	h.now += drainTTL
	h.offer(spec.Name, 40, 5*time.Second)
	h.step()
	f, _ = h.ctl.Function(spec.Name)
	if live := len(liveOf(h.cl, spec.Name)); live > f.Desired+1 {
		t.Errorf("%d live containers after restoring local allocation; desire %d", live, f.Desired)
	}
}

// TestExternalGrantsKeepHeadroomSignal verifies the demand-derived
// headroom signal is unchanged by external grants: it still reflects
// capacity minus model desire, so the federation's placement layer reads
// the same overload signal in both modes.
func TestExternalGrantsKeepHeadroomSignal(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	spec := mustSpec(t, "squeezenet")
	if _, err := h.ctl.Register(spec, "", 1, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	h.ctl.SetCapacityGrantsLeased(map[string]int64{spec.Name: 1000}, 0)
	h.offer(spec.Name, 800, 5*time.Second)
	h.step()
	if !h.ctl.Overloaded() {
		t.Error("offered 800 req/s: demand-derived headroom should be negative under grants too")
	}
}

// TestGrantLeaseExpiryRestoresLocalPath is the controller-level lease
// test, built on the same harness the PR 3 external-grant equivalence
// tests use: a binding grant with a finite lease shrinks the pool, the
// lease lapses without renewal, and from that Step on the controller is
// bit-for-bit the local-enforcement controller again — same
// GrantedExternally signal, same live pool, same headroom as a twin
// controller that was never granted, fed identical arrivals.
func TestGrantLeaseExpiryRestoresLocalPath(t *testing.T) {
	spec := mustSpec(t, "squeezenet")
	mk := func() *harness {
		h := newHarness(t, Config{}, cluster.PaperCluster())
		if _, err := h.ctl.Register(spec, "", 1, queuing.SLO{}); err != nil {
			t.Fatal(err)
		}
		return h
	}
	granted, local := mk(), mk()

	// Epoch 1: identical load; the granted twin gets a binding 2000 mC
	// grant leased for 4s — lapsing before the next 5s epoch.
	for _, h := range []*harness{granted, local} {
		h.offer(spec.Name, 40, 5*time.Second)
	}
	granted.ctl.SetCapacityGrantsLeased(map[string]int64{spec.Name: 2000}, 4*time.Second)
	for _, h := range []*harness{granted, local} {
		h.step()
	}
	if !granted.ctl.GrantedExternally() {
		t.Fatal("lease not yet expired but GrantedExternally is false")
	}
	if cpu := liveCPU(liveOf(granted.cl, spec.Name)); cpu > 2000 {
		t.Fatalf("binding leased grant not enforced: %d mC live", cpu)
	}
	if cpuL := liveCPU(liveOf(local.cl, spec.Name)); cpuL <= 2000 {
		t.Fatalf("local twin unexpectedly small (%d mC); the grant was not binding", cpuL)
	}

	// Epoch 2: both clocks pass the t=9s deadline with no renewal. The
	// next Step must expire the lease and enforce locally.
	for _, h := range []*harness{granted, local} {
		h.offer(spec.Name, 40, 5*time.Second)
		h.step()
	}
	if granted.ctl.GrantedExternally() {
		t.Error("GrantedExternally still true after the lease lapsed")
	}
	if got := granted.ctl.Stats().GrantLeaseExpiries; got != 1 {
		t.Errorf("GrantLeaseExpiries = %d, want 1", got)
	}
	// Bit-for-bit the local path again: identical estimator state implies
	// identical desires, and post-expiry enforcement must rebuild the
	// identical live pool.
	gf, _ := granted.ctl.Function(spec.Name)
	lf, _ := local.ctl.Function(spec.Name)
	if gf.Desired != lf.Desired || gf.LambdaHat != lf.LambdaHat {
		t.Errorf("post-expiry model state diverged: desired %d/%d lambda %v/%v",
			gf.Desired, lf.Desired, gf.LambdaHat, lf.LambdaHat)
	}
	if g, l := liveCPU(liveOf(granted.cl, spec.Name)), liveCPU(liveOf(local.cl, spec.Name)); g != l {
		t.Errorf("post-expiry live pool %d mC != never-granted twin %d mC", g, l)
	}
	if g, l := granted.ctl.Headroom(), local.ctl.Headroom(); g != l {
		t.Errorf("post-expiry headroom %d != never-granted twin %d", g, l)
	}

	// A renewal before the deadline keeps the lease alive: the expiry
	// check is against the latest deadline, not the first.
	h := mk()
	h.offer(spec.Name, 40, 5*time.Second)
	h.ctl.SetCapacityGrantsLeased(map[string]int64{spec.Name: 2000}, 4*time.Second)
	h.step()
	h.now += 3 * time.Second
	h.ctl.SetCapacityGrantsLeased(map[string]int64{spec.Name: 2000}, 4*time.Second)
	if h.ctl.ExpireGrantLease() {
		t.Error("ExpireGrantLease dropped a just-renewed lease")
	}
	h.now += 3 * time.Second // past the first deadline, inside the renewed one
	if h.ctl.ExpireGrantLease() {
		t.Error("ExpireGrantLease honoured the stale first deadline over the renewal")
	}
	h.now += 2 * time.Second // past the renewed deadline
	if !h.ctl.ExpireGrantLease() {
		t.Error("ExpireGrantLease kept a lapsed renewed lease")
	}
	if h.ctl.GrantedExternally() {
		t.Error("grants survived an explicit expiry")
	}
}
