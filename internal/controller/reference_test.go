package controller

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/fairshare"
	"lass/internal/functions"
	"lass/internal/queuing"
	"lass/internal/xrand"
)

// referenceStep is the controller's epoch as it stood with two enforcement
// paths — local fair share and external grants — frozen so that
// TestStepMatchesReference and FuzzStepMatchesReference can hold the one
// enforcement path to it. It shares estimate, expireDrained, the lease
// check and the pool mechanics (shrinkTo, growTo, reconcileNormal) with
// the live code; everything that decides which function gets what, and
// which of those mechanics runs, is copied here. The copies are verbatim
// except that referenceGrantTargets allocates where grantTargets reuses
// scratch, and reads the grants by registration position, and that
// referenceDemands lists the demands estimate used to return.
func referenceStep(ctl *Controller) error {
	if err := ctl.estimate(); err != nil {
		return err
	}
	demands := referenceDemands(ctl)
	ctl.ExpireGrantLease()
	if ctl.grants != nil {
		return referenceEnforceGrants(ctl, demands)
	}
	return referenceEnforceLocal(ctl, demands)
}

// referenceDemands lists each function's model-desired CPU and weight in
// registration order, as estimate returned them when it built the slice.
func referenceDemands(ctl *Controller) []fairshare.Demand {
	var demands []fairshare.Demand
	for _, f := range ctl.order {
		demands = append(demands, fairshare.Demand{
			ID:      f.Spec.Name,
			Weight:  f.Weight,
			Desired: int64(f.Desired) * f.Spec.CPUMillis,
		})
	}
	return demands
}

// referenceEnforceLocal is the paper's enforcement path: detect overload
// against the local cluster capacity, adjust via fair share, and reconcile
// each function's pool using the configured reclamation policy.
func referenceEnforceLocal(ctl *Controller, demands []fairshare.Demand) error {
	now := ctl.hooks.Now()
	var totalDesired int64
	for _, d := range demands {
		totalDesired += d.Desired
	}

	// 3. Expire lazily-drained containers past their TTL.
	ctl.expireDrained(now)

	capacity := ctl.cluster.TotalCPU()
	ctl.headroom = capacity - totalDesired
	if totalDesired <= capacity {
		// No resource pressure: grant everyone their desire (§3.3).
		for _, f := range ctl.order {
			if err := ctl.reconcileNormal(f, f.Desired); err != nil {
				return err
			}
		}
		return nil
	}

	// 4. Overload: weighted fair share (§4.1), hierarchical when users
	// are registered (§5), then policy-based reclamation (§4.2).
	ctl.stats.Overloads++
	grants, err := referenceFairShares(ctl, demands, capacity)
	if err != nil {
		return err
	}
	// Reclaim first (free capacity), then grow into the freed space.
	for _, f := range ctl.order {
		if err := ctl.shrinkTo(f, grants[f.Spec.Name]); err != nil {
			return err
		}
	}
	for _, f := range ctl.order {
		if err := ctl.growTo(f, grants[f.Spec.Name]); err != nil {
			return err
		}
	}
	return nil
}

// referenceGrantTargets computes the per-function CPU targets the
// external-grant path enforces: each function's target is its grant,
// floored at MinContainers' worth of CPU. An infeasible target set
// (summing beyond cluster capacity) is scaled down by one local capped
// adjustment.
func referenceGrantTargets(ctl *Controller, demands []fairshare.Demand, capacity int64) (map[string]int64, error) {
	targets := make(map[string]int64, len(demands))
	var totalTarget int64
	for i, d := range demands {
		t := ctl.grants[i]
		if t < 0 {
			t = 0
		}
		if f := ctl.funcs[d.ID]; f != nil {
			if min := int64(ctl.cfg.MinContainers) * f.Spec.CPUMillis; t < min {
				t = min
			}
		}
		targets[d.ID] = t
		totalTarget += t
	}
	if totalTarget > capacity {
		var feasible []fairshare.Demand
		for _, d := range demands {
			feasible = append(feasible, fairshare.Demand{ID: d.ID, Weight: d.Weight, Desired: targets[d.ID]})
		}
		allocs, err := fairshare.AdjustCapped(feasible, capacity)
		if err != nil {
			return nil, err
		}
		for _, a := range allocs {
			targets[a.ID] = a.Adjusted
		}
	}
	return targets, nil
}

// referenceEnforceGrants reconciles every function toward its
// externally-imposed CPU grant. A grant below the model desire is binding
// (immediate reclamation, then growth into the grant); a grant at or above
// the desire reconciles normally, growing past the model count when the
// grant pre-provisions capacity.
func referenceEnforceGrants(ctl *Controller, demands []fairshare.Demand) error {
	now := ctl.hooks.Now()
	var totalDesired int64
	for _, d := range demands {
		totalDesired += d.Desired
	}
	ctl.expireDrained(now)

	capacity := ctl.cluster.TotalCPU()
	ctl.headroom = capacity - totalDesired

	targets, err := referenceGrantTargets(ctl, demands, capacity)
	if err != nil {
		return err
	}
	bound := false
	for _, d := range demands {
		if targets[d.ID] < d.Desired {
			bound = true
			break
		}
	}
	if bound {
		ctl.stats.Overloads++
	}
	// Reclaim grant-bound pools first (freeing capacity), then grow.
	for _, f := range ctl.order {
		if targets[f.Spec.Name] < int64(f.Desired)*f.Spec.CPUMillis {
			if err := ctl.shrinkTo(f, targets[f.Spec.Name]); err != nil {
				return err
			}
		}
	}
	for _, f := range ctl.order {
		desired := int64(f.Desired) * f.Spec.CPUMillis
		if targets[f.Spec.Name] < desired {
			if err := ctl.growTo(f, targets[f.Spec.Name]); err != nil {
				return err
			}
			continue
		}
		want := f.Desired
		if w := int(targets[f.Spec.Name] / f.Spec.CPUMillis); w > want {
			want = w // pre-provision toward the granted container count
		}
		if err := ctl.reconcileNormal(f, want); err != nil {
			return err
		}
	}
	return nil
}

// referenceFairShares computes each function's adjusted CPU grant. With
// registered users it builds the two-level tree of §5; otherwise a flat
// adjustment.
func referenceFairShares(ctl *Controller, demands []fairshare.Demand, capacity int64) (map[string]int64, error) {
	hierarchical := false
	for _, f := range ctl.order {
		if f.User != "" {
			hierarchical = true
			break
		}
	}
	if !hierarchical {
		allocs, err := fairshare.AdjustCapped(demands, capacity)
		if err != nil {
			return nil, err
		}
		out := make(map[string]int64, len(allocs))
		for _, a := range allocs {
			out[a.ID] = a.Adjusted
		}
		return out, nil
	}
	// Two-level tree: users (weighted) → functions (weighted).
	root := &fairshare.Node{ID: "::cluster"}
	userNodes := make(map[string]*fairshare.Node)
	demandOf := make(map[string]int64, len(demands))
	for _, d := range demands {
		demandOf[d.ID] = d.Desired
	}
	for _, f := range ctl.order {
		user := f.User
		if user == "" {
			user = "::default"
		}
		un := userNodes[user]
		if un == nil {
			w := ctl.users[f.User]
			if f.User == "" || w == 0 {
				w = 1
			}
			un = &fairshare.Node{ID: "::user:" + user, Weight: w}
			userNodes[user] = un
			root.Children = append(root.Children, un)
		}
		un.Children = append(un.Children, &fairshare.Node{
			ID:      f.Spec.Name,
			Weight:  f.Weight,
			Desired: demandOf[f.Spec.Name],
		})
	}
	var s fairshare.Scratch
	if err := s.ValidateTree(root); err != nil {
		return nil, err
	}
	grants, err := s.DivideTreeInto(root, capacity, true, nil)
	if err != nil {
		return nil, err
	}
	// Key the grants, which come in leaf preorder, by leaf ID.
	out := make(map[string]int64, len(grants))
	for _, un := range root.Children {
		for _, leaf := range un.Children {
			out[leaf.ID], grants = grants[0], grants[1:]
		}
	}
	return out, nil
}

// progReader hands out a differential program's bytes, then zeros once
// they run out, so every byte string is a valid program.
type progReader struct {
	b []byte
	i int
}

func (r *progReader) more() bool { return r.i < len(r.b) }

func (r *progReader) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return v
}

// programCover counts what one differential program exercised, so the
// seeded test can insist its programs reach every path they claim to.
type programCover struct {
	overloads, leaseExpiries, deflations, terminations    uint64
	users, termination, minContainers, noInflate, delayed bool
	infeasible, zero, above, cleared                      int
}

func (c *programCover) add(o programCover) {
	c.overloads += o.overloads
	c.leaseExpiries += o.leaseExpiries
	c.deflations += o.deflations
	c.terminations += o.terminations
	c.users = c.users || o.users
	c.termination = c.termination || o.termination
	c.minContainers = c.minContainers || o.minContainers
	c.noInflate = c.noInflate || o.noInflate
	c.delayed = c.delayed || o.delayed
	c.infeasible += o.infeasible
	c.zero += o.zero
	c.above += o.above
	c.cleared += o.cleared
}

// runStepProgram decodes prog into a controller configuration, a function
// set and an epoch script, and drives two twin controllers on twin
// clusters through it: one with Step, one with referenceStep. After every
// epoch it fails t unless both left the same pools (container ID, state
// and CPU), counters, headroom, desires and error text, and unless each
// twin's pools are exactly the containers it created and has not
// terminated (checkPools). The script runs until its bytes run out, for at
// most epochs epochs.
//
// Byte 0 picks the configuration (bit 0 Termination, bit 1 MinContainers
// 2, bit 2 NoInflateOnSlack, bit 3 delayed cold starts, bit 4 users, bit 5
// NoBurstDetection), byte 1 the cluster shape and function count; then two
// bytes per function (catalog entry and user; service time and weight).
// The script is a list of segments: an op byte (bits 0-2 the grant action,
// bits 3-4 which pending cold starts complete before each epoch, bits 5-7
// how many epochs the segment holds, 1-8), one rate byte per function, and
// one grant byte per function when the action sets grants.
func runStepProgram(t *testing.T, prog []byte, epochs int) programCover {
	t.Helper()
	r := &progReader{b: prog}
	h0, h1 := r.next(), r.next()
	var cov programCover
	cfg := Config{}
	if h0&1 != 0 {
		cfg.Policy, cov.termination = Termination, true
	}
	if h0&2 != 0 {
		cfg.MinContainers, cov.minContainers = 2, true
	}
	cfg.NoInflateOnSlack, cov.noInflate = h0&4 != 0, h0&4 != 0
	cov.delayed, cov.users = h0&8 != 0, h0&16 != 0
	cfg.NoBurstDetection = h0&32 != 0
	clCfg := cluster.Config{
		Nodes:      1 + int(h1%3),
		CPUPerNode: 2000 + 1000*int64(h1/3%3),
		MemPerNode: 16384,
		Policy:     cluster.PlacementPolicy(h1 / 9 % 3),
	}
	twins := [2]*harness{newHarness(t, cfg, clCfg), newHarness(t, cfg, clCfg)}
	steps := [2]func(*Controller) error{(*Controller).Step, referenceStep}

	users := []string{"", "alpha", "beta"}
	if cov.users {
		for i, u := range users[1:] {
			for _, h := range twins {
				if err := h.ctl.RegisterUser(u, float64(1+2*i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	catalog := functions.Catalog()
	var names []string
	used := make(map[string]bool)
	for nFuncs := 1 + int(h1/27%4); len(names) < nFuncs; {
		b, c := r.next(), r.next()
		at := int(b) % len(catalog)
		for used[catalog[at].Name] {
			at = (at + 1) % len(catalog)
		}
		// Slow service keeps arrivals per epoch in the tens, so a program
		// runs in about a millisecond; the container sizes stay the
		// catalog's.
		spec := catalog[at]
		spec.MeanServiceTime = time.Duration(1+c%4) * 250 * time.Millisecond
		used[spec.Name] = true
		user := ""
		if cov.users {
			user = users[int(b>>3)%len(users)]
		}
		for _, h := range twins {
			if _, err := h.ctl.Register(spec, user, float64(1+c>>2%4), queuing.SLO{}); err != nil {
				t.Fatal(err)
			}
			h.instant = !cov.delayed
		}
		names = append(names, spec.Name)
	}

	interval := twins[0].ctl.Config().EvalInterval
	rates := make([]float64, len(names))
	for e := 0; e < epochs && r.more(); {
		op := r.next()
		for i, name := range names {
			f, _ := twins[0].ctl.Function(name)
			rates[i] = float64(r.next()%64) * f.Spec.ServiceRate() / 8
		}
		switch op % 8 {
		case 4, 5:
			cov.add(setProgramGrants(r, twins, names, op%8 == 5))
		case 6:
			if twins[0].ctl.GrantedExternally() {
				cov.cleared++
			}
			for _, h := range twins {
				h.ctl.SetCapacityGrantsLeased(nil, 0)
			}
		}
		for hold := 1 + int(op>>5); hold > 0 && e < epochs; hold, e = hold-1, e+1 {
			for _, h := range twins {
				switch op >> 3 % 4 {
				case 0, 3: // every pending cold start completes
					for _, ready := range h.pending {
						ready()
					}
					h.pending = h.pending[:0]
				case 2: // the older half completes
					half := len(h.pending) / 2
					for _, ready := range h.pending[:half] {
						ready()
					}
					h.pending = append(h.pending[:0], h.pending[half:]...)
				}
				feedEpoch(h, names, rates, interval)
			}
			compareTwins(t, e, twins, steps, names)
		}
	}
	st := twins[0].ctl.Stats()
	cov.overloads, cov.leaseExpiries = st.Overloads, st.GrantLeaseExpiries
	cov.deflations, cov.terminations = st.Deflations, st.Terminations
	return cov
}

// setProgramGrants reads one grant byte per function and imposes the same
// grants on both twins: zero, half the desire, the desire, or above it.
// The desires are twin 0's; the twins agree on them as long as
// compareTwins keeps passing. A leased set lapses after 4-32 s, read from
// the first grant byte.
func setProgramGrants(r *progReader, twins [2]*harness, names []string, leased bool) programCover {
	var cov programCover
	grants := make([]int64, len(names))
	var sum int64
	lease := time.Duration(0)
	for i, name := range names {
		f, _ := twins[0].ctl.Function(name)
		desired := int64(f.Desired) * f.Spec.CPUMillis
		g := r.next()
		if i == 0 && leased {
			lease = time.Duration(1+g>>5) * 4 * time.Second
		}
		switch g % 4 {
		case 0:
			grants[i] = 0
			cov.zero++
		case 1:
			grants[i] = desired / 2
		case 2:
			grants[i] = desired
		case 3:
			grants[i] = 2*desired + f.Spec.CPUMillis
			cov.above++
		}
		sum += grants[i]
	}
	if sum > twins[0].cl.TotalCPU() {
		cov.infeasible++
	}
	for _, h := range twins {
		h.ctl.SetCapacityGrantsLeased(grants, lease)
	}
	return cov
}

// compareTwins steps both twins, Step on twins[0] and the reference on
// twins[1], and fails t at the first difference.
func compareTwins(t *testing.T, e int, twins [2]*harness, steps [2]func(*Controller) error, names []string) {
	t.Helper()
	var errs [2]string
	for i, h := range twins {
		if err := steps[i](h.ctl); err != nil {
			errs[i] = err.Error()
		}
	}
	if errs[0] != errs[1] {
		t.Fatalf("epoch %d: Step error %q, reference %q", e, errs[0], errs[1])
	}
	a, b := twins[0], twins[1]
	if a.ctl.Stats() != b.ctl.Stats() {
		t.Fatalf("epoch %d: stats %+v, reference %+v", e, a.ctl.Stats(), b.ctl.Stats())
	}
	if a.ctl.Headroom() != b.ctl.Headroom() {
		t.Fatalf("epoch %d: headroom %d, reference %d", e, a.ctl.Headroom(), b.ctl.Headroom())
	}
	for _, name := range names {
		fa, _ := a.ctl.Function(name)
		fb, _ := b.ctl.Function(name)
		if fa.Desired != fb.Desired {
			t.Fatalf("epoch %d: %s desired %d, reference %d", e, name, fa.Desired, fb.Desired)
		}
		if pa, pb := poolOf(a.fn(name).Containers()), poolOf(b.fn(name).Containers()); !slices.Equal(pa, pb) {
			t.Fatalf("epoch %d: %s pool %v, reference %v", e, name, pa, pb)
		}
	}
	if len(a.pending) != len(b.pending) {
		t.Fatalf("epoch %d: %d pending cold starts, reference %d", e, len(a.pending), len(b.pending))
	}
	for _, h := range twins {
		checkPools(t, e, h, names)
	}
}

// checkPools fails t unless each function's Containers() is exactly the
// containers h saw the controller create for it (through
// ScheduleColdStart) that are not terminated, in ID order, and the pools'
// CPU adds up to the cluster's.
func checkPools(t *testing.T, e int, h *harness, names []string) {
	t.Helper()
	byID := func(a, b *cluster.Container) int { return cmp.Compare(a.ID, b.ID) }
	var cpu int64
	for _, name := range names {
		var want []*cluster.Container
		for _, c := range h.created {
			if c.Function == name && c.State() != cluster.Terminated {
				want = append(want, c)
			}
		}
		got := h.fn(name).Containers()
		if !slices.Equal(got, want) || !slices.IsSortedFunc(got, byID) {
			t.Fatalf("epoch %d: %s pool %v, created and not terminated %v", e, name, poolOf(got), poolOf(want))
		}
		cpu += liveCPU(got)
	}
	if cpu != h.cl.UsedCPU() {
		t.Fatalf("epoch %d: pools hold %d mC, cluster uses %d", e, cpu, h.cl.UsedCPU())
	}
}

// feedEpoch records one epoch of arrivals, rates[i] per second for
// names[i], interleaved in 50 ms slots, and leaves the clock at the
// epoch's end.
func feedEpoch(h *harness, names []string, rates []float64, epoch time.Duration) {
	const slot = 50 * time.Millisecond
	start, slots := h.now, int(epoch/slot)
	for s := 0; s < slots; s++ {
		h.now = start + time.Duration(s)*slot
		for i, name := range names {
			total := rates[i] * epoch.Seconds()
			for n := int(total * float64(s) / float64(slots)); n < int(total*float64(s+1)/float64(slots)); n++ {
				h.ctl.RecordArrival(name)
			}
		}
	}
	h.now = start + epoch
}

// poolEntry is one container as the differential compares it.
type poolEntry struct {
	id    cluster.ContainerID
	state cluster.State
	cpu   int64
}

func poolOf(cs []*cluster.Container) []poolEntry {
	var out []poolEntry
	for _, c := range cs {
		out = append(out, poolEntry{c.ID, c.State(), c.CPUCurrent})
	}
	return out
}

// TestStepMatchesReference drives Step and the frozen two-path reference
// through seeded programs: rate swings into and out of overload; grants
// that are feasible, infeasible, zero or above desire; grants cleared and
// leases lapsing; with and without users; both reclamation policies;
// MinContainers 0 and 2; NoInflateOnSlack; delayed cold starts.
func TestStepMatchesReference(t *testing.T) {
	var cov programCover
	for seed := uint64(1); seed <= 16; seed++ {
		rng := xrand.New(seed)
		prog := make([]byte, 512)
		for i := range prog {
			prog[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			cov.add(runStepProgram(t, prog, 60))
		})
	}
	if !(cov.users && cov.termination && cov.minContainers && cov.noInflate && cov.delayed) {
		t.Errorf("programs missed a configuration: %+v", cov)
	}
	if cov.overloads == 0 || cov.leaseExpiries == 0 || cov.deflations == 0 || cov.terminations == 0 {
		t.Errorf("programs missed an enforcement path: %+v", cov)
	}
	if cov.infeasible == 0 || cov.zero == 0 || cov.above == 0 || cov.cleared == 0 {
		t.Errorf("programs missed a grant shape: %+v", cov)
	}
}

// FuzzStepMatchesReference is the same differential over fuzzer-chosen
// programs; testdata/fuzz/FuzzStepMatchesReference holds the seed corpus.
func FuzzStepMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		runStepProgram(t, prog, 60)
	})
}
