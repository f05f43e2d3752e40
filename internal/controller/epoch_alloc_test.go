package controller

import (
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/queuing"
)

// steadyController builds a controller serving sustained load and runs
// epochs until the estimator, warm sizer, and pools have converged — the
// steady state a long-running site spends nearly all its time in.
func steadyController(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t, Config{}, cluster.PaperCluster())
	for _, fn := range []string{"geofence", "binaryalert", "squeezenet"} {
		if _, err := h.ctl.Register(mustSpec(t, fn), "", 1, queuing.SLO{}); err != nil {
			t.Fatal(err)
		}
		h.offer(fn, 30, 2*time.Second)
	}
	// Freeze the clock: every further epoch sees the same windows, so the
	// rate estimate converges and reconciliation becomes a no-op.
	for i := 0; i < 50; i++ {
		h.step()
	}
	return h
}

// TestStepSteadyStateZeroAllocs asserts the control plane's per-epoch cost
// in the steady state: estimate's demand slice, the warm-started sizer, and
// local enforcement all reuse controller-owned scratch, so an epoch whose
// demand is unchanged performs zero heap allocations.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	h := steadyController(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := h.ctl.Step(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocated %.1f times per epoch; want 0", allocs)
	}
}

// TestStepGrantedSteadyStateZeroAllocs is the same contract on the
// external-grant enforcement path the federation drives: with feasible
// grants in place, grantTargets and enforceGrants reuse scratch too.
func TestStepGrantedSteadyStateZeroAllocs(t *testing.T) {
	h := steadyController(t)
	grants := make(map[string]int64, 3)
	for _, d := range h.ctl.Demands() {
		grants[d.Name] = d.DesiredCPU
	}
	h.ctl.SetCapacityGrantsLeased(grants, 0)
	for i := 0; i < 10; i++ {
		h.step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := h.ctl.Step(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state granted Step allocated %.1f times per epoch; want 0", allocs)
	}
}

// TestDemandsZeroAllocs: the federation snapshots every site's demand
// report each alloc epoch; the report must not cost an allocation per call.
func TestDemandsZeroAllocs(t *testing.T) {
	h := steadyController(t)
	allocs := testing.AllocsPerRun(100, func() {
		if len(h.ctl.Demands()) != 3 {
			panic("unexpected demand count")
		}
	})
	if allocs != 0 {
		t.Fatalf("Demands allocated %.1f times per call; want 0", allocs)
	}
}

// TestWarmHintsMatchColdSizer pins the warm path end to end at the
// controller level: a controller stepping through a demand swing (burst,
// collapse, recovery) must compute exactly the container counts a
// hint-free controller computes from the same inputs.
func TestWarmHintsMatchColdSizer(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	f, err := h.ctl.Register(mustSpec(t, "geofence"), "", 1, queuing.SLO{})
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range []float64{20, 22, 200, 0, 0, 30, 400, 5} {
		h.offer("geofence", rate, 2*time.Second)
		h.step()
		cold, err := queuing.MinimalContainers(f.LambdaHat, f.Spec.ServiceRate(), f.SLO)
		if err != nil {
			t.Fatal(err)
		}
		if f.Desired != cold {
			t.Fatalf("swing %d (rate=%v): warm controller desired %d, cold sizer %d", i, rate, f.Desired, cold)
		}
	}
}
