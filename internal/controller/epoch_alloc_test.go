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

// TestStepOverloadedSteadyStateZeroAllocs is the same contract under
// overload, where every Step divides the cluster by the §5 share tree: the
// tree is built at registration, so a Step only sets its leaf desires and
// divides into scratch. It holds with every function in the default
// namespace and with two weighted users.
func TestStepOverloadedSteadyStateZeroAllocs(t *testing.T) {
	for _, users := range []bool{false, true} {
		h := newHarness(t, Config{}, cluster.PaperCluster())
		if users {
			for i, u := range []string{"alice", "bob"} {
				if err := h.ctl.RegisterUser(u, float64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, fn := range []string{"geofence", "binaryalert", "squeezenet"} {
			user := ""
			if users {
				user = []string{"alice", "bob"}[i%2]
			}
			if _, err := h.ctl.Register(mustSpec(t, fn), user, 1, queuing.SLO{}); err != nil {
				t.Fatal(err)
			}
			h.offer(fn, 400, 2*time.Second)
		}
		for i := 0; i < 50; i++ {
			h.step()
		}
		if !h.ctl.Overloaded() {
			t.Fatalf("users=%v: 400 req/s on three functions does not overload the cluster", users)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := h.ctl.Step(); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("users=%v: overloaded Step allocated %.1f times per epoch; want 0", users, allocs)
		}
	}
}

// TestStepGrantedSteadyStateZeroAllocs is the same contract when the
// federation drives the targets: a grant vector delivered again each epoch
// is kept, not copied, and with feasible grants in place grantTargets and
// enforce reuse scratch too.
func TestStepGrantedSteadyStateZeroAllocs(t *testing.T) {
	h := steadyController(t)
	var grants []int64
	for _, d := range h.ctl.Demands() {
		grants = append(grants, d.DesiredCPU)
	}
	h.ctl.SetCapacityGrantsLeased(grants, 0)
	for i := 0; i < 10; i++ {
		h.step()
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.ctl.SetCapacityGrantsLeased(grants, 0)
		if err := h.ctl.Step(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-delivering grants and stepping allocated %.1f times per epoch; want 0", allocs)
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
// collapse, recovery) must compute exactly the container counts
// Algorithm 1's upward scan computes from the same inputs, which shares
// neither the warm search nor the sizing memo.
func TestWarmHintsMatchColdSizer(t *testing.T) {
	h := newHarness(t, Config{}, cluster.PaperCluster())
	f, err := h.ctl.Register(mustSpec(t, "geofence"), "", 1, queuing.SLO{})
	if err != nil {
		t.Fatal(err)
	}
	for i, rate := range []float64{20, 22, 200, 0, 0, 30, 400, 5} {
		h.offer("geofence", rate, 2*time.Second)
		h.step()
		cold, err := queuing.RequiredContainers(f.LambdaHat, f.Spec.ServiceRate(), f.SLO, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Desired != cold {
			t.Fatalf("swing %d (rate=%v): warm controller desired %d, cold sizer %d", i, rate, f.Desired, cold)
		}
	}
}
