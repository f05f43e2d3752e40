package federation

import (
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/core"
)

// TestOfferedLoadDemandMonotoneUnderShedding exercises the local-path
// offered-load knob (ControllerConfig.OfferedLoadDemand, the ROADMAP's
// demand-signal handoff): a site at 90 req/s against ~40 req/s of capacity
// sheds steadily to its peer, so without the knob its estimator sees only
// the kept arrivals (≈ the pool's drain rate) and reports less than half
// the offered demand. With the knob the estimator tracks the full
// offered load, and the overload signal, once raised, stays raised for the
// rest of the steady overload — monotone, no flapping.
func TestOfferedLoadDemandMonotoneUnderShedding(t *testing.T) {
	edge := cluster.Config{Nodes: 1, CPUPerNode: 4000, MemPerNode: 8192, Policy: cluster.WorstFit}
	run := func(offered bool) (meanLambda float64, signal []bool, shed uint64) {
		hot := staticSite(t, "squeezenet", 90, 33, edge)
		hot.Controller.OfferedLoadDemand = offered
		helper := staticSite(t, "squeezenet", 2, 44, cluster.PaperCluster())
		fed, err := New(Config{Sites: []core.Config{hot, helper}, Placer: nearestPeerPlacer{}, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ctl := fed.Sites[0].Platform.Controller
		var lambda []float64
		fed.Engine.Every(5*time.Second, func() {
			f, ok := ctl.Function("squeezenet")
			if !ok {
				t.Error("squeezenet not registered at the hot site")
				return
			}
			lambda = append(lambda, f.LambdaHat)
			signal = append(signal, ctl.Overloaded())
		})
		res, err := fed.Run(5 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		// Skip the first 30 simulated seconds: the estimator warms up and
		// the pool grows from its single prewarmed container.
		var sum float64
		for _, l := range lambda[6:] {
			sum += l
		}
		return sum / float64(len(lambda)-6), signal, res.Sites[0].OffloadedPeer + res.Sites[0].OffloadedCloud
	}

	withLambda, withSignal, withShed := run(true)
	withoutLambda, _, withoutShed := run(false)
	if withShed == 0 || withoutShed == 0 {
		t.Fatalf("scenario did not shed (with=%d without=%d); the knob is untested", withShed, withoutShed)
	}

	// The knob restores the offered-demand signal: ~90 req/s instead of
	// the kept ≈ drain rate (~40 req/s).
	if withLambda < 75 {
		t.Errorf("offered-load estimate %.1f req/s does not track the 90 req/s offered", withLambda)
	}
	if withoutLambda > withLambda/1.5 {
		t.Errorf("kept-only estimate %.1f req/s vs offered-load %.1f: shedding no longer hides demand?",
			withoutLambda, withLambda)
	}

	// Monotone overload signal: after the warmup transition it latches on
	// and never clears while the steady overload persists.
	raised := false
	for i, s := range withSignal {
		if s {
			raised = true
			continue
		}
		if raised {
			t.Fatalf("overload signal cleared at epoch %d despite steady 2.25x offered overload: %v", i, withSignal)
		}
	}
	if !raised {
		t.Fatal("overload signal never raised under 2.25x offered overload")
	}
}
