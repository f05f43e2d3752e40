package core

import (
	"strings"
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/functions"
	"lass/internal/queuing"
	"lass/internal/workload"
)

func staticWL(t *testing.T, rate float64) *workload.Schedule {
	t.Helper()
	s, err := workload.NewStatic(rate)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFixedPoolMeetsSLO(t *testing.T) {
	// Mini Fig 3: provision the model-computed c for λ=30, μ=10, then
	// verify the measured P95 wait stays at/below the 100ms SLO.
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	spec.ColdStart = 0
	slo := queuing.SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	c, err := queuing.MinimalContainers(30, 10, slo)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Cluster: cluster.Config{Nodes: 4, CPUPerNode: 4000, MemPerNode: 16384},
		Seed:    1,
		Functions: []FunctionConfig{{
			Spec: spec, SLO: slo, Workload: staticWL(t, 30), Prewarm: c,
		}},
		DisableController: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Functions[spec.Name]
	if fr.Completed < 15000 {
		t.Fatalf("completed=%d want ~18000", fr.Completed)
	}
	p95 := fr.Waits.Quantile(0.95)
	if p95 > 0.110 {
		t.Errorf("P95 wait=%.4fs exceeds SLO 0.1s with model-sized pool (c=%d)", p95, c)
	}
	// One container fewer must violate (the model is tight).
	p2, err := New(Config{
		Cluster: cluster.Config{Nodes: 4, CPUPerNode: 4000, MemPerNode: 16384},
		Seed:    1,
		Functions: []FunctionConfig{{
			Spec: spec, SLO: slo, Workload: staticWL(t, 30), Prewarm: c - 2,
		}},
		DisableController: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p2.Run(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if p95small := res2.Functions[spec.Name].Waits.Quantile(0.95); p95small <= p95 {
		t.Errorf("c-2 pool P95=%.4fs not worse than model pool %.4fs", p95small, p95)
	}
}

func TestAutoScalingTracksLoad(t *testing.T) {
	// Mini Fig 6: load steps 5→30→5; the allocation must rise and fall.
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	wl, err := workload.NewSteps([]workload.Step{
		{Start: 0, Rate: 5},
		{Start: 5 * time.Minute, Rate: 30},
		{Start: 10 * time.Minute, Rate: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Cluster:    cluster.PaperCluster(),
		Controller: controller.Config{MinContainers: 1},
		Seed:       2,
		Functions:  []FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(15 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Functions[spec.Name]
	lowPhase := fr.Containers.ValueAt(4 * time.Minute)
	highPhase := fr.Containers.ValueAt(9 * time.Minute)
	endPhase := fr.Containers.ValueAt(14*time.Minute + 50*time.Second)
	if highPhase <= lowPhase {
		t.Errorf("allocation did not grow: low=%v high=%v", lowPhase, highPhase)
	}
	if endPhase >= highPhase {
		t.Errorf("allocation did not shrink back: high=%v end=%v", highPhase, endPhase)
	}
	if att := fr.SLO.Attainment(); att < 0.90 {
		t.Errorf("SLO attainment %.3f < 0.90 under autoscaling", att)
	}
}

func TestOverloadBothPoliciesKeepFairShare(t *testing.T) {
	// Mini Fig 8: two equal-weight functions overload a small cluster;
	// each must retain at least ~its guaranteed half.
	for _, policy := range []controller.ReclamationPolicy{controller.Termination, controller.Deflation} {
		mb, _ := functions.ByName("binaryalert")
		mobile, _ := functions.ByName("mobilenet-v2")
		p, err := New(Config{
			Cluster:    cluster.PaperCluster(),
			Controller: controller.Config{Policy: policy},
			Seed:       3,
			Functions: []FunctionConfig{
				{Spec: mb, Workload: staticWL(t, 120), Weight: 1},
				{Spec: mobile, Workload: staticWL(t, 25), Weight: 1},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(5 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		// Demands: binaryalert λ=120, μ=20 → ≥7 containers ≥ 3500mC;
		// mobilenet λ=25, μ=4 → ≥8 containers = 16000mC. Total >> 12000.
		end := 5*time.Minute - 10*time.Second
		mbCPU := res.Functions[mb.Name].CPU.ValueAt(end)
		moCPU := res.Functions[mobile.Name].CPU.ValueAt(end)
		if mbCPU < 3000 {
			t.Errorf("%v: binaryalert CPU=%v below its demand (well-behaved must get desire)", policy, mbCPU)
		}
		if moCPU < 5000 {
			t.Errorf("%v: mobilenet CPU=%v below guaranteed ~6000", policy, moCPU)
		}
		if res.ControllerOps.Overloads == 0 {
			t.Errorf("%v: overload never detected", policy)
		}
	}
}

func TestDeflationPolicyBeatsTerminationUtilization(t *testing.T) {
	// The headline Fig 8/9 comparison, miniaturized: deflation must not
	// lose to termination on mean cluster utilization.
	run := func(policy controller.ReclamationPolicy) float64 {
		mb, _ := functions.ByName("binaryalert")
		mobile, _ := functions.ByName("mobilenet-v2")
		p, err := New(Config{
			Cluster:    cluster.PaperCluster(),
			Controller: controller.Config{Policy: policy},
			Seed:       4,
			Functions: []FunctionConfig{
				{Spec: mb, Workload: staticWL(t, 120)},
				{Spec: mobile, Workload: staticWL(t, 25)},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(6 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res.Utilization
	}
	term := run(controller.Termination)
	defl := run(controller.Deflation)
	if defl < term-0.01 {
		t.Errorf("deflation utilization %.3f < termination %.3f", defl, term)
	}
}

func TestPlatformValidation(t *testing.T) {
	if _, err := New(Config{Cluster: cluster.Config{}}); err == nil {
		t.Error("want error for invalid cluster")
	}
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	if _, err := New(Config{
		Cluster:   cluster.PaperCluster(),
		Functions: []FunctionConfig{{Spec: spec}, {Spec: spec}},
	}); err == nil {
		t.Error("want error for duplicate function")
	}
	// Prewarm beyond cluster capacity fails fast.
	if _, err := New(Config{
		Cluster:   cluster.PaperCluster(),
		Functions: []FunctionConfig{{Spec: spec, Prewarm: 1000}},
	}); err == nil {
		t.Error("want error for impossible prewarm")
	}
}

// TestRunRejectsNonPositiveDuration: a zero or negative duration used to
// yield an all-zero result with SLO attainment 1.0 instead of an error.
func TestRunRejectsNonPositiveDuration(t *testing.T) {
	for _, d := range []time.Duration{0, -5 * time.Second} {
		p, err := New(Config{
			Cluster:   cluster.PaperCluster(),
			Functions: []FunctionConfig{{Spec: functions.MicroBenchmark(100 * time.Millisecond), Workload: staticWL(t, 10)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(d); err == nil || !strings.Contains(err.Error(), d.String()) {
			t.Errorf("Run(%v) returned %v, want an error naming the duration", d, err)
		}
	}
}

func TestColdStartsDelayFirstService(t *testing.T) {
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	spec.ColdStart = 2 * time.Second
	p, err := New(Config{
		Cluster:   cluster.PaperCluster(),
		Seed:      5,
		Functions: []FunctionConfig{{Spec: spec, Workload: staticWL(t, 10)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Functions[spec.Name]
	// The first requests arrive before any container exists (first Step
	// at 5s, cold start 2s): their waits include the provisioning delay.
	if max := fr.Waits.Max(); max < 5 {
		t.Errorf("max wait %.2fs; expected early requests to wait for first epoch+cold start", max)
	}
	if fr.Completed == 0 {
		t.Error("nothing completed")
	}
}

func TestDeterministicPlatformReplay(t *testing.T) {
	run := func() (uint64, float64) {
		spec := functions.MicroBenchmark(100 * time.Millisecond)
		p, err := New(Config{
			Cluster:   cluster.PaperCluster(),
			Seed:      42,
			Functions: []FunctionConfig{{Spec: spec, Workload: staticWL(t, 20), Prewarm: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(3 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		fr := res.Functions[spec.Name]
		return fr.Completed, fr.Waits.Quantile(0.95)
	}
	c1, w1 := run()
	c2, w2 := run()
	if c1 != c2 || w1 != w2 {
		t.Errorf("replay diverged: (%d,%v) vs (%d,%v)", c1, w1, c2, w2)
	}
}

func TestArrivalsCounted(t *testing.T) {
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	p, err := New(Config{
		Cluster:   cluster.PaperCluster(),
		Seed:      6,
		Functions: []FunctionConfig{{Spec: spec, Workload: staticWL(t, 10), Prewarm: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Functions[spec.Name]
	if fr.Arrivals < 400 || fr.Arrivals > 800 {
		t.Errorf("arrivals=%d want ~600", fr.Arrivals)
	}
	if fr.LambdaHat.Last() < 5 {
		t.Errorf("controller's final rate estimate %.1f too low", fr.LambdaHat.Last())
	}
}

// TestOnePeriodicEventPerEpoch is a host-independent floor on the
// platform's fixed cost: with no workload, a run of D fires one periodic
// event per evaluation interval — the controller step and the series sample
// share it — plus one cold-start event per container created, with the
// controller on or off.
func TestOnePeriodicEventPerEpoch(t *testing.T) {
	const d = 10 * time.Minute
	for _, disabled := range []bool{true, false} {
		spec := functions.MicroBenchmark(100 * time.Millisecond)
		p, err := New(Config{
			Cluster:           cluster.PaperCluster(),
			Controller:        controller.Config{EvalInterval: 5 * time.Second, MinContainers: 3},
			Functions:         []FunctionConfig{{Spec: spec, Prewarm: 2}},
			DisableController: disabled,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		creations := res.ControllerOps.Creations
		if want := uint64(d/(5*time.Second)) + creations; p.Engine.Fired() != want {
			t.Errorf("DisableController=%v: fired %d events, want %d (one per epoch + %d cold starts)",
				disabled, p.Engine.Fired(), want, creations)
		}
		wantCreations := uint64(3) // MinContainers tops the prewarmed pair up
		if disabled {
			wantCreations = 2
		}
		if creations != wantCreations {
			t.Errorf("DisableController=%v: %d creations, want %d", disabled, creations, wantCreations)
		}
		if n := len(res.Functions[spec.Name].Containers.Points); n != int(d/(5*time.Second))+2 {
			t.Errorf("DisableController=%v: %d container samples, want one per epoch plus start and end", disabled, n)
		}
	}
}
