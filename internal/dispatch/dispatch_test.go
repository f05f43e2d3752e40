package dispatch

import (
	"math"
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/functions"
	"lass/internal/sim"
	"lass/internal/xrand"
)

func testSetup(t *testing.T) (*sim.Engine, *cluster.Cluster, *Queue) {
	t.Helper()
	engine := sim.NewEngine()
	cl, err := cluster.New(cluster.PaperCluster())
	if err != nil {
		t.Fatal(err)
	}
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	q, err := NewQueue(engine, spec, 100*time.Millisecond, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return engine, cl, q
}

func addRunning(t *testing.T, cl *cluster.Cluster, q *Queue, cpu int64) *cluster.Container {
	t.Helper()
	c, err := cl.Place(q.Spec().Name, cpu, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.MarkRunning(c); err != nil {
		t.Fatal(err)
	}
	if err := q.AddContainer(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewQueueValidation(t *testing.T) {
	engine := sim.NewEngine()
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	if _, err := NewQueue(nil, spec, time.Second, xrand.New(1)); err == nil {
		t.Error("want error for nil engine")
	}
	if _, err := NewQueue(engine, spec, time.Second, nil); err == nil {
		t.Error("want error for nil rng")
	}
	bad := spec
	bad.CPUMillis = 0
	if _, err := NewQueue(engine, bad, time.Second, xrand.New(1)); err == nil {
		t.Error("want error for invalid spec")
	}
}

func TestSingleRequestLifecycle(t *testing.T) {
	engine, cl, q := testSetup(t)
	addRunning(t, cl, q, 400)
	r := q.Arrive()
	if q.InFlight() != 1 || q.QueueLength() != 0 {
		t.Errorf("inflight=%d queue=%d", q.InFlight(), q.QueueLength())
	}
	engine.Run()
	if q.Completed() != 1 {
		t.Errorf("completed=%d", q.Completed())
	}
	if r.Wait() != 0 {
		t.Errorf("wait=%v want 0 (idle container available)", r.Wait())
	}
	if r.Finish <= r.Start {
		t.Error("finish not after start")
	}
}

func TestRequestsQueueWhenAllBusy(t *testing.T) {
	engine, cl, q := testSetup(t)
	addRunning(t, cl, q, 400)
	q.Arrive()
	r2 := q.Arrive()
	if q.QueueLength() != 1 {
		t.Errorf("queue=%d want 1", q.QueueLength())
	}
	engine.Run()
	if q.Completed() != 2 {
		t.Errorf("completed=%d", q.Completed())
	}
	if r2.Wait() <= 0 {
		t.Errorf("queued request wait=%v want >0", r2.Wait())
	}
}

func TestAddContainerRequiresServable(t *testing.T) {
	_, cl, q := testSetup(t)
	c, _ := cl.Place(q.Spec().Name, 400, 256)
	if err := q.AddContainer(c); err == nil {
		t.Error("starting container must be rejected")
	}
	cl.MarkRunning(c)
	if err := q.AddContainer(c); err != nil {
		t.Fatal(err)
	}
	if err := q.AddContainer(c); err == nil {
		t.Error("duplicate attach must be rejected")
	}
	other, _ := cl.Place("other", 400, 256)
	cl.MarkRunning(other)
	if err := q.AddContainer(other); err == nil {
		t.Error("wrong-function container must be rejected")
	}
}

func TestRemoveContainerRequeuesInflight(t *testing.T) {
	engine, cl, q := testSetup(t)
	c := addRunning(t, cl, q, 400)
	r := q.Arrive()
	if q.InFlight() != 1 {
		t.Fatal("not in flight")
	}
	if err := q.RemoveContainer(c); err != nil {
		t.Fatal(err)
	}
	if q.Requeued() != 1 || r.Requeues != 1 {
		t.Errorf("requeued=%d r.Requeues=%d", q.Requeued(), r.Requeues)
	}
	if q.QueueLength() != 1 {
		t.Errorf("queue=%d want 1", q.QueueLength())
	}
	// New container picks the request back up and completes it.
	addRunning(t, cl, q, 400)
	engine.Run()
	if q.Completed() != 1 {
		t.Errorf("completed=%d", q.Completed())
	}
	if err := q.RemoveContainer(c); err == nil {
		t.Error("double remove must error")
	}
}

func TestRequeuedRequestKeepsArrivalTime(t *testing.T) {
	engine, cl, q := testSetup(t)
	c := addRunning(t, cl, q, 400)
	r := q.Arrive()
	engine.RunUntil(20 * time.Millisecond) // mid-service
	q.RemoveContainer(c)
	engine.RunUntil(50 * time.Millisecond)
	addRunning(t, cl, q, 400)
	engine.Run()
	if r.Wait() < 50*time.Millisecond {
		t.Errorf("rerun wait=%v should include the bounce delay", r.Wait())
	}
}

func TestWRRProportionalToCPU(t *testing.T) {
	// A 1000mC container should receive ~2x the requests of a 500mC one
	// when both are idle at selection time.
	engine, cl, q := testSetup(t)
	big := addRunning(t, cl, q, 400)
	small, err := cl.PlaceDeflated(q.Spec().Name, 400, 200, 256)
	if err != nil {
		t.Fatal(err)
	}
	cl.MarkRunning(small)
	if err := q.AddContainer(small); err != nil {
		t.Fatal(err)
	}
	counts := map[cluster.ContainerID]int{}
	q.OnComplete = func(frac float64, _ time.Duration) {
		if frac == 1.0 {
			counts[big.ID]++
		} else {
			counts[small.ID]++
		}
	}
	// Arrivals spaced far apart so both containers are idle each time.
	for i := 0; i < 3000; i++ {
		engine.Schedule(time.Duration(i)*time.Second, func() { q.Arrive() })
	}
	engine.Run()
	ratio := float64(counts[big.ID]) / float64(counts[small.ID])
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("big/small dispatch ratio %v want ~2 (counts %v)", ratio, counts)
	}
}

func TestDeflatedContainerServesSlower(t *testing.T) {
	engine, cl, q := testSetup(t)
	// One container deflated to 40% (below micro-benchmark slack 0.35 →
	// starved region).
	c := addRunning(t, cl, q, 400)
	cl.Resize(c, 160)
	q.Resized(c)
	var serviceSum time.Duration
	var n int
	q.OnComplete = func(_ float64, s time.Duration) { serviceSum += s; n++ }
	for i := 0; i < 2000; i++ {
		engine.Schedule(time.Duration(i)*time.Second, func() { q.Arrive() })
	}
	engine.Run()
	mean := (serviceSum / time.Duration(n)).Seconds()
	want := q.Spec().MeanServiceTimeAt(0.4).Seconds()
	if math.Abs(mean-want)/want > 0.1 {
		t.Errorf("deflated mean service %vs want ~%vs", mean, want)
	}
}

func TestWaitingTimeMatchesMMCTheory(t *testing.T) {
	// End-to-end statistical validation of the data path: drive an
	// M/M/c system at known λ, μ, c and compare the measured P(wait=0)
	// against Erlang-C. This is the simulation-side half of Fig 3.
	engine := sim.NewEngine()
	cl, _ := cluster.New(cluster.Config{Nodes: 10, CPUPerNode: 4000, MemPerNode: 16384})
	spec := functions.MicroBenchmark(100 * time.Millisecond) // mu=10
	q, err := NewQueue(engine, spec, 100*time.Millisecond, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	c := 6
	lambda := 40.0
	for i := 0; i < c; i++ {
		cc, err := cl.Place(spec.Name, spec.CPUMillis, spec.MemoryMiB)
		if err != nil {
			t.Fatal(err)
		}
		cl.MarkRunning(cc)
		q.AddContainer(cc)
	}
	// Poisson arrivals for 600 simulated seconds.
	rng := xrand.New(7)
	tt := time.Duration(0)
	for {
		tt += time.Duration(rng.Exp(lambda) * float64(time.Second))
		if tt > 600*time.Second {
			break
		}
		engine.Schedule(tt, func() { q.Arrive() })
	}
	engine.Run()
	// Theory: P(wait>0) = ErlangC(c=6, r=4) ≈ 0.2849? Compute directly.
	measured := 1 - q.Waits.FractionBelow(1e-9)
	// Erlang-C for lambda=40, mu=10, c=6:
	want := 0.285 // verified against the queuing package in its own tests
	if math.Abs(measured-want) > 0.03 {
		t.Errorf("P(wait>0)=%v want ~%v", measured, want)
	}
	// Mean wait should track Wq = C/(cμ-λ) = 0.285/20 ≈ 14ms.
	if m := q.Waits.Mean(); math.Abs(m-0.01425) > 0.004 {
		t.Errorf("mean wait %vs want ~0.014s", m)
	}
}

func TestSLOTrackerCountsWaits(t *testing.T) {
	engine, cl, q := testSetup(t)
	addRunning(t, cl, q, 400)
	for i := 0; i < 10; i++ {
		q.Arrive() // 9 of these will queue behind service times ~100ms
	}
	engine.Run()
	if q.SLO.Total() != 10 {
		t.Errorf("SLO observed %d", q.SLO.Total())
	}
	if q.SLO.Violations() == 0 {
		t.Error("deep queue behind one container should violate 100ms wait SLO")
	}
}

func TestIdleContainersCount(t *testing.T) {
	_, cl, q := testSetup(t)
	addRunning(t, cl, q, 400)
	addRunning(t, cl, q, 400)
	if q.IdleContainers() != 2 || q.Containers() != 2 {
		t.Errorf("idle=%d containers=%d", q.IdleContainers(), q.Containers())
	}
	q.Arrive()
	if q.IdleContainers() != 1 {
		t.Errorf("idle=%d want 1", q.IdleContainers())
	}
}

func TestHasContainer(t *testing.T) {
	_, cl, q := testSetup(t)
	c := addRunning(t, cl, q, 400)
	if !q.Has(c) {
		t.Error("Has=false for attached")
	}
	q.RemoveContainer(c)
	if q.Has(c) {
		t.Error("Has=true after removal")
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Two identical runs must produce identical waits — the property that
	// makes every experiment in the repo reproducible.
	run := func() []float64 {
		engine := sim.NewEngine()
		cl, _ := cluster.New(cluster.PaperCluster())
		spec := functions.MicroBenchmark(100 * time.Millisecond)
		q, _ := NewQueue(engine, spec, 100*time.Millisecond, xrand.New(5))
		for i := 0; i < 3; i++ {
			c, _ := cl.Place(spec.Name, spec.CPUMillis, spec.MemoryMiB)
			cl.MarkRunning(c)
			q.AddContainer(c)
		}
		rng := xrand.New(99)
		tt := time.Duration(0)
		var waits []float64
		for i := 0; i < 500; i++ {
			tt += time.Duration(rng.Exp(25) * float64(time.Second))
			engine.Schedule(tt, func() { q.Arrive() })
		}
		engine.Run()
		waits = append(waits, q.Waits.Mean(), q.Waits.Quantile(0.95), float64(q.Completed()))
		return waits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestOffloadHookDivertsArrival(t *testing.T) {
	engine, cl, q := testSetup(t)
	addRunning(t, cl, q, 1000)
	divert := false
	var offered *Request
	q.Offload = func(r *Request) bool {
		offered = r
		return divert
	}
	if r := q.Arrive(); r == nil {
		t.Fatal("declined request not enqueued")
	}
	if offered == nil {
		t.Fatal("hook not consulted")
	}
	divert = true
	if r := q.Arrive(); r != nil {
		t.Error("diverted request still enqueued")
	}
	if q.Offloaded() != 1 {
		t.Errorf("Offloaded=%d want 1", q.Offloaded())
	}
	engine.Run()
	// Only the locally-admitted request is measured.
	if q.Completed() != 1 || q.Waits.Count() != 1 {
		t.Errorf("completed=%d waits=%d want 1, 1", q.Completed(), q.Waits.Count())
	}
}

func TestArriveOffloadedBypassesHook(t *testing.T) {
	engine, cl, q := testSetup(t)
	addRunning(t, cl, q, 1000)
	q.Offload = func(*Request) bool { return true }
	if r := q.ArriveOffloaded(); r == nil {
		t.Fatal("offloaded arrival was diverted")
	}
	engine.Run()
	if q.Completed() != 1 {
		t.Errorf("completed=%d want 1", q.Completed())
	}
	if q.Offloaded() != 0 {
		t.Errorf("Offloaded=%d want 0", q.Offloaded())
	}
}

func TestRequestDoneFiresOnCompletion(t *testing.T) {
	engine, cl, q := testSetup(t)
	addRunning(t, cl, q, 1000)
	r := q.Arrive()
	var done *Request
	r.Done = func(r *Request) { done = r }
	engine.Run()
	if done != r {
		t.Fatal("Done callback did not fire with the completed request")
	}
	if done.Finish <= done.Arrival {
		t.Errorf("Finish %v not after Arrival %v", done.Finish, done.Arrival)
	}
}

func TestServiceCapacitySumsAttachedRates(t *testing.T) {
	_, cl, q := testSetup(t)
	if got := q.ServiceCapacity(); got != 0 {
		t.Errorf("empty queue capacity %v want 0", got)
	}
	addRunning(t, cl, q, 1000)
	addRunning(t, cl, q, 1000)
	// Two standard containers at 100ms mean service: 20 req/s.
	want := 2 * q.Spec().RateAt(1.0)
	if got := q.ServiceCapacity(); math.Abs(got-want) > 1e-9 {
		t.Errorf("capacity %v want %v", got, want)
	}
}
