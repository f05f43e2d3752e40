package federation

import (
	"math"
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/core"
	"lass/internal/functions"
	"lass/internal/workload"
)

// detSpec is a deterministic-service-time function (SCV 0), so cloud
// response times are exact: 2×CloudRTT + optional cold start + mean.
func detSpec(mean time.Duration) functions.Spec {
	return functions.Spec{
		Name: "det", Language: "Go", CPUMillis: 1000, MemoryMiB: 512,
		MeanServiceTime: mean, SCV: 0, Slack: 0.25,
		ColdStart: 400 * time.Millisecond, Weight: 1,
	}
}

// shedAllSite builds a site whose cluster cannot host a single container,
// so every arrival is shed by the placement layer.
func shedAllSite(t *testing.T, spec functions.Spec, rate float64, seed uint64, timeLimit time.Duration) core.Config {
	t.Helper()
	wl, err := workload.NewStatic(rate)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Cluster: cluster.Config{Nodes: 1, CPUPerNode: 100, MemPerNode: 64, Policy: cluster.WorstFit},
		Seed:    seed,
		Functions: []core.FunctionConfig{{
			Spec: spec, Workload: wl, TimeLimit: timeLimit,
		}},
	}
}

// TestCloudColdStartAndWarmReuse pins the warm-pool model: the first
// request after idle pays the function's cold start behind the cloud RTT,
// subsequent requests within the warm window are served warm, and the
// accrued cost matches the configured price points exactly.
func TestCloudColdStartAndWarmReuse(t *testing.T) {
	spec := detSpec(50 * time.Millisecond)
	fed, err := New(Config{
		Sites:  []core.Config{shedAllSite(t, spec, 2, 9, 0)},
		Placer: cloudOnlyPlacer{},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sites[0]
	if s.OffloadedCloud == 0 {
		t.Fatalf("nothing offloaded to the cloud: %+v", s)
	}
	if s.CloudColdStarts == 0 {
		t.Error("no cloud cold starts: the first request after idle must pay one")
	}
	if s.CloudColdStarts >= s.OffloadedCloud {
		t.Errorf("every request cold-started (%d/%d): the warm window is not reusing instances",
			s.CloudColdStarts, s.OffloadedCloud)
	}
	// SCV 0 makes response times exact: warm = 2×50ms RTT + 50ms = 150ms,
	// cold = warm + 400ms cold start = 550ms.
	const eps = 1e-9
	if got := s.Responses.Min(); math.Abs(got-0.150) > eps {
		t.Errorf("warm cloud response %.6fs, want 0.150s", got)
	}
	if got := s.Responses.Max(); math.Abs(got-0.550) > eps {
		t.Errorf("cold cloud response %.6fs, want 0.550s", got)
	}
	// Cost accrues per offload at the default price points: invocation
	// price plus 50ms of billed execution at 0.5 GB.
	perReq := defaultCloudPricePerInvocation + 0.050*defaultCloudPricePerGBSecond*0.5
	want := float64(s.OffloadedCloud) * perReq
	if math.Abs(s.CloudCost-want) > 1e-12 {
		t.Errorf("cloud cost %.12f, want %.12f (%d offloads)", s.CloudCost, want, s.OffloadedCloud)
	}
	if res.CloudColdStarts != s.CloudColdStarts || math.Abs(res.CloudCost-s.CloudCost) > 1e-12 {
		t.Errorf("aggregate cloud counters %d/%f != site %d/%f",
			res.CloudColdStarts, res.CloudCost, s.CloudColdStarts, s.CloudCost)
	}
}

// TestCloudNoKeepAlive pins the negative-warm-window semantics: with no
// keep-alive, every cloud offload pays a cold start.
func TestCloudNoKeepAlive(t *testing.T) {
	spec := detSpec(50 * time.Millisecond)
	fed, err := New(Config{
		Sites:           []core.Config{shedAllSite(t, spec, 2, 9, 0)},
		Placer:          cloudOnlyPlacer{},
		CloudWarmWindow: -1,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sites[0]
	if s.OffloadedCloud == 0 || s.CloudColdStarts != s.OffloadedCloud {
		t.Errorf("no-keep-alive cloud cold-started %d of %d offloads; want all",
			s.CloudColdStarts, s.OffloadedCloud)
	}
}

// TestZeroColdStartSpecRestoresLegacyModel checks the idealized cloud: a
// function whose Spec.ColdStart is zero never cold-starts there, and every
// response is exactly 2×RTT + service.
func TestZeroColdStartSpecRestoresLegacyModel(t *testing.T) {
	spec := detSpec(50 * time.Millisecond)
	spec.ColdStart = 0
	fed, err := New(Config{
		Sites:  []core.Config{shedAllSite(t, spec, 2, 9, 0)},
		Placer: cloudOnlyPlacer{},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sites[0]
	if s.CloudColdStarts != 0 {
		t.Errorf("zero-cold-start function cold-started %d times", s.CloudColdStarts)
	}
	const eps = 1e-9
	if got := s.Responses.Max(); s.Responses.Count() == 0 || math.Abs(got-0.150) > eps {
		t.Errorf("zero-cold-start response max %.6fs, want exactly 0.150s", got)
	}
	if s.CloudCost <= 0 {
		t.Error("a zero-cold-start cloud must still accrue cost")
	}
	// Negative prices are the explicit free tier: combined with a zero
	// cold start this is exactly the legacy idealized cloud.
	free, err := New(Config{
		Sites:                   []core.Config{shedAllSite(t, spec, 2, 9, 0)},
		Placer:                  cloudOnlyPlacer{},
		CloudPricePerInvocation: -1,
		CloudPricePerGBSecond:   -1,
		Seed:                    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := free.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := fres.Sites[0]; got.CloudCost != 0 || got.OffloadedCloud == 0 {
		t.Errorf("free-tier cloud accrued cost %.12f over %d offloads", got.CloudCost, got.OffloadedCloud)
	}
}

// TestCloudEnforcesTimeLimit covers the hard execution limit (§2.1) on the
// cloud path: a function whose service time exceeds its limit is killed in
// the cloud, never completes, and stays an SLO violation at the origin.
func TestCloudEnforcesTimeLimit(t *testing.T) {
	spec := detSpec(300 * time.Millisecond)
	fed, err := New(Config{
		Sites:  []core.Config{shedAllSite(t, spec, 2, 9, 100*time.Millisecond)},
		Placer: cloudOnlyPlacer{},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Sites[0]
	if s.OffloadedCloud == 0 {
		t.Fatalf("nothing offloaded to the cloud: %+v", s)
	}
	if s.CloudTimedOut != s.OffloadedCloud {
		t.Errorf("cloud killed %d of %d over-limit requests; all must be killed",
			s.CloudTimedOut, s.OffloadedCloud)
	}
	if s.Responses.Count() != 0 {
		t.Errorf("%d killed requests recorded responses", s.Responses.Count())
	}
	// Killed requests never complete, so they are all unresolved and all
	// count as violations — the origin is not flattered by the kills.
	if s.Unresolved < s.CloudTimedOut {
		t.Errorf("unresolved %d < cloud-killed %d", s.Unresolved, s.CloudTimedOut)
	}
	if s.Violations() < s.CloudTimedOut {
		t.Errorf("violations %d < cloud-killed %d", s.Violations(), s.CloudTimedOut)
	}
	if res.CloudTimedOut != s.CloudTimedOut {
		t.Errorf("aggregate CloudTimedOut %d != site %d", res.CloudTimedOut, s.CloudTimedOut)
	}
	// Billed execution truncates at the limit: 100ms, not 300ms.
	perReq := defaultCloudPricePerInvocation + 0.100*defaultCloudPricePerGBSecond*0.5
	want := float64(s.OffloadedCloud) * perReq
	if math.Abs(s.CloudCost-want) > 1e-12 {
		t.Errorf("cloud cost %.12f, want %.12f (billing must stop at the limit)", s.CloudCost, want)
	}
}

// TestPredictResponseDeflatedPool checks the placement predictor on a
// heterogeneous pool: with a standard and a half-size container attached,
// the predicted response must use the pool's aggregate (deflation-aware)
// service capacity, not the standard-size rate.
func TestPredictResponseDeflatedPool(t *testing.T) {
	site := staticSite(t, "squeezenet", 1, 5, cluster.PaperCluster())
	site.Functions[0].Prewarm = 0 // the pool is assembled by hand below
	fed, err := New(Config{Sites: []core.Config{site}, Placer: neverPlacer{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := fed.Sites[0]
	spec := site.Functions[0].Spec
	q := s.Platform.Queues[spec.Name]
	cl := s.Platform.Cluster
	// One standard container plus one deflated to half size.
	std, err := cl.Place(spec.Name, spec.CPUMillis, spec.MemoryMiB)
	if err != nil {
		t.Fatal(err)
	}
	defl, err := cl.PlaceDeflated(spec.Name, spec.CPUMillis, spec.CPUMillis/2, spec.MemoryMiB)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*cluster.Container{std, defl} {
		if err := cl.MarkRunning(c); err != nil {
			t.Fatal(err)
		}
		if err := q.AddContainer(c); err != nil {
			t.Fatal(err)
		}
	}
	capacity := spec.RateAt(1.0) + spec.RateAt(0.5)
	extraRTT := 10 * time.Millisecond
	want := extraRTT.Seconds() + (0+2)/capacity
	got := predictResponse(q, extraRTT.Seconds())
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("predictResponse on deflated pool = %.6fs, want %.6fs", got, want)
	}
	// The deflated pool must predict slower than a hypothetical pool of
	// two standard containers — the deflation penalty is the point.
	homog := extraRTT.Seconds() + 2/(2*spec.RateAt(1.0))
	if got <= homog {
		t.Errorf("deflated prediction %.6fs not above homogeneous %.6fs", got, homog)
	}
	// Unknown functions and empty pools are unplaceable.
	if v := predictResponse(s.Platform.Queues["ghost"], 0); !math.IsInf(v, 1) {
		t.Errorf("unknown function predicted %.6f, want +Inf", v)
	}
}

// TestCloudPoolConcurrencyCapFIFO pins the capped pool's arithmetic: at
// the cap a request waits exactly until the earliest-free instance hands
// over, hand-offs are warm (no cold start), and predictWait agrees with
// what acquire then charges.
func TestCloudPoolConcurrencyCapFIFO(t *testing.T) {
	p := &cloudPool{}
	const (
		run  = 100 * time.Millisecond
		cold = 50 * time.Millisecond
		warm = time.Minute
	)
	// First request provisions the only allowed instance: cold, no wait.
	wait, gotCold := p.acquire(0, run, cold, warm, 1)
	if wait != 0 || gotCold != cold {
		t.Fatalf("first acquire: wait=%v cold=%v want 0/%v", wait, gotCold, cold)
	}
	// busy until 150ms. A request at 10ms must wait 140ms and start warm.
	if w := p.predictWait(10*time.Millisecond, 1); w != 140*time.Millisecond {
		t.Errorf("predictWait = %v want 140ms", w)
	}
	wait, gotCold = p.acquire(10*time.Millisecond, run, cold, warm, 1)
	if wait != 140*time.Millisecond || gotCold != 0 {
		t.Errorf("capped acquire: wait=%v cold=%v want 140ms/0", wait, gotCold)
	}
	// Now busy until 250ms; FIFO means the next arrival queues behind both.
	wait, gotCold = p.acquire(20*time.Millisecond, run, cold, warm, 1)
	if wait != 230*time.Millisecond || gotCold != 0 {
		t.Errorf("second capped acquire: wait=%v cold=%v want 230ms/0", wait, gotCold)
	}
	// Uncapped pools never wait.
	if w := p.predictWait(20*time.Millisecond, 0); w != 0 {
		t.Errorf("uncapped predictWait = %v want 0", w)
	}
	// After the backlog drains, an idle warm instance is reused directly.
	wait, gotCold = p.acquire(time.Second, run, cold, warm, 1)
	if wait != 0 || gotCold != 0 {
		t.Errorf("post-drain acquire: wait=%v cold=%v want 0/0 (warm reuse)", wait, gotCold)
	}
}

// TestCloudConcurrencyCapCountsQueueWait: end to end, a throttled cloud
// queues offloads (CloudQueued counters) and the waits land in the
// observed response times.
func TestCloudConcurrencyCapCountsQueueWait(t *testing.T) {
	spec := detSpec(100 * time.Millisecond)
	build := func(cap int) *Federation {
		fed, err := New(Config{
			Sites:               []core.Config{shedAllSite(t, spec, 20, 7, 0)},
			Placer:              cloudOnlyPlacer{},
			CloudMaxConcurrency: cap,
			Seed:                13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}
	uncapped := build(0)
	ures, err := uncapped.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	capped := build(1)
	cres, err := capped.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ures.CloudQueued != 0 {
		t.Errorf("uncapped cloud queued %d", ures.CloudQueued)
	}
	if cres.CloudQueued == 0 {
		t.Fatal("capped cloud never queued at 20 req/s over a 1-instance, 10 req/s throttle")
	}
	up95 := ures.Sites[0].Responses.Quantile(0.95)
	cp95 := cres.Sites[0].Responses.Quantile(0.95)
	if cp95 <= up95 {
		t.Errorf("capped P95 %.3fs not above uncapped %.3fs: queue wait not in response time", cp95, up95)
	}
}
