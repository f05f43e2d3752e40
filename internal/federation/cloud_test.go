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
// response times are exact: 2×cloudRTT + optional cold start + mean.
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
// accrued cost matches the price points exactly.
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
	if got := s.Responses.Quantile(0); math.Abs(got-0.150) > eps {
		t.Errorf("warm cloud response %.6fs, want 0.150s", got)
	}
	if got := s.Responses.Max(); math.Abs(got-0.550) > eps {
		t.Errorf("cold cloud response %.6fs, want 0.550s", got)
	}
	// Cost accrues per offload at the default price points: invocation
	// price plus 50ms of billed execution at 0.5 GB.
	perReq := cloudPricePerInvocation + 0.050*cloudPricePerGBSecond*0.5
	want := float64(s.OffloadedCloud) * perReq
	if math.Abs(s.CloudCost-want) > 1e-12 {
		t.Errorf("cloud cost %.12f, want %.12f (%d offloads)", s.CloudCost, want, s.OffloadedCloud)
	}
	if res.CloudColdStarts != s.CloudColdStarts || math.Abs(res.CloudCost-s.CloudCost) > 1e-12 {
		t.Errorf("aggregate cloud counters %d/%f != site %d/%f",
			res.CloudColdStarts, res.CloudCost, s.CloudColdStarts, s.CloudCost)
	}
}

// TestCloudWarmWindowExpires pins the keep-alive window's end: an instance
// idle for longer than cloudWarmWindow is gone, so the first request after
// such a gap cold-starts again, while one idle for less is reused warm.
func TestCloudWarmWindowExpires(t *testing.T) {
	const run, cold = 50 * time.Millisecond, 400 * time.Millisecond
	p := &cloudPool{}
	if _, c := p.acquire(0, run, cold, 0); c != cold {
		t.Fatalf("first acquire cold = %v, want %v", c, cold)
	}
	idle := cold + run // the instance finishes here and starts idling
	if _, c := p.acquire(idle+cloudWarmWindow, run, cold, 0); c != 0 {
		t.Errorf("request at the last warm instant cold-started (%v)", c)
	}
	idle += cloudWarmWindow + run
	if _, c := p.acquire(idle+cloudWarmWindow+time.Nanosecond, run, cold, 0); c != cold {
		t.Errorf("request past the warm window paid cold = %v, want %v", c, cold)
	}
	if len(p.instances) != 1 {
		t.Errorf("pool kept %d instances; the expired one must be dropped", len(p.instances))
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
	perReq := cloudPricePerInvocation + 0.100*cloudPricePerGBSecond*0.5
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
// over, hand-offs are warm (no cold start), and delay agrees with what
// acquire then charges.
func TestCloudPoolConcurrencyCapFIFO(t *testing.T) {
	p := &cloudPool{}
	const (
		run  = 100 * time.Millisecond
		cold = 50 * time.Millisecond
	)
	// First request provisions the only allowed instance: cold, no wait.
	wait, gotCold := p.acquire(0, run, cold, 1)
	if wait != 0 || gotCold != cold {
		t.Fatalf("first acquire: wait=%v cold=%v want 0/%v", wait, gotCold, cold)
	}
	// busy until 150ms. A request at 10ms must wait 140ms and start warm.
	if d := p.delay(10*time.Millisecond, cold, 1); d != 140*time.Millisecond {
		t.Errorf("delay = %v want 140ms", d)
	}
	wait, gotCold = p.acquire(10*time.Millisecond, run, cold, 1)
	if wait != 140*time.Millisecond || gotCold != 0 {
		t.Errorf("capped acquire: wait=%v cold=%v want 140ms/0", wait, gotCold)
	}
	// Now busy until 250ms; FIFO means the next arrival queues behind both.
	wait, gotCold = p.acquire(20*time.Millisecond, run, cold, 1)
	if wait != 230*time.Millisecond || gotCold != 0 {
		t.Errorf("second capped acquire: wait=%v cold=%v want 230ms/0", wait, gotCold)
	}
	// Uncapped pools never wait: a busy pool grows by a cold instance.
	if d := p.delay(20*time.Millisecond, cold, 0); d != cold {
		t.Errorf("uncapped delay = %v want the %v cold start", d, cold)
	}
	// After the backlog drains, an idle warm instance is reused directly.
	wait, gotCold = p.acquire(time.Second, run, cold, 1)
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

// FuzzCloudPool drives one cloud pool with byte-decoded arrival programs
// and holds the pool to its contract before every acquire: the predicted
// delay is exactly what acquire then charges, a request pays a queue wait
// or a cold start but never both, a capped pool never holds more live
// instances than its cap, and requests that queue at the cap start in
// arrival order. The first byte picks the cap (0–3, 0 uncapped); then
// each arrival is three bytes: the gap since the previous arrival (high
// bit set: whole 5 s steps, so 120 lands exactly on a warm window's end;
// otherwise milliseconds), the run length and the cold start.
func FuzzCloudPool(f *testing.F) {
	// Capped at one: a cold start, two queued hand-offs, a warm reuse.
	f.Add([]byte{1, 0, 100, 50, 10, 100, 50, 10, 100, 50, 255, 100, 50})
	// Uncapped: overlapping cold starts, then a gap to the warm edge.
	f.Add([]byte{0, 0, 40, 200, 1, 40, 200, 0xf8, 40, 200, 0xf8, 0, 0})
	// Capped at three with zero-length runs and zero cold starts.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		maxConc := int(prog[0] % 4)
		p := &cloudPool{}
		var at, lastQueued time.Duration
		for i := 1; i+3 <= len(prog); i += 3 {
			gap, run, cold := prog[i], prog[i+1], prog[i+2]
			if gap&0x80 != 0 {
				at += time.Duration(gap&0x7f) * 5 * time.Second
			} else {
				at += time.Duration(gap) * time.Millisecond
			}
			runD := time.Duration(run) * time.Millisecond
			coldD := time.Duration(cold) * 2 * time.Millisecond
			want := p.delay(at, coldD, maxConc)
			wait, gotCold := p.acquire(at, runD, coldD, maxConc)
			if wait+gotCold != want {
				t.Fatalf("arrival %d at %v: delay predicted %v, acquire charged wait %v + cold %v",
					i/3, at, want, wait, gotCold)
			}
			if wait != 0 && gotCold != 0 {
				t.Fatalf("arrival %d at %v: charged both wait %v and cold %v", i/3, at, wait, gotCold)
			}
			if maxConc > 0 && len(p.instances) > maxConc {
				t.Fatalf("arrival %d at %v: %d live instances over cap %d", i/3, at, len(p.instances), maxConc)
			}
			if wait > 0 {
				start := at + wait
				if start < lastQueued {
					t.Fatalf("arrival %d at %v: queued start %v before an earlier queued start %v",
						i/3, at, start, lastQueued)
				}
				lastQueued = start
			}
		}
	})
}
