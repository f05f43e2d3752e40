package baseline

import (
	"testing"
	"time"

	"lass/internal/functions"
	"lass/internal/workload"
)

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("want error for zero config")
	}
	p, err := New(paperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	if err := p.Register(spec, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(spec, 100*time.Millisecond); err == nil {
		t.Error("want error for duplicate registration")
	}
	bad := spec
	bad.CPUMillis = 0
	if err := p.Register(bad, time.Second); err == nil {
		t.Error("want error for invalid spec")
	}
	if _, err := p.Run(map[string]*workload.Schedule{"ghost": nil}, time.Second); err == nil {
		t.Error("want error for unregistered schedule")
	}
}

func TestLightLoadWorksFine(t *testing.T) {
	// Vanilla OpenWhisk is perfectly healthy when one small function
	// trickles along: the baseline must not fail spuriously.
	p, err := New(paperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := functions.ByName("geofence")
	p.Register(spec, 100*time.Millisecond)
	wl, _ := workload.NewStatic(20)
	res, err := p.Run(map[string]*workload.Schedule{spec.Name: wl}, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cascaded || res.ResponsiveNodes != 3 {
		t.Errorf("healthy workload killed nodes: cascaded=%v responsive=%d", res.Cascaded, res.ResponsiveNodes)
	}
	if res.Completed[spec.Name] < 2000 {
		t.Errorf("completed=%d want ~2400", res.Completed[spec.Name])
	}
	if res.Hung[spec.Name] != 0 {
		t.Errorf("hung=%d", res.Hung[spec.Name])
	}
}

func TestMLWorkloadCascadesFailure(t *testing.T) {
	// §6.6: "Soon after the ML workload starts, all invokers become
	// unresponsive ... eventually causing all the invokers to fail."
	// Memory-only packing lets ~16 MobileNet containers (2 vCPU each)
	// pile onto one 4-core node.
	p, err := New(paperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	malware, _ := functions.ByName("binaryalert")
	mobile, _ := functions.ByName("mobilenet-v2")
	p.Register(malware, 100*time.Millisecond)
	p.Register(mobile, 100*time.Millisecond)

	mw, _ := workload.NewStatic(30)
	ml, _ := workload.NewStatic(40) // heavy DNN load: demands ~20 vCPU
	res, err := p.Run(map[string]*workload.Schedule{
		malware.Name: mw,
		mobile.Name:  ml,
	}, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponsiveNodes != 0 {
		t.Errorf("responsive nodes=%d; cascade did not complete", res.ResponsiveNodes)
	}
	if !res.Cascaded {
		t.Error("cascade flag not set")
	}
	if res.FirstDeathAt == 0 || res.FirstDeathAt > 3*time.Minute {
		t.Errorf("first invoker death at %v; expected early failure", res.FirstDeathAt)
	}
	if res.Hung[mobile.Name] == 0 {
		t.Error("no hung requests despite unresponsive invokers")
	}
	// The malware function is collateral damage: its requests get
	// dropped or hung once every invoker dies.
	if res.Dropped[malware.Name] == 0 && res.Hung[malware.Name] == 0 {
		t.Error("co-located function unaffected by cascade")
	}
}

func TestOversubscriptionStretchesService(t *testing.T) {
	// Below the death threshold, CPU oversubscription slows service
	// (requests on an overloaded node take longer).
	cfg := paperTestbed()
	cfg.Oversubscription = 100 // effectively never die
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mobile, _ := functions.ByName("mobilenet-v2")
	p.Register(mobile, 100*time.Millisecond)
	wl, _ := workload.NewStatic(40)
	res, err := p.Run(map[string]*workload.Schedule{mobile.Name: wl}, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed[mobile.Name] == 0 {
		t.Fatal("nothing completed")
	}
	// Offered: 40 req/s × 0.25s = 10 vCPU-equivalents on a 12-vCPU
	// cluster packed by memory onto fewer nodes: throughput collapses
	// below offered load.
	offered := 40.0 * 180
	if float64(res.Completed[mobile.Name]) > 0.9*offered {
		t.Errorf("completed %d of %v offered; oversubscription should throttle throughput",
			res.Completed[mobile.Name], offered)
	}
}

func TestIdleReap(t *testing.T) {
	cfg := paperTestbed()
	cfg.IdleTTL = 30 * time.Second
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := functions.ByName("geofence")
	p.Register(spec, 100*time.Millisecond)
	// One minute of traffic, then nine minutes idle.
	wl, _ := workload.NewSteps([]workload.Step{{Start: 0, Rate: 20}, {Start: time.Minute, Rate: 0}})
	if _, err := p.Run(map[string]*workload.Schedule{spec.Name: wl}, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, n := range p.nodes {
		if len(n.containers) != 0 {
			t.Errorf("node %d still has %d containers after idle reap", n.id, len(n.containers))
		}
		if n.memUsed != 0 {
			t.Errorf("node %d memUsed=%d", n.id, n.memUsed)
		}
	}
}

// TestRunDeterministic is the regression test for the map-iteration
// nondeterminism lass-lint flagged in this package: node.containers was a
// set-typed map, so findIdle handed requests to an arbitrary idle container
// and the lastUsed-driven keep-alive reap diverged run to run. With the
// creation-ordered slice, two runs from the same seed must agree
// bit-for-bit on every committed output.
func TestRunDeterministic(t *testing.T) {
	run := func() (*Result, []string) {
		cfg := paperTestbed()
		cfg.Seed = 42
		cfg.IdleTTL = 30 * time.Second // exercise the reap path
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"mobilenet-v2", "shufflenet-v2", "geofence"}
		schedules := make(map[string]*workload.Schedule)
		for _, name := range names {
			spec, err := functions.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Register(spec, 500*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			// Bursty enough that containers go idle and get reaped.
			wl, err := workload.NewSteps([]workload.Step{
				{Start: 0, Rate: 8},
				{Start: 2 * time.Minute, Rate: 0.5},
				{Start: 4 * time.Minute, Rate: 8},
			})
			if err != nil {
				t.Fatal(err)
			}
			schedules[name] = wl
		}
		res, err := p.Run(schedules, 6*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res, names
	}

	a, names := run()
	b, _ := run()
	for _, name := range names {
		if a.Completed[name] != b.Completed[name] {
			t.Errorf("%s: completed %d vs %d across identical seeds", name, a.Completed[name], b.Completed[name])
		}
		if a.Dropped[name] != b.Dropped[name] {
			t.Errorf("%s: dropped %d vs %d", name, a.Dropped[name], b.Dropped[name])
		}
		if a.Hung[name] != b.Hung[name] {
			t.Errorf("%s: hung %d vs %d", name, a.Hung[name], b.Hung[name])
		}
		wa, wb := a.Waits[name], b.Waits[name]
		if wa.Count() != wb.Count() || wa.Max() != wb.Max() {
			t.Errorf("%s: wait digest (%d, %v) vs (%d, %v)", name, wa.Count(), wa.Max(), wb.Count(), wb.Max())
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if wa.Quantile(q) != wb.Quantile(q) {
				t.Errorf("%s: p%v %v vs %v", name, q*100, wa.Quantile(q), wb.Quantile(q))
			}
		}
		if a.SLO[name].Violations() != b.SLO[name].Violations() {
			t.Errorf("%s: SLO violations %d vs %d", name, a.SLO[name].Violations(), b.SLO[name].Violations())
		}
	}
	if a.FirstDeathAt != b.FirstDeathAt || a.Cascaded != b.Cascaded {
		t.Errorf("health trajectory diverged: (%v, %v) vs (%v, %v)",
			a.FirstDeathAt, a.Cascaded, b.FirstDeathAt, b.Cascaded)
	}
}

// paperTestbed mirrors the paper's 3-node testbed.
func paperTestbed() Config {
	return Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 16384, Oversubscription: 2.0}
}
