package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"lass/internal/federation"
	"lass/internal/scenario"
)

// simWorkload is one simulator workload: a scenario generator and its two
// sizes. Each iteration regenerates the YAML from the seed, loads it
// through the scenario package exactly as `lass-sim -scenario` would, and
// runs the federation once; iterations repeat until the time budget is
// spent, so one run reports a median over several identical simulations.
type simWorkload struct {
	gen         func(seed uint64, sz simSize) ([]byte, error)
	full, quick simSize
}

var (
	metroDay = simWorkload{gen: genMetroDay, full: simSize{sites: 100, minutes: 720}, quick: simSize{sites: 8, minutes: 30}}
	fedFull  = simWorkload{gen: genFedFull, full: simSize{sites: 24, minutes: 4}, quick: simSize{sites: 12, minutes: 1}}
)

// simIter is what one build-and-run of the scenario measured.
type simIter struct {
	sc        *scenario.Scenario
	res       *federation.Result
	yamlBytes int
	gen       time.Duration
	parse     time.Duration
	build     time.Duration
	newFed    time.Duration
	run       time.Duration
	events    uint64
	mem       memDelta
	faults    *countingFaults // nil when untraced or fault-free
	placer    *tracedPlacer   // nil when untraced
	digest    uint64
}

func (it *simIter) setup() time.Duration { return it.gen + it.parse + it.build + it.newFed }

// iterate generates, loads and builds the scenario and — unless setupOnly —
// runs it once. With a tracer, spans wrap each public call and the placer
// and fault view are wrapped to count and time the calls the federation
// makes into them.
func (w simWorkload) iterate(rc runConfig, tr *tracer, op uint64, setupOnly bool) (*simIter, error) {
	sz := w.full
	if rc.quick {
		sz = w.quick
	}
	it := &simIter{}
	root := tr.start("bench.iteration", 0, op)
	defer root.end()

	var doc []byte
	var err error
	it.gen, err = stopwatch(tr, "bench.generate", root.id, op, func() error {
		doc, err = w.gen(rc.seed, sz)
		return err
	})
	if err != nil {
		return nil, err
	}
	it.yamlBytes = len(doc)
	it.parse, err = stopwatch(tr, "scenario.parse", root.id, op, func() error {
		it.sc, err = scenario.Parse(doc)
		return err
	})
	if err != nil {
		return nil, err
	}
	var cfg federation.Config
	it.build, err = stopwatch(tr, "scenario.build", root.id, op, func() error {
		cfg, err = it.sc.Build(-1)
		return err
	})
	if err != nil {
		return nil, err
	}
	var placer *tracedPlacer
	if tr != nil {
		// Wrap from outside: the federation sees an ordinary Placer and
		// FaultView. The wrappers change no decision, so the simulated
		// results — and the digest — match the untraced run exactly.
		placer = &tracedPlacer{inner: cfg.Placer, tr: tr, series: tr.series("federation.place"), op: op}
		cfg.Placer, it.placer = placer, placer
		if cfg.Faults != nil {
			it.faults = &countingFaults{inner: cfg.Faults}
			cfg.Faults = it.faults
		}
	}
	var fed *federation.Federation
	it.newFed, err = stopwatch(tr, "federation.new", root.id, op, func() error {
		fed, err = federation.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if setupOnly {
		return it, nil
	}
	runSpan := tr.start("federation.run", root.id, op)
	if placer != nil {
		placer.parent = runSpan.id
	}
	before := readMem()
	start := now()
	it.res, err = fed.Run(it.sc.Duration)
	it.run = since(start)
	it.mem = readMem().sub(before)
	runSpan.end()
	if err != nil {
		return nil, err
	}
	it.events = fed.Engine.Fired()
	it.digest = simDigest(it.res)
	return it, nil
}

// placeSampleEvery is how many placement calls share one timed span. A
// never-placer decision takes a few nanoseconds and two clock reads take
// eighty, so timing every call of a two-million-call run would cost more
// than the layer being measured; every call is still counted.
const placeSampleEvery = 8

// tracedPlacer counts every placement decision and times one in
// placeSampleEvery of them, from outside.
type tracedPlacer struct {
	inner  federation.Placer
	tr     *tracer
	series *spanStats
	parent int
	op     uint64
	calls  uint64
}

func (p *tracedPlacer) Name() string { return p.inner.Name() }

func (p *tracedPlacer) Place(ctx *federation.PlacementContext) federation.Decision {
	if p.calls++; p.calls%placeSampleEvery != 0 {
		return p.inner.Place(ctx)
	}
	o := p.tr.startIn(p.series, p.parent, p.op)
	d := p.inner.Place(ctx)
	o.end()
	return d
}

// countingFaults counts the failure-oracle queries the federation makes;
// the chaos layer replay prices them.
type countingFaults struct {
	inner federation.FaultView
	calls uint64
}

func (c *countingFaults) CoordinatorDown(at time.Duration) bool {
	c.calls++
	return c.inner.CoordinatorDown(at)
}

func (c *countingFaults) SiteDown(site int, at time.Duration) bool {
	c.calls++
	return c.inner.SiteDown(site, at)
}

func (c *countingFaults) LinkDown(from, to int, at time.Duration) bool {
	c.calls++
	return c.inner.LinkDown(from, to, at)
}

// simDigest folds every per-site counter and response quantile of a run
// into one FNV-1a hash. Simulated statistics are a pure function of the
// seed, so the digest must not move between iterations, between traced and
// untraced runs, or across a change that only makes the simulator faster.
func simDigest(res *federation.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(res.AllocEpochs)
	put(res.MissedAllocEpochs)
	put(res.CloudServed)
	for _, s := range res.Sites {
		h.Write([]byte(s.Name))
		for _, v := range []uint64{
			s.ServedLocal, s.OffloadedPeer, s.OffloadedCloud, s.PeerServed, s.Rejected,
			s.Unresolved, s.SLO.Total(), s.SLO.Violations(),
			s.CloudColdStarts, s.CloudTimedOut, s.CloudQueued,
			s.GrantLeaseExpirations, s.PartitionedEpochs, s.GrantsLost,
			s.Reclaimed, s.Preempted,
		} {
			put(v)
		}
		for _, q := range []float64{0.5, 0.95, 0.99, 1} {
			put(math.Float64bits(s.Responses.Quantile(q)))
		}
	}
	return h.Sum64()
}

// responseQuantile returns the federation-wide q-quantile of end-to-end
// response time in seconds. The per-site reservoirs expose no samples, only
// their CDFs, so the global quantile is found by bisecting on the pooled
// count below x — exact to float resolution.
func responseQuantile(res *federation.Result, q float64) float64 {
	var total, hi float64
	for _, s := range res.Sites {
		total += float64(s.Responses.Count())
		hi = math.Max(hi, s.Responses.Max())
	}
	if total == 0 {
		return 0
	}
	target := q * total
	lo := 0.0
	for i := 0; i < 60 && hi-lo > 1e-9; i++ {
		mid := (lo + hi) / 2
		var below float64
		for _, s := range res.Sites {
			below += s.Responses.FractionBelow(mid) * float64(s.Responses.Count())
		}
		if below >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// simTotals are the federation-wide outcome counts of one run.
type simTotals struct {
	requests, met, local, peer, cloud, rejected, unresolved uint64
	steps                                                   uint64 // controller epochs over all sites
	seriesPoints                                            uint64
}

func totals(res *federation.Result) simTotals {
	var t simTotals
	for _, s := range res.Sites {
		t.requests += s.SLO.Total() + s.Unresolved
		t.met += s.SLO.Total() - s.SLO.Violations()
		t.local += s.ServedLocal
		t.peer += s.OffloadedPeer
		t.cloud += s.OffloadedCloud
		t.rejected += s.Rejected
		t.unresolved += s.Unresolved
		t.steps += s.Core.ControllerOps.Steps
		t.seriesPoints += uint64(len(s.Core.UtilizationTS.Points))
		for _, fr := range s.Core.Functions {
			t.seriesPoints += uint64(len(fr.Containers.Points) + len(fr.CPU.Points) +
				len(fr.LambdaHat.Points) + len(fr.Desired.Points))
		}
	}
	return t
}

// run is the simulator workloads' measurement loop.
func (w simWorkload) run(rc runConfig) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	var plain, traced []*simIter
	begin := now()
	var last time.Duration
	// At least two iterations (the digest check needs a repeat), three on a
	// traced run (one to warm the process, one of each kind to compare);
	// then as many as fit the budget.
	least := 2
	if tr != nil {
		least = 3
	}
	for i := 0; i < least || since(begin)+last/2 <= rc.budget(); i++ {
		iterStart := now()
		useTracer := tr
		if i%2 == 0 {
			useTracer = nil // even iterations are always untraced
		}
		it, err := w.iterate(rc, useTracer, uint64(i+1), false)
		if err != nil {
			return nil, err
		}
		// Keep only the newest untraced iteration's results alive, so peak
		// RSS is one simulation's footprint, not the sum of all repeats.
		if useTracer != nil {
			it.res, it.sc = nil, nil
			traced = append(traced, it)
		} else {
			if n := len(plain); n > 0 {
				plain[n-1].res, plain[n-1].sc = nil, nil
			}
			plain = append(plain, it)
		}
		runtime.GC()
		last = since(iterStart)
	}
	first := plain[0]
	for _, it := range append(append([]*simIter(nil), plain...), traced...) {
		if it.digest != first.digest {
			out.fail("sim_digest moved between iterations: %016x vs %016x", it.digest, first.digest)
		}
	}
	ref := plain[len(plain)-1]
	if err := ref.sc.Check(ref.res); err != nil {
		out.fail("assertion: %v", err)
	}
	tot := totals(ref.res)
	out.attempted = int64(tot.requests)
	// A request the simulator lost track of is the only failed operation:
	// rejections and end-of-run stragglers are simulated outcomes, and they
	// count against slo_attainment instead.
	accounted := tot.local + tot.peer + tot.cloud + tot.rejected
	if accounted != tot.requests {
		out.failed = int64(max(tot.requests, accounted) - min(tot.requests, accounted))
		out.fail("conservation: %d arrivals but %d placed or rejected", tot.requests, accounted)
	}
	out.info("sim_digest %016x (%d iterations, identical)", first.digest, len(plain)+len(traced))
	out.info("requests %d: local %d, peer %d, cloud %d, rejected %d, unresolved %d",
		tot.requests, tot.local, tot.peer, tot.cloud, tot.rejected, tot.unresolved)

	var setups, rates []float64
	for _, it := range plain {
		setups = append(setups, it.setup().Seconds())
		rates = append(rates, float64(tot.requests)/it.run.Seconds())
	}
	// A small scenario sets up in a millisecond or two, where three samples
	// are mostly jitter; a few more set-ups without a run steady the median.
	for extra := now(); len(setups) < 9 && since(extra) < time.Second; {
		it, err := w.iterate(rc, nil, 0, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, it.setup().Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_sec"] = median(rates)
	out.e2e["op_ms_p50"] = responseQuantile(ref.res, 0.5) * 1e3
	out.e2e["op_ms_p99"] = responseQuantile(ref.res, 0.99) * 1e3
	out.e2e["slo_attainment"] = float64(tot.met) / float64(tot.requests)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.info("ops_per_sec: simulated requests per host-second of Run, median of %d runs; op_ms_*: simulated response ms, exact per seed", len(plain))

	if tr != nil {
		if err := w.layers(out, tr, plain, traced, tot); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		if err := tr.write(rc.outDir, rc.workload, rc.seed, out.layer); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}
