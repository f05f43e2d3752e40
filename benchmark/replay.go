package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"lass/internal/chaos"
	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/dispatch"
	"lass/internal/fairshare"
	"lass/internal/functions"
	"lass/internal/metrics"
	"lass/internal/queuing"
	"lass/internal/scenario"
	"lass/internal/sim"
	"lass/internal/workload"
	"lass/internal/xrand"
)

// Layer replays price the layers no span can reach from outside: each drives
// one module alone, through its public functions, on inputs shaped like the
// traced run's, and reports nanoseconds per operation. Multiplied by the
// operation counts the end-to-end run itself reported, that is the layer's
// estimated share of federation.run_s. A replay runs the layer warm and by
// itself, so it misses what the layers cost each other in cache misses; the
// gap shows up in federation.unattributed_frac.

// replaySink receives the results replay loops would otherwise discard, so
// the compiler cannot drop the calls being priced.
var replaySink float64

// perOp runs fn, which performs n operations, and returns ns per operation.
// The collector is off while fn runs: how often it would fire depends on how
// big the replaying process's heap happens to be, which made the same
// primitive cost 7 ns in one workload's process and 100 ns in another's. A
// replay price is therefore the layer's own work; the collector's share of
// a run is reported once, as federation.gc_cpu_frac.
func perOp(n int, fn func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := now()
	fn()
	return float64(since(start)) / float64(n)
}

// replayEngine prices the scheduler: `pending` self-rescheduling timer
// chains with the spread of gaps a site's arrival and service events have,
// `events` pops and pushes in all.
func replayEngine(pending, events int) float64 {
	eng := sim.NewEngine()
	rng := xrand.New(0x51e)
	left := events
	var step func()
	step = func() {
		left--
		if left >= pending {
			eng.After(time.Duration(1+rng.Intn(4_000_000))*time.Microsecond, step)
		}
	}
	for i := 0; i < pending; i++ {
		eng.After(time.Duration(1+rng.Intn(4_000_000))*time.Microsecond, step)
	}
	return perOp(events, eng.Run)
}

// replayArrivals prices arrival generation on the scenario's own first
// schedule, drawn in the batches of 64 the platform uses.
func replayArrivals(sc *scenario.Scenario, n int) (float64, error) {
	sched, err := workload.NewSteps(sc.Fleet[0].Functions[0].Steps)
	if err != nil {
		return 0, err
	}
	arr := workload.NewArrivals(sched.WithEnd(sc.Duration), xrand.New(0xa11))
	var buf [64]time.Duration
	return perOp(n, func() {
		var t time.Duration
		for made := 0; made < n; {
			got := arr.NextN(t, buf[:])
			made += max(got, 1)
			t = buf[max(got, 1)-1]
			if got < len(buf) {
				t = 0 // schedule ended: start the day again
			}
		}
	}), nil
}

// replaySite builds one stand-alone site — cluster, running containers and
// dispatch queue for the scenario's first function — on a private engine.
func replaySite(sc *scenario.Scenario, containers int) (*sim.Engine, *dispatch.Queue, functions.Spec, error) {
	spec, err := functions.ByName(sc.Fleet[0].Functions[0].Spec)
	if err != nil {
		return nil, nil, spec, err
	}
	eng := sim.NewEngine()
	cl, err := cluster.New(cluster.Config{Nodes: containers, CPUPerNode: spec.CPUMillis, MemPerNode: spec.MemoryMiB})
	if err != nil {
		return nil, nil, spec, err
	}
	q, err := dispatch.NewQueue(eng, spec, 100*time.Millisecond, xrand.New(0xd15))
	if err != nil {
		return nil, nil, spec, err
	}
	for i := 0; i < containers; i++ {
		c, err := cl.Place(spec.Name, spec.CPUMillis, spec.MemoryMiB)
		if err != nil {
			return nil, nil, spec, err
		}
		if err := cl.MarkRunning(c); err != nil {
			return nil, nil, spec, err
		}
		if err := q.AddContainer(c); err != nil {
			return nil, nil, spec, err
		}
	}
	return eng, q, spec, nil
}

// replayDispatch prices one request's trip through a dispatch queue —
// arrive, WRR pick, sampled service, completion — at 60% utilization, and
// one ServiceCapacity call on the same pool. The trip includes the engine
// events it schedules and the queue's own reservoir inserts; the caller
// nets those out, because the ledger prices them under sim and metrics.
func replayDispatch(sc *scenario.Scenario, containers, n int) (tripNs, eventsPerTrip, capacityNs float64, err error) {
	eng, q, spec, err := replaySite(sc, containers)
	if err != nil {
		return 0, 0, 0, err
	}
	rng := xrand.New(0xd16)
	rate := 0.6 * float64(containers) * spec.ServiceRate()
	left := n
	var arrive func()
	arrive = func() {
		q.Arrive()
		if left--; left > 0 {
			eng.After(time.Duration(rng.Exp(rate)*float64(time.Second)), arrive)
		}
	}
	eng.After(0, arrive)
	tripNs = perOp(n, eng.Run)
	eventsPerTrip = float64(eng.Fired()) / float64(n)
	const calls = 200_000
	capacityNs = perOp(calls, func() {
		for i := 0; i < calls; i++ {
			replaySink += q.ServiceCapacity()
		}
	})
	return tripNs, eventsPerTrip, capacityNs, nil
}

// replayController prices the per-site control loop on a stand-alone copy
// of the scenario's first site: `steps` epochs, each after the mean number
// of arrivals an epoch sees. It returns the Step times and ns per
// RecordArrival.
func replayController(sc *scenario.Scenario, steps int) (stepUs []float64, recordNs float64, err error) {
	site := sc.Fleet[0]
	cl, err := cluster.New(cluster.Config{Nodes: site.Nodes, CPUPerNode: site.CPUPerNode,
		MemPerNode: site.MemPerNode, Policy: cluster.WorstFit})
	if err != nil {
		return nil, 0, err
	}
	var clock time.Duration
	ctl, err := controller.New(controller.Config{MinContainers: 1}, cl, controller.Hooks{
		Now: func() time.Duration { return clock },
		// The replay has no data path: a container is ready at once.
		ScheduleColdStart: func(c *cluster.Container, delay time.Duration, ready func()) { ready() },
		OnReady:           func(c *cluster.Container) {},
		OnRemove:          func(c *cluster.Container) {},
	})
	if err != nil {
		return nil, 0, err
	}
	interval := ctl.Config().EvalInterval
	perEpoch := make([]int, len(site.Functions))
	total := 0
	for i, f := range site.Functions {
		spec, err := functions.ByName(f.Spec)
		if err != nil {
			return nil, 0, err
		}
		if _, err := ctl.Register(spec, "", 0, queuing.SLO{}); err != nil {
			return nil, 0, err
		}
		sched, err := workload.NewSteps(f.Steps)
		if err != nil {
			return nil, 0, err
		}
		mean := sched.ExpectedCount(0, sc.Duration) / sc.Duration.Seconds()
		perEpoch[i] = int(mean*interval.Seconds() + 0.5)
		total += perEpoch[i]
	}
	var recording time.Duration
	for s := 0; s < steps; s++ {
		clock += interval
		start := now()
		for i, f := range site.Functions {
			for k := 0; k < perEpoch[i]; k++ {
				ctl.RecordArrival(f.Spec)
			}
		}
		mid := now()
		if err := ctl.Step(); err != nil {
			return nil, 0, err
		}
		stepUs = append(stepUs, float64(since(mid))/1e3)
		recording += mid.Sub(start)
	}
	if total > 0 {
		recordNs = float64(recording) / float64(total*steps)
	}
	return stepUs, recordNs, nil
}

// replaySizing prices the M/M/c solver on a slowly drifting rate: warm
// scans seeded with the previous answer, cold scans from the stability
// floor.
func replaySizing(n int) (warmNs, coldNs float64, err error) {
	slo := queuing.SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	run := func(warm bool) float64 {
		hint := 0
		return perOp(n, func() {
			for i := 0; i < n && err == nil; i++ {
				lambda := 120 + 40*float64(i%50)/50
				var c int
				c, err = queuing.MinimalContainersFrom(lambda, 10, slo, hint)
				if warm {
					hint = c
				}
			}
		})
	}
	warmNs = run(true)
	coldNs = run(false)
	return warmNs, coldNs, err
}

// replayFairshare prices one local fair-share adjustment of an overloaded
// three-function site.
func replayFairshare(n int) (float64, error) {
	demands := []fairshare.Demand{
		{ID: "a", Weight: 1, Desired: 3000}, {ID: "b", Weight: 2, Desired: 2500}, {ID: "c", Weight: 1, Desired: 400},
	}
	var err error
	ns := perOp(n, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = fairshare.AdjustCapped(demands, 4000)
		}
	})
	return ns / 1e3, err
}

// replayChaos prices one failure-oracle query on the scenario's own fault
// list (queries arrive in nondecreasing time, as the federation's do) and
// counts the up/down transitions the run's horizon holds.
func replayChaos(sc *scenario.Scenario, n int) (queryNs float64, transitions int, err error) {
	cfg := chaos.Config{Sites: len(sc.Fleet), Seed: sc.Chaos.Seed, Faults: sc.Chaos.Faults}
	eng, err := chaos.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	sites := len(sc.Fleet)
	queryNs = perOp(n, func() {
		for i := 0; i < n; i++ {
			at := time.Duration(float64(sc.Duration) * float64(i) / float64(n))
			if eng.LinkDown(i%sites, (i+1)%sites, at) || eng.SiteDown(i%sites, at) {
				replaySink++
			}
		}
	}) / 2
	scan, err := chaos.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	last := make([]bool, sites+1)
	for at := time.Duration(0); at < sc.Duration; at += 100 * time.Millisecond {
		for s := 0; s <= sites; s++ {
			state := scan.CoordinatorDown(at)
			if s < sites {
				state = scan.SiteDown(s, at)
			}
			if state != last[s] {
				transitions++
				last[s] = state
			}
		}
	}
	return queryNs, transitions, nil
}

// replayMetrics prices the measurement primitives the data path calls per
// request (reservoir insert, SLO observation), per sample (series record),
// and a cold quantile over a run-sized reservoir.
func replayMetrics(n int) (addNs, observeNs, recordNs, quantileUs float64) {
	rng := xrand.New(0x3e7)
	res := metrics.NewReservoir()
	addNs = perOp(n, func() {
		for i := 0; i < n; i++ {
			res.AddDuration(time.Duration(i%977) * time.Millisecond)
		}
	})
	slo := metrics.NewSLOTracker(250 * time.Millisecond)
	observeNs = perOp(n, func() {
		for i := 0; i < n; i++ {
			slo.Observe(time.Duration(i%977) * time.Millisecond)
		}
	})
	series := metrics.NewSeries("replay")
	recordNs = perOp(n, func() {
		for i := 0; i < n; i++ {
			series.Record(time.Duration(i)*time.Second, float64(i))
		}
	})
	shuffled := metrics.NewReservoir()
	for i := 0; i < 100_000; i++ {
		shuffled.Add(rng.Float64())
	}
	quantileUs = perOp(1, func() { shuffled.Quantile(0.95) }) / 1e3
	return addNs, observeNs, recordNs, quantileUs
}

// replayCluster prices one container's life: place, start, deflate,
// terminate.
func replayCluster(n int) (float64, error) {
	cl, err := cluster.New(cluster.Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 16384, Policy: cluster.WorstFit})
	if err != nil {
		return 0, err
	}
	ns := perOp(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var c *cluster.Container
			if c, err = cl.Place("f", 1000, 512); err != nil {
				return
			}
			if err = cl.MarkRunning(c); err != nil {
				return
			}
			if err = cl.Resize(c, 800); err != nil {
				return
			}
			err = cl.Terminate(c)
		}
	})
	return ns, err
}

// replayControlLayers fills the replay-priced metrics that do not depend
// on a scenario; every traced run reports them. It also returns the price
// of one SLO observation, which only the simulator ledger uses.
func replayControlLayers(l map[string]float64) (observeNs float64, err error) {
	if l["fairshare.adjust_us_per_call"], err = replayFairshare(50_000); err != nil {
		return 0, err
	}
	if l["cluster.create_resize_remove_ns"], err = replayCluster(100_000); err != nil {
		return 0, err
	}
	l["metrics.reservoir_add_ns"], observeNs, l["metrics.series_record_ns"], l["metrics.quantile_us"] = replayMetrics(500_000)
	return observeNs, nil
}

// layers fills the simulator workloads' per-layer metrics: spans and
// wrapper counts from the traced iterations, runtime counters from the
// untraced ones, and replay-priced shares for the layers in between.
func (w simWorkload) layers(out *outcome, tr *tracer, plain, traced []*simIter, tot simTotals) error {
	l := out.layer
	ref, tref := plain[len(plain)-1], traced[len(traced)-1]
	requests := float64(tot.requests)
	var runs, tracedRuns, placeShares []float64
	if len(plain) > 1 {
		// The process's first simulation also grows the heap; it would make
		// the untraced side look slow next to the traced runs that follow.
		plain = plain[1:]
	}
	for _, it := range plain {
		runs = append(runs, it.run.Seconds())
	}
	place := tr.series("federation.place")
	perTraced := place.total.Seconds() * placeSampleEvery / float64(len(traced))
	for _, it := range traced {
		tracedRuns = append(tracedRuns, it.run.Seconds())
		placeShares = append(placeShares, perTraced/it.run.Seconds())
	}
	runS := median(runs)

	l["scenario.yaml_kb"] = float64(ref.yamlBytes) / 1024
	l["scenario.parse_ms"] = ref.parse.Seconds() * 1e3
	l["scenario.build_ms"] = ref.build.Seconds() * 1e3
	l["federation.new_s"] = ref.newFed.Seconds()
	l["federation.run_s"] = runS
	l["federation.allocs_per_request"] = float64(ref.mem.mallocs) / requests
	l["federation.bytes_per_request"] = float64(ref.mem.bytes) / requests
	l["federation.gc_cpu_frac"] = perCall(ref.mem.gcCPU, ref.mem.allCPU)
	l["federation.place_calls"] = float64(tref.placer.calls)
	l["federation.place_ns_p50"] = place.quantileNs(0.5)
	l["federation.place_ns_p99"] = place.quantileNs(0.99)
	l["federation.place_share"] = median(placeShares)
	l["federation.offload_share"] = float64(tot.peer+tot.cloud) / requests
	l["federation.reject_share"] = float64(tot.rejected) / requests
	l["federation.alloc_epochs"] = float64(ref.res.AllocEpochs)
	l["federation.missed_epochs"] = float64(ref.res.MissedAllocEpochs)
	l["federation.lease_expirations"] = float64(ref.res.GrantLeaseExpirations)
	l["federation.reclaimed_mc"] = float64(ref.res.Reclaimed)
	l["bench.trace_overhead_frac"] = median(tracedRuns)/runS - 1

	observe, err := replayControlLayers(l)
	if err != nil {
		return err
	}
	sc := ref.sc
	streams := 0
	for _, s := range sc.Fleet {
		streams += len(s.Functions)
	}
	churnNs := replayEngine(streams+2*len(sc.Fleet), 400_000)
	l["sim.events"] = float64(ref.events)
	l["sim.events_per_request"] = float64(ref.events) / requests
	l["sim.churn_ns_per_event"] = churnNs
	l["sim.est_share"] = float64(ref.events) * churnNs / 1e9 / runS

	nextNs, err := replayArrivals(sc, 300_000)
	if err != nil {
		return err
	}
	l["workload.arrivals"] = requests
	l["workload.next_ns_per_arrival"] = nextNs
	l["workload.est_share"] = requests * nextNs / 1e9 / runS

	add := l["metrics.reservoir_add_ns"]
	served := float64(tot.requests - tot.rejected - tot.unresolved)
	l["metrics.est_share"] = (served*(3*add+2*observe) + float64(tot.seriesPoints)*l["metrics.series_record_ns"]) / 1e9 / runS

	trip, eventsPerTrip, capacityNs, err := replayDispatch(sc, 4, 150_000)
	if err != nil {
		return err
	}
	// Net of the engine events and reservoir inserts a trip makes, which
	// the ledger prices under sim and metrics. The replay's engine holds
	// only a handful of timers, so its events are priced at that depth.
	trip = max(0, trip-eventsPerTrip*replayEngine(5, 400_000)-2*add-observe)
	dispatched := float64(tot.local + tot.peer)
	l["dispatch.requests"] = dispatched
	l["dispatch.arrive_complete_ns_per_request"] = trip
	l["dispatch.service_capacity_ns_per_call"] = capacityNs
	l["dispatch.est_share"] = dispatched * trip / 1e9 / runS

	stepUs, recordNs, err := replayController(sc, 20_000)
	if err != nil {
		return err
	}
	var stepSum float64
	for _, us := range stepUs {
		stepSum += us
	}
	l["controller.steps"] = float64(tot.steps)
	l["controller.step_us_p50"] = median(stepUs)
	l["controller.step_us_p99"], _ = tail(stepUs, 0.99)
	l["controller.est_share"] = (float64(tot.steps)*stepSum/float64(len(stepUs))*1e3 + requests*recordNs) / 1e9 / runS

	warmNs, coldNs, err := replaySizing(50_000)
	if err != nil {
		return err
	}
	l["queuing.size_calls"] = float64(tot.steps) * float64(streams) / float64(len(sc.Fleet))
	l["queuing.size_ns_warm"] = warmNs
	l["queuing.size_ns_cold"] = coldNs

	if tref.faults != nil {
		queryNs, transitions, err := replayChaos(sc, 400_000)
		if err != nil {
			return err
		}
		l["chaos.queries"] = float64(tref.faults.calls)
		l["chaos.query_ns_per_call"] = queryNs
		l["chaos.transitions"] = float64(transitions)
	}
	l["federation.unattributed_frac"] = 1 - l["federation.place_share"] - l["sim.est_share"] -
		l["workload.est_share"] - l["dispatch.est_share"] - l["controller.est_share"] - l["metrics.est_share"]
	return nil
}
