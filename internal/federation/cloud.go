package federation

import (
	"time"

	"lass/internal/dispatch"
	"lass/internal/functions"
)

// The cloud backend is one fixed network distance and one price point,
// after Das et al. 2020's edge–cloud placement model.
const (
	// cloudRTT is the one-way latency from any edge site to the cloud.
	cloudRTT = 50 * time.Millisecond
	// cloudWarmWindow is how long an idle cloud instance stays warm after
	// finishing a request. A request that finds no idle warm instance pays
	// its function's Spec.ColdStart behind the cloud RTT before executing.
	cloudWarmWindow = 10 * time.Minute
	// cloudPricePerInvocation and cloudPricePerGBSecond are the common
	// on-demand FaaS rates: $0.20 per million invocations and
	// ~$0.0000166667 per GB-second of billed execution, which is the
	// sampled service time truncated at the function's hard execution
	// limit.
	cloudPricePerInvocation = 0.20 / 1e6
	cloudPricePerGBSecond   = 1.0 / 60_000
)

// cloudInstance is one execution slot of the cloud backend's per-function
// warm pool: busy until busyUntil, then idle-but-warm until warmUntil.
type cloudInstance struct {
	busyUntil time.Duration
	warmUntil time.Duration
}

// cloudPool models the warm-window behaviour of a FaaS cloud backend for
// one function. A request that cannot reuse an idle warm instance pays the
// function's cold-start latency first, so the cloud is no longer flattered
// as an always-warm free absorber; with a concurrency cap (the real FaaS
// throttle) instance creation is bounded too, and requests at the cap
// queue FIFO for the next instance to free up. Reuse is
// most-recently-used (the instance with the latest warm deadline), the
// policy real platforms use so that surplus instances age out.
type cloudPool struct {
	instances []*cloudInstance
}

// pick returns, without changing the pool, the instance a request
// arriving at time at would get: the idle warm instance with the latest
// warm deadline (ties to the first); with every live instance busy and
// maxConc > 0 of them, the one that frees first (queued, ties to the
// first); otherwise nil, a new instance. Instances whose warm window
// lapsed before at are skipped whether or not acquire has pruned them.
func (p *cloudPool) pick(at time.Duration, maxConc int) (in *cloudInstance, queued bool) {
	live := 0
	var soonest *cloudInstance
	for _, c := range p.instances {
		if c.warmUntil < at {
			continue
		}
		live++
		if c.busyUntil <= at {
			if in == nil || c.warmUntil > in.warmUntil {
				in = c
			}
		} else if soonest == nil || c.busyUntil < soonest.busyUntil {
			soonest = c
		}
	}
	if in != nil || maxConc <= 0 || live < maxConc {
		return in, false
	}
	return soonest, true
}

// delay returns what acquire would charge a request arriving at time at:
// the wait for the instance that frees first at the cap, coldStart for a
// new instance, or zero for a warm reuse.
func (p *cloudPool) delay(at, coldStart time.Duration, maxConc int) time.Duration {
	switch in, queued := p.pick(at, maxConc); {
	case queued:
		return in.busyUntil - at
	case in == nil:
		return coldStart
	}
	return 0
}

// acquire reserves the instance pick chooses for a request arriving at
// time at that will execute for run. It returns the queueing delay the
// request pays at the concurrency cap and the cold-start delay it pays on
// a new instance; at most one is nonzero. A hand-off at the cap starts
// warm on the instance that frees first: arrivals come in time order, so
// extending that instance's busy horizon keeps the hand-offs FIFO. The
// instance is busy until wait + cold + run after arrival and then stays
// warm for cloudWarmWindow.
func (p *cloudPool) acquire(at, run, coldStart time.Duration, maxConc int) (wait, cold time.Duration) {
	// Drop instances whose warm window has lapsed; a busy instance is
	// always within its window (warmUntil >= busyUntil), so nothing
	// in-flight can be dropped.
	live := p.instances[:0]
	for _, in := range p.instances {
		if in.warmUntil >= at {
			live = append(live, in)
		}
	}
	p.instances = live

	in, queued := p.pick(at, maxConc)
	switch {
	case queued:
		wait = in.busyUntil - at
	case in == nil:
		cold = coldStart
		in = &cloudInstance{}
		p.instances = append(p.instances, in)
	}
	in.busyUntil = at + wait + cold + run
	in.warmUntil = in.busyUntil + cloudWarmWindow
	return wait, cold
}

// cloudBill returns the price ($) of one cloud invocation of spec billed
// for run: the per-invocation price plus run at the GB-second price for
// the function's memory.
func cloudBill(spec functions.Spec, run time.Duration) float64 {
	return cloudPricePerInvocation +
		run.Seconds()*cloudPricePerGBSecond*float64(spec.MemoryMiB)/1024
}

// predictCloud estimates the end-to-end response time (seconds) of serving
// one request of t's function in the cloud right now: both network legs,
// the mean standard service time, and what the function's pool would
// charge on arrival — the queueing delay at the concurrency cap, or the
// cold start when no idle warm instance will greet it.
func (f *Federation) predictCloud(t *placeTable) float64 {
	spec := t.q.Spec()
	delay := t.cloud.delay(f.Engine.Now()+cloudRTT, spec.ColdStart, f.cfg.CloudMaxConcurrency)
	return (2*cloudRTT + spec.MeanServiceTime + delay).Seconds()
}

// offloadToCloud serves the request on the cloud backend: it reaches the
// cloud one RTT later, takes an instance from the function's pool (paying
// the cold start of a new one, or at the concurrency cap queueing FIFO for
// the next free one, with the wait counted toward response time), executes
// a sampled standard-size service time capped by the function's hard
// execution limit, and accrues the invocation's cost at the origin site. A
// request killed by the limit never completes: it is counted in
// CloudTimedOut and remains an SLO violation at the origin (via the
// unresolved accounting).
func (f *Federation) offloadToCloud(t *placeTable, r *dispatch.Request) {
	origin, spec := t.origin, t.q.Spec()
	origin.OffloadedCloud++
	service := spec.SampleServiceTime(f.cloudRng, 1.0)
	run := service
	killed := false
	if tl := t.q.TimeLimit; tl > 0 && service > tl {
		run = tl
		killed = true
	}
	wait, cold := t.cloud.acquire(f.Engine.Now()+cloudRTT, run, spec.ColdStart, f.cfg.CloudMaxConcurrency)
	if cold > 0 {
		origin.CloudColdStarts++
	}
	if wait > 0 {
		origin.CloudQueued++
	}
	origin.CloudCost += cloudBill(spec, run)
	if killed {
		origin.CloudTimedOut++
		return
	}
	arrival := r.Arrival
	f.Engine.After(2*cloudRTT+wait+cold+service, func() {
		origin.observe(f.Engine.Now() - arrival)
	})
}
