package federation

import (
	"time"
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

// hasWarm reports whether a request arriving at time at would find an
// idle warm instance (i.e. would skip the cold start).
func (p *cloudPool) hasWarm(at time.Duration) bool {
	for _, in := range p.instances {
		if in.busyUntil <= at && in.warmUntil >= at {
			return true
		}
	}
	return false
}

// acquire reserves an instance for a request arriving at time at that will
// execute for run. It returns the queueing delay the request pays at the
// concurrency cap (zero when uncapped or a slot is free) and the
// cold-start delay (zero when an idle warm instance is reused, coldStart
// when a fresh instance must be provisioned). With maxConc > 0 the pool
// never exceeds that many instances: a request finding all of them busy
// waits FIFO for the earliest-free instance and starts on it warm — the
// handoff is instance reuse, not a fresh provision. The chosen instance
// is busy until wait + cold + run after arrival and then stays warm for
// cloudWarmWindow.
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

	var best *cloudInstance
	for _, in := range p.instances {
		if in.busyUntil > at {
			continue
		}
		if best == nil || in.warmUntil > best.warmUntil {
			best = in
		}
	}
	if best == nil {
		if maxConc > 0 && len(p.instances) >= maxConc {
			// At the cap: queue for the instance that frees first.
			// Arrivals are processed in time order, so bumping its busy
			// horizon keeps the hand-offs FIFO.
			soonest := p.instances[0]
			for _, in := range p.instances[1:] {
				if in.busyUntil < soonest.busyUntil {
					soonest = in
				}
			}
			wait = soonest.busyUntil - at
			soonest.busyUntil += run
			soonest.warmUntil = soonest.busyUntil + cloudWarmWindow
			return wait, 0
		}
		cold = coldStart
		best = &cloudInstance{}
		p.instances = append(p.instances, best)
	}
	best.busyUntil = at + cold + run
	best.warmUntil = best.busyUntil + cloudWarmWindow
	return 0, cold
}

// predictWait returns the queueing delay a request arriving at time at
// would pay before starting execution: zero when uncapped, when an idle
// warm instance exists, or when the pool may still grow; otherwise the
// time until the earliest-free instance hands over.
func (p *cloudPool) predictWait(at time.Duration, maxConc int) time.Duration {
	if maxConc <= 0 {
		return 0
	}
	live := 0
	var soonest time.Duration = -1
	for _, in := range p.instances {
		if in.warmUntil < at {
			continue
		}
		live++
		if in.busyUntil <= at {
			return 0 // idle warm instance: immediate start
		}
		if soonest < 0 || in.busyUntil < soonest {
			soonest = in.busyUntil
		}
	}
	if live < maxConc {
		return 0
	}
	return soonest - at
}
