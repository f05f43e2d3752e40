package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/functions"
	"lass/internal/queuing"
	"lass/internal/realtime"
)

// rtFunctions are the wall-clock workloads' functions, in the open-loop
// mix order 5:2:1 — most calls go to the lightest function.
var rtFunctions = []string{"geofence", "binaryalert", "squeezenet"}

const (
	rtPrewarm   = 2
	rtOpenRate  = 200.0 // req/s outside the burst
	rtOpenBurst = 2.0   // rate multiplier during the middle third
	// rtEchoServiceTime is the mean service time the closed loop registers
	// its echo handlers with. Left at the catalog's 10–100 ms, the
	// controller sees 200k req/s against a 10 req/s container, sizes pools in
	// the tens of thousands, and its M/M/c scans hold the platform lock for
	// up to a second every evaluation — throughput then swings 5× between
	// runs and measures the solver, not the data path.
	rtEchoServiceTime = 5 * time.Microsecond
	// rtOpenWarm is the unmeasured lead-in of the open loop at the base
	// rate: one long rate window, so the controller's estimate has converged
	// and the measured part sees the reaction to the burst, not to start-up.
	rtOpenWarm = 10 * time.Second
	// rtWaitSLO is the per-invocation form of the platform's objective
	// (waiting time under 100 ms at P95): an invocation meets it when its
	// handler starts within this long of the call being due.
	rtWaitSLO = 100 * time.Millisecond
	// rtMaxLateness invalidates an open-loop run whose generator sent a
	// tenth of its calls this far behind schedule: the load was not the
	// load asked for. (Judged at P90, not P99: one 100 ms host stall during
	// the burst delays 40 calls, over 1% of a run, and says nothing about
	// whether the generator can keep up.)
	rtMaxLateness = 20 * time.Millisecond
)

// rtCall is one invocation's timeline, as offsets from the run's origin.
// The handler writes started and ended; everything else is the caller's.
// The closed loop times only some of its calls (untimed is set on the
// rest), because five clock reads are a tenth of an echo call.
type rtCall struct {
	due, sent, started, ended, returned time.Duration
	untimed                             bool
}

// rtPlatform is a running realtime.Platform plus the slots its handlers
// report into. Payloads carry the slot index — the call number in the open
// loop, the client number in the closed one — and handlers echo them back,
// so every reply is checked.
type rtPlatform struct {
	p      *realtime.Platform
	origin time.Time
	slots  []rtCall
	sleepy bool
}

// setupRealtime builds the platform — three nodes of 4000 mC, 500 ms
// evaluation interval, 2 s/10 s rate windows — registers the three catalog
// functions, prewarms two containers each, and waits until every prewarmed
// container is serving: construction through first readiness.
func setupRealtime(sleepy bool) (*rtPlatform, time.Duration, error) {
	start := now()
	p, err := realtime.New(realtime.Config{
		Cluster: cluster.Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 16384, Policy: cluster.WorstFit},
		Controller: controller.Config{
			EvalInterval:  500 * time.Millisecond,
			Windows:       controller.DualWindowConfig{Short: 2 * time.Second, Long: 10 * time.Second, BurstFactor: 2},
			MinContainers: 1,
		},
	})
	if err != nil {
		return nil, 0, err
	}
	rt := &rtPlatform{p: p, origin: start, sleepy: sleepy}
	for _, name := range rtFunctions {
		spec, err := functions.ByName(name)
		if err != nil {
			p.Stop()
			return nil, 0, err
		}
		if !sleepy {
			spec.MeanServiceTime = rtEchoServiceTime
		}
		if err := p.Register(spec, rt.handler(spec), queuing.SLO{}); err != nil {
			p.Stop()
			return nil, 0, err
		}
		if err := p.Provision(name, rtPrewarm); err != nil {
			p.Stop()
			return nil, 0, err
		}
	}
	for _, name := range rtFunctions {
		for {
			st, err := p.Stats(name)
			if err != nil {
				p.Stop()
				return nil, 0, err
			}
			if st.Containers >= rtPrewarm {
				break
			}
			if since(start) > 10*time.Second {
				p.Stop()
				return nil, 0, fmt.Errorf("realtime: %s never became ready", name)
			}
			sleep(time.Millisecond)
		}
	}
	return rt, since(start), nil
}

// handler returns the function's handler: it stamps the call's slot, does
// the function's work — for the sleepy kind, the spec's mean service time
// stretched by the container's CPU deflation, like a CPU-bound function
// would be — and echoes the payload.
func (rt *rtPlatform) handler(spec functions.Spec) realtime.Handler {
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		if len(payload) != 8 {
			return nil, fmt.Errorf("payload is %d bytes, want 8", len(payload))
		}
		call := &rt.slots[binary.LittleEndian.Uint64(payload)]
		if call.untimed {
			return payload, nil
		}
		call.started = since(rt.origin)
		if rt.sleepy {
			work := time.Duration(float64(spec.MeanServiceTime) * spec.ServiceTimeMultiplier(realtime.CPUFraction(ctx)))
			if err := sleepCtx(ctx, work); err != nil {
				return nil, err
			}
		}
		call.ended = since(rt.origin)
		return payload, nil
	}
}

//lass:wallclock handlers emulate service time on the machine clock.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// invoke makes one call through the given slot and verifies the echo. It
// returns false when the invocation errored or the reply was wrong.
func (rt *rtPlatform) invoke(fn string, slot int) bool {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(slot))
	call := &rt.slots[slot]
	if call.untimed {
		reply, err := rt.p.Invoke(context.Background(), fn, payload[:])
		return err == nil && bytes.Equal(reply, payload[:])
	}
	call.sent = since(rt.origin)
	reply, err := rt.p.Invoke(context.Background(), fn, payload[:])
	call.returned = since(rt.origin)
	return err == nil && bytes.Equal(reply, payload[:])
}

// rtSummary turns finished call timelines into the workload's metrics.
// Latency runs from `from` (due time for the open loop, send time for the
// closed one) to the reply.
type rtSummary struct {
	latencyMs, waitMs, returnUs []float64
	met                         int
}

func summarize(calls []rtCall, open bool) rtSummary {
	var s rtSummary
	for _, c := range calls {
		from := c.sent
		if open {
			from = c.due
		}
		wait := c.started - from
		s.latencyMs = append(s.latencyMs, (c.returned-from).Seconds()*1e3)
		s.waitMs = append(s.waitMs, wait.Seconds()*1e3)
		s.returnUs = append(s.returnUs, (c.returned-c.ended).Seconds()*1e6)
		if wait <= rtWaitSLO {
			s.met++
		}
	}
	return s
}

// traceCalls turns call timelines into spans after the run. The timelines
// are recorded for the end-to-end metrics anyway, so a traced wall-clock
// run costs the invocation path nothing extra.
func traceCalls(tr *tracer, calls []rtCall) {
	invoke, handle := tr.series("realtime.invoke"), tr.series("realtime.handler")
	for i, c := range calls {
		root := tr.add(invoke, 0, uint64(i+1), c.sent, c.returned)
		tr.add(handle, root, uint64(i+1), c.started, c.ended)
	}
}

// callSample keeps a bounded, evenly spaced sample of a closed-loop
// client's calls: every stride-th call, with the stride doubling whenever
// the buffer fills. Memory therefore does not grow with throughput, so a
// faster runtime cannot show up as a peak_rss_mb regression of the harness.
type callSample struct {
	stride, seen int
	calls        []rtCall
}

func newCallSample(capacity int) *callSample {
	return &callSample{stride: 1, calls: make([]rtCall, 0, capacity)}
}

func (s *callSample) add(c rtCall) {
	s.seen++
	if s.seen%s.stride != 0 {
		return
	}
	if len(s.calls) == cap(s.calls) {
		kept := s.calls[:0]
		for i := 1; i < len(s.calls); i += 2 {
			kept = append(kept, s.calls[i])
		}
		s.calls = kept
		s.stride *= 2
		if s.seen%s.stride != 0 {
			return
		}
	}
	s.calls = append(s.calls, c)
}

// poolSampler polls the platform's pool sizes while a run is in flight.
type poolSampler struct {
	at    []time.Duration
	total []int
	stop  chan struct{}
	done  sync.WaitGroup
}

func (rt *rtPlatform) samplePools(every time.Duration) *poolSampler {
	ps := &poolSampler{stop: make(chan struct{})}
	ps.done.Add(1)
	go func() {
		defer ps.done.Done()
		for {
			n := 0
			for _, name := range rtFunctions {
				if st, err := rt.p.Stats(name); err == nil {
					n += st.Containers
				}
			}
			ps.at = append(ps.at, since(rt.origin))
			ps.total = append(ps.total, n)
			select {
			case <-ps.stop:
				return
			default:
				sleep(every)
			}
		}
	}()
	return ps
}

func (ps *poolSampler) finish() {
	close(ps.stop)
	ps.done.Wait()
}

// reprovision returns how long after `onset` the total pool first grew
// beyond its size at onset (0 when it never did), and the peak pool size.
func (ps *poolSampler) reprovision(onset time.Duration) (time.Duration, int) {
	base, peak := -1, 0
	var took time.Duration
	for i, n := range ps.total {
		peak = max(peak, n)
		if ps.at[i] < onset {
			base = n
			continue
		}
		if base >= 0 && took == 0 && n > base {
			took = ps.at[i] - onset
		}
	}
	return took, peak
}

// medianSetup sets the platform up three times, stopping all but the last:
// setup_s is the median, and the run uses a platform that has just become
// ready.
func medianSetup(sleepy bool) (*rtPlatform, float64, error) {
	var setups []float64
	var rt *rtPlatform
	for i := 0; i < 3; i++ {
		if rt != nil {
			rt.p.Stop()
		}
		var d time.Duration
		var err error
		if rt, d, err = setupRealtime(sleepy); err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.Seconds())
	}
	return rt, median(setups), nil
}

// runRealtimeOpen is the realtime_open workload: an open-loop Poisson
// schedule fixed before the run, timed from each call's due time.
func runRealtimeOpen(rc runConfig) (*outcome, error) {
	out := newOutcome()
	rt, setup, err := medianSetup(true)
	if err != nil {
		return nil, err
	}
	defer rt.p.Stop()
	length, warm := rc.budget(), rtOpenWarm
	if rc.quick {
		warm = 0
	}
	sched := genOpenSchedule(rc.seed, warm, length, rtOpenRate, rtOpenBurst)
	rt.slots = make([]rtCall, len(sched))
	// Stats sorts the platform's wait reservoir under its lock, so pools are
	// polled only on the traced run, and sparsely.
	var sampler *poolSampler
	if rc.trace {
		sampler = rt.samplePools(50 * time.Millisecond)
	}
	begin := since(rt.origin)
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for i, a := range sched {
		due := begin + a.due
		rt.slots[i].due = due
		if wait := due - since(rt.origin); wait > 0 {
			sleep(wait)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !rt.invoke(rtFunctions[a.fn], i) {
				wrong.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := since(rt.origin) - begin - warm

	measured := rt.slots
	for len(measured) > 0 && measured[0].due < begin+warm {
		measured = measured[1:]
	}
	sum := summarize(measured, true)
	var lateMs []float64
	for _, c := range measured {
		lateMs = append(lateMs, (c.sent-c.due).Seconds()*1e3)
	}
	lateP99, _ := tail(lateMs, 0.99)
	if lateP90, _ := tail(lateMs, 0.90); lateP90 > rtMaxLateness.Seconds()*1e3 {
		out.fail("open-loop generator ran late: p90 lateness %.1f ms exceeds %v, the offered load was not the scheduled load", lateP90, rtMaxLateness)
	}
	out.attempted = int64(len(measured))
	out.failed = wrong.Load()
	p99, used := tail(sum.latencyMs, 0.99)
	out.e2e["setup_s"] = setup
	out.e2e["ops_per_sec"] = float64(len(measured)) / elapsed.Seconds()
	out.e2e["op_ms_p50"] = median(sum.latencyMs)
	out.e2e["op_ms_p99"] = p99
	out.e2e["slo_attainment"] = float64(sum.met-int(out.failed)) / float64(len(measured))
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.info("open loop, %v warm-up then %g req/s, x%g in the middle third, %d calls timed from due time; op_ms_p99 is the p%g; generator lateness p99 %.2f ms",
		warm, rtOpenRate, rtOpenBurst, len(measured), used*100, lateP99)
	if rc.trace {
		sampler.finish()
		took, peak := sampler.reprovision(begin + warm + length/3)
		l, err := rtLayers(out, len(measured), sum)
		if err != nil {
			return nil, err
		}
		l["realtime.reprovision_ms"] = took.Seconds() * 1e3
		l["realtime.containers_peak"] = float64(peak)
		l["realtime.gen_late_ms_max"] = quantileSorted(sortedCopy(lateMs), 1)
		if err := rtTraceWrite(rc, measured, l); err != nil {
			return nil, err
		}
	}
	return out, nil
}

const (
	// closedBatch is how many closed-loop calls share one latency sample:
	// a client reads the clock once per batch and records the batch's mean
	// call latency. Timing each two-microsecond call with its own pair of
	// clock reads measured the clock as much as the runtime.
	closedBatch = 1024
	// closedTimedEvery is how often a closed-loop call carries a full
	// timeline (for waiting time, SLO and return-path metrics).
	closedTimedEvery = 16
)

// runRealtimeClosed is the realtime_closed workload: one client sending its
// next call when the previous one returned, against handlers that only
// echo, rotating over the three functions batch by batch.
//
// One client, not one per CPU: the runtime serializes every call on one
// mutex, and with two clients on two CPUs throughput swung 360k–505k calls/s
// between identical runs, depending on how often the loser of the lock was
// parked rather than spun. A single client walks the same path — lock, WRR
// pick, goroutine per call, channel hand-off — and repeats within ±4%.
func runRealtimeClosed(rc runConfig) (*outcome, error) {
	out := newOutcome()
	rt, setup, err := medianSetup(false)
	if err != nil {
		return nil, err
	}
	defer rt.p.Stop()
	const clients = 1
	rt.slots = make([]rtCall, clients)
	samples := make([]*callSample, clients)
	batchMs := make([][]float64, clients)
	made := make([]int, clients)
	var wrong atomic.Int64
	begin := since(rt.origin)
	deadline := begin + rc.budget()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		samples[k] = newCallSample(100_000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := &rt.slots[k]
			for last := since(rt.origin); last < deadline; {
				fn := rtFunctions[(k+len(batchMs[k]))%len(rtFunctions)]
				for n := 0; n < closedBatch; n++ {
					slot.untimed = n%closedTimedEvery != 0
					if !rt.invoke(fn, k) {
						wrong.Add(1)
					}
					if !slot.untimed {
						samples[k].add(*slot)
					}
				}
				made[k] += closedBatch
				t := since(rt.origin)
				batchMs[k] = append(batchMs[k], (t-last).Seconds()*1e3/closedBatch)
				last = t
			}
		}()
	}
	wg.Wait()
	elapsed := since(rt.origin) - begin

	var calls []rtCall
	var latencyMs []float64
	total := 0
	for k := range samples {
		calls = append(calls, samples[k].calls...)
		latencyMs = append(latencyMs, batchMs[k]...)
		total += made[k]
	}
	sum := summarize(calls, false)
	out.attempted = int64(total)
	out.failed = wrong.Load()
	p99, used := tail(latencyMs, 0.99)
	out.e2e["setup_s"] = setup
	out.e2e["ops_per_sec"] = float64(total) / elapsed.Seconds()
	out.e2e["op_ms_p50"] = median(latencyMs)
	out.e2e["op_ms_p99"] = p99
	out.e2e["slo_attainment"] = float64(sum.met) / float64(len(calls)) * float64(total-int(out.failed)) / float64(total)
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.info("closed loop, %d client(s), %d calls; op_ms_* over %d batches of %d calls (mean call latency per batch), p99 is the p%g; SLO from %d timed calls",
		clients, total, len(latencyMs), closedBatch, used*100, len(calls))
	if rc.trace {
		l, err := rtLayers(out, total, sum)
		if err != nil {
			return nil, err
		}
		if err := rtTraceWrite(rc, calls, l); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rtLayers fills the realtime per-layer metrics both wall-clock workloads
// share.
func rtLayers(out *outcome, invokes int, sum rtSummary) (map[string]float64, error) {
	l := out.layer
	l["realtime.invokes"] = float64(invokes)
	l["realtime.wait_ms_p50"] = median(sum.waitMs)
	l["realtime.wait_ms_p99"], _ = tail(sum.waitMs, 0.99)
	l["realtime.return_us_p50"] = median(sum.returnUs)
	// The runtime shares the cluster, controller and metrics packages with
	// the simulator; their replay prices apply here too.
	if _, err := replayControlLayers(l); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	return l, nil
}

func rtTraceWrite(rc runConfig, calls []rtCall, l map[string]float64) error {
	tr := newTracer()
	traceCalls(tr, calls)
	if err := tr.write(rc.outDir, rc.workload, rc.seed, l); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
