package main

import (
	"fmt"
	"time"

	"lass/internal/allocation"
	"lass/internal/queuing"
)

var (
	churnFull  = churnSize{regions: 2, metros: 5, sitesPerMetro: 10, fns: 8}
	churnQuick = churnSize{regions: 2, metros: 2, sitesPerMetro: 5, fns: 4}
)

const (
	churnWarmup        = 200 // unmeasured epochs before first readiness
	churnFailoverEvery = 40  // every 40th epoch a new coordinator starts cold
	// churnEpochBudget is the operator's deadline for one control epoch: the
	// paper's claim is reprovisioning "within hundreds of milliseconds", so
	// an epoch that takes longer than this misses its SLO.
	churnEpochBudget = 100 * time.Millisecond
)

// controlPlane is control_churn's closed loop: one caller that, every
// epoch, re-sizes each function at each site from its arrival rate with
// the M/M/c solver and then runs the hierarchical allocator over all
// sites' demands — a metro coordinator's per-epoch work with no simulator
// around it.
type controlPlane struct {
	in    churnInput
	rates [][]float64
	hints [][]int
	prev  [][]int64 // last epoch's desires, to count dirty sites
	slo   queuing.SLO
	alloc *allocation.Allocator
	epoch int
}

func newControlPlane(in churnInput) (*controlPlane, error) {
	cp := &controlPlane{
		in:    in,
		rates: make([][]float64, len(in.sites)),
		hints: make([][]int, len(in.sites)),
		prev:  make([][]int64, len(in.sites)),
		slo:   queuing.SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true},
	}
	for i := range in.sites {
		cp.rates[i] = append([]float64(nil), in.base[i]...)
		cp.hints[i] = make([]int, len(in.base[i]))
		cp.prev[i] = make([]int64, len(in.base[i]))
	}
	return cp, cp.failover()
}

// failover is a coordinator change: the new seat has no allocator caches
// and no sizing hints.
func (cp *controlPlane) failover() error {
	for i := range cp.hints {
		clear(cp.hints[i])
	}
	cp.alloc = allocation.NewAllocator()
	return cp.alloc.SetHierarchy(cp.in.tree, true)
}

// perturb moves churnSwingSites sites' arrival rates: a hot spot rolling
// through the fleet, each function scaled by a fixed multiplier cycle with
// bursts, collapses and partial recoveries.
func (cp *controlPlane) perturb() {
	mult := [...]float64{1, 1.8, 0.4, 2.6, 0.1, 1.2, 0.7, 3.0}
	e := cp.epoch
	for k := 0; k < churnSwingSites; k++ {
		i := (e*churnSwingSites + k) % len(cp.rates)
		for j := range cp.rates[i] {
			cp.rates[i][j] = cp.in.base[i][j] * mult[(e+i+j)%len(mult)]
		}
	}
}

// epochStats is what one control epoch measured and checked.
type epochStats struct {
	cold      bool
	total     time.Duration
	dirty     int   // sites whose desires changed since last epoch
	reclaimed int64 // millicores moved by reclaim
	problem   string
}

// step runs one epoch: perturb the inputs, then — timed — size every
// function (seeding each scan at last epoch's answer) and allocate. The
// result is checked after the clock stops.
func (cp *controlPlane) step(tr *tracer) (epochStats, error) {
	cp.epoch++
	var st epochStats
	st.cold = cp.epoch%churnFailoverEvery == 0
	cp.perturb()
	op := uint64(cp.epoch)
	name, sizeName, allocName := "control.epoch", "queuing.size", "allocation.allocate"
	if st.cold {
		name, sizeName, allocName = "control.epoch_cold", "queuing.size_cold", "allocation.allocate_cold"
	}
	root := tr.start(name, 0, op)
	start := now()
	if st.cold {
		if err := cp.failover(); err != nil {
			return st, err
		}
	}
	sites := cp.in.sites
	_, err := stopwatch(tr, sizeName, root.id, op, func() error {
		for i := range sites {
			fns := sites[i].Functions
			for j := range fns {
				c, err := queuing.MinimalContainersFrom(cp.rates[i][j], cp.in.mus[(i+j)%len(cp.in.mus)], cp.slo, cp.hints[i][j])
				if err != nil {
					return err
				}
				cp.hints[i][j] = c
				fns[j].DesiredCPU = int64(c) * churnCPUPerContainer
			}
		}
		return nil
	})
	if err != nil {
		return st, err
	}
	var res *allocation.Result
	_, err = stopwatch(tr, allocName, root.id, op, func() error {
		res, err = cp.alloc.Allocate(sites, true)
		return err
	})
	st.total = since(start)
	root.end()
	if err != nil {
		return st, err
	}
	for i := range sites {
		changed := false
		for j, fd := range sites[i].Functions {
			if cp.prev[i][j] != fd.DesiredCPU {
				changed = true
				cp.prev[i][j] = fd.DesiredCPU
			}
		}
		if changed {
			st.dirty++
		}
	}
	st.reclaimed = res.ReclaimedCPU
	st.problem = checkGrants(sites, res)
	return st, nil
}

// checkGrants verifies the allocator's safety invariants for one epoch:
// every site's grants fit its capacity, and each grant's deserved/borrowed
// split adds up (borrowed is exactly the part of the grant above quota).
func checkGrants(sites []allocation.SiteDemand, res *allocation.Result) string {
	granted := make(map[string]int64, len(sites))
	for _, g := range res.Grants {
		granted[g.Site] += g.GrantedCPU
		if g.GrantedCPU < 0 || g.BorrowedCPU != max(0, g.GrantedCPU-g.DeservedCPU) {
			return fmt.Sprintf("grant %s/%s: granted %d, deserved %d, borrowed %d do not add up",
				g.Site, g.Function, g.GrantedCPU, g.DeservedCPU, g.BorrowedCPU)
		}
	}
	for _, s := range sites {
		if granted[s.Site] > s.CapacityCPU {
			return fmt.Sprintf("site %s granted %d mC over its %d mC capacity", s.Site, granted[s.Site], s.CapacityCPU)
		}
	}
	return ""
}

// setupControlPlane builds the demand set from the seed and runs the
// unmeasured warm-up epochs: construction through first readiness.
func setupControlPlane(rc runConfig) (*controlPlane, time.Duration, error) {
	sz, warmup := churnFull, churnWarmup
	if rc.quick {
		sz, warmup = churnQuick, 20
	}
	start := now()
	cp, err := newControlPlane(genChurn(rc.seed, sz))
	if err != nil {
		return nil, 0, err
	}
	for e := 0; e < warmup; e++ {
		st, err := cp.step(nil)
		if err != nil {
			return nil, 0, err
		}
		if st.problem != "" {
			return nil, 0, fmt.Errorf("warm-up epoch %d: %s", cp.epoch, st.problem)
		}
	}
	return cp, since(start), nil
}

// runControlChurn is the control_churn workload: closed loop, one caller.
func runControlChurn(rc runConfig) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	// Set up three times and keep the last: setup_s is a median, and the
	// measured loop then starts from a freshly warmed control plane.
	var setups []float64
	var cp *controlPlane
	for i := 0; i < 3; i++ {
		var d time.Duration
		var err error
		if cp, d, err = setupControlPlane(rc); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	var all, warmMs, coldMs []float64
	var busy time.Duration
	var dirty, met int
	var reclaimed int64
	var mem memDelta
	var plain, traced []float64 // warm epoch ms by kind, for trace overhead
	begin := now()
	for since(begin) < rc.budget() || len(all) < 2*churnFailoverEvery {
		// A traced run alternates blocks of untraced and traced epochs, so
		// the two see the same mix of warm and cold ones.
		useTracer := tr
		if (len(all)/churnFailoverEvery)%2 == 0 {
			useTracer = nil
		}
		var before memDelta
		if tr != nil {
			before = readMem()
		}
		st, err := cp.step(useTracer)
		if err != nil {
			return nil, err
		}
		ms := st.total.Seconds() * 1e3
		all = append(all, ms)
		busy += st.total
		out.attempted++
		if st.problem != "" {
			out.failed++
			if len(out.problems) < 5 {
				out.fail("epoch %d: %s", cp.epoch, st.problem)
			}
		} else if st.total <= churnEpochBudget {
			met++
		}
		dirty += st.dirty
		reclaimed += st.reclaimed
		if st.cold {
			coldMs = append(coldMs, ms)
			continue
		}
		warmMs = append(warmMs, ms)
		if tr != nil {
			mem.mallocs += readMem().sub(before).mallocs
			if useTracer != nil {
				traced = append(traced, ms)
			} else {
				plain = append(plain, ms)
			}
		}
	}
	if reclaimed == 0 {
		out.fail("reclaim never fired: allocation.reclaimed_mc is 0 over %d epochs", len(all))
	}
	p99, used := tail(all, 0.99)
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_sec"] = float64(len(all)) / busy.Seconds()
	out.e2e["op_ms_p50"] = median(all)
	out.e2e["op_ms_p99"] = p99
	out.e2e["slo_attainment"] = float64(met) / float64(len(all))
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.info("%d epochs (%d cold failovers); op_ms_p99 is the p%g of %d samples; slo = epoch within %v and safe",
		len(all), len(coldMs), used*100, len(all), churnEpochBudget)

	if tr != nil {
		l := out.layer
		nfn := float64(len(cp.in.sites) * len(cp.in.sites[0].Functions))
		warmSize, coldSize := tr.series("queuing.size"), tr.series("queuing.size_cold")
		l["queuing.size_calls"] = float64(len(all)) * nfn
		l["queuing.size_ns_warm"] = perCall(float64(warmSize.total), float64(warmSize.count)*nfn)
		l["queuing.size_ns_cold"] = perCall(float64(coldSize.total), float64(coldSize.count)*nfn)
		l["queuing.size_ms_per_epoch_p50"] = warmSize.quantileNs(0.5) / 1e6
		warmAlloc, coldAlloc := tr.series("allocation.allocate"), tr.series("allocation.allocate_cold")
		l["allocation.allocate_ms_p50"] = warmAlloc.quantileNs(0.5) / 1e6
		l["allocation.allocate_ms_p99"] = warmAlloc.quantileNs(tailPercentile(int(warmAlloc.count), 0.99)) / 1e6
		l["allocation.cold_allocate_ms_p50"] = coldAlloc.quantileNs(0.5) / 1e6
		l["allocation.allocs_per_epoch_warm"] = perCall(float64(mem.mallocs), float64(len(warmMs)))
		l["allocation.dirty_site_frac"] = float64(dirty) / float64(len(all)*len(cp.in.sites))
		l["allocation.reclaimed_mc"] = float64(reclaimed)
		l["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
		if _, err := replayControlLayers(l); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		if err := tr.write(rc.outDir, rc.workload, rc.seed, l); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}

func perCall(total, calls float64) float64 {
	if calls == 0 {
		return 0
	}
	return total / calls
}
