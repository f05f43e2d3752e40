package experiments

import (
	"fmt"
	"time"

	"lass/internal/allocation"
	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/federation"
	"lass/internal/functions"
	"lass/internal/workload"
)

// hierarchyScenarios are the allocation-mode rows the hierarchy sweep
// reports, in order. "flat" is the site-level water-fill (no quota tree),
// "borrow" adds the region→metro→site hierarchy with over-quota
// borrowing, and "reclaim" additionally lets deserved-starved functions
// preempt borrowed capacity back.
var hierarchyScenarios = []string{"flat", "borrow", "reclaim"}

// hierarchySweepHeader is the hierarchy sweep's shape; the reclaimed /
// preempted columns are the landed-commit counters (millicores, both
// sides of each commit).
var hierarchySweepHeader = []string{"mode", "site", "arrivals", "local", "to-peer",
	"to-cloud", "rejected", "reclaimed-mC", "preempted-mC",
	"p95 resp ms", "violation rate"}

// hierarchySites builds the canonical reclaim fleet, one metro of three
// sites. The tiny site's squeezenet desire dwarfs its one-container
// cluster while its deserved share (a third of the metro) also exceeds
// that capacity, so the function is deserved-starved every epoch. The
// near-idle geofence site desires almost nothing, so the entitlement
// water-fill donates its unclaimed deserved share to the big peer — whose
// capacity binaryalert then saturates far above its own deserved quota
// (borrowed, revocable), and whose lack of spare leaves the spread pass
// nothing to compensate the starved function with (the geofence site does
// not serve squeezenet). Only reclaim recovers the quota, by preempting
// the big peer's borrowed binaryalert grant in favour of squeezenet.
func hierarchySites(opt Options) ([]core.Config, error) {
	site := func(cl cluster.Config, seed uint64, fns ...core.FunctionConfig) core.Config {
		return core.Config{
			Cluster:    cl,
			Controller: controller.Config{MinContainers: 1},
			Seed:       seed,
			Functions:  fns,
		}
	}
	fn := func(name string, rate float64) (core.FunctionConfig, error) {
		spec, err := functions.ByName(name)
		if err != nil {
			return core.FunctionConfig{}, err
		}
		wl, err := workload.NewStatic(rate)
		if err != nil {
			return core.FunctionConfig{}, err
		}
		return core.FunctionConfig{Spec: spec, Workload: wl, Prewarm: 1}, nil
	}
	sqHot, err := fn("squeezenet", 120)
	if err != nil {
		return nil, err
	}
	sqIdle, err := fn("squeezenet", 0.2)
	if err != nil {
		return nil, err
	}
	baHot, err := fn("binaryalert", 500)
	if err != nil {
		return nil, err
	}
	geoIdle, err := fn("geofence", 1)
	if err != nil {
		return nil, err
	}
	tiny := cluster.Config{Nodes: 1, CPUPerNode: 1000, MemPerNode: 512, Policy: cluster.WorstFit}
	return []core.Config{
		site(tiny, opt.Seed^0x41e0, sqHot),
		site(cluster.PaperCluster(), opt.Seed^0x41e1, sqIdle, baHot),
		site(cluster.PaperCluster(), opt.Seed^0x41e2, geoIdle),
	}, nil
}

// hierarchyMetro places the three default-named sites into a single leaf
// metro under the root — the quota tree both hierarchical modes share.
func hierarchyMetro() *allocation.Hierarchy {
	return &allocation.Hierarchy{Root: &allocation.Group{ID: "m0",
		Sites: []string{"edge-0", "edge-1", "edge-2"}}}
}

// FederationHierarchy sweeps the global allocator's quota structure on
// the canonical starved/borrower/donor metro: flat site-level water-fill,
// the region→metro→site hierarchy with over-quota borrowing, and the
// hierarchy with cross-site reclaim of borrowed capacity. All three modes
// run the identical fleet, workload, topology, and metro-affine placement
// — only the allocator's quota tree and reclaim switch differ — so the
// sweep isolates what the hierarchy itself buys. The experiment
// hard-asserts the tentpole claims: only the reclaim mode lands commits
// (borrow-only and flat book zero on both counters), and reclaim strictly
// raises the starved site's SLO attainment over borrow-only, which
// strands the starved function's deserved share inside its peer's
// borrowed grant.
func FederationHierarchy(opt Options) (*Table, error) {
	t := &Table{
		ID:     "federation-hierarchy",
		Title:  "Hierarchical federation: flat vs quota-tree borrowing vs borrowing + cross-site reclaim",
		Header: append([]string(nil), hierarchySweepHeader...),
	}
	end := opt.dur(2*time.Minute, time.Minute)
	placer, err := federation.PlacerByName("metro-affine")
	if err != nil {
		return nil, err
	}
	// Each mode is an independent cell; rows are emitted in mode order.
	results, err := runCells(len(hierarchyScenarios), opt.SweepWorkers, func(i int) (federation.Config, time.Duration, error) {
		mode := hierarchyScenarios[i]
		sites, err := hierarchySites(opt)
		cfg := federation.Config{
			Sites:                 sites,
			Placer:                placer,
			Seed:                  opt.fedSeed(),
			GlobalFairShare:       true,
			OffloadAwareAdmission: true,
			CloudMaxConcurrency:   throttledCloud,
		}
		if mode != "flat" {
			cfg.Hierarchy = hierarchyMetro()
			cfg.Reclaim = mode == "reclaim"
		}
		return cfg, end, err
	})
	if err != nil {
		return nil, err
	}
	for i, mode := range hierarchyScenarios {
		res := results[i]
		hier := mode != "flat"
		if res.Hierarchical != hier {
			return nil, fmt.Errorf("experiments: %s run reports Hierarchical=%v", mode, res.Hierarchical)
		}
		if mode == "reclaim" {
			if res.Reclaimed == 0 || res.Reclaimed != res.Preempted {
				return nil, fmt.Errorf("experiments: reclaim mode landed no balanced commits: Reclaimed=%d Preempted=%d",
					res.Reclaimed, res.Preempted)
			}
		} else if res.Reclaimed != 0 || res.Preempted != 0 {
			return nil, fmt.Errorf("experiments: %s mode booked reclaim commits: Reclaimed=%d Preempted=%d",
				mode, res.Reclaimed, res.Preempted)
		}
		var arrivals, local, toPeer, toCloud, rejected uint64
		for _, s := range res.Sites {
			var sa uint64
			for _, fr := range s.Core.Functions {
				sa += fr.Arrivals
			}
			arrivals += sa
			local += s.ServedLocal
			toPeer += s.OffloadedPeer
			toCloud += s.OffloadedCloud
			rejected += s.Rejected
			t.AddRow(mode, s.Name,
				fmt.Sprintf("%d", sa),
				fmt.Sprintf("%d", s.ServedLocal),
				fmt.Sprintf("%d", s.OffloadedPeer),
				fmt.Sprintf("%d", s.OffloadedCloud),
				fmt.Sprintf("%d", s.Rejected),
				fmt.Sprintf("%d", s.Reclaimed),
				fmt.Sprintf("%d", s.Preempted),
				msF(s.Responses.Quantile(0.95)),
				fmt.Sprintf("%.4f", s.ViolationRate()))
		}
		t.AddRow(mode, "all",
			fmt.Sprintf("%d", arrivals),
			fmt.Sprintf("%d", local),
			fmt.Sprintf("%d", toPeer),
			fmt.Sprintf("%d", toCloud),
			fmt.Sprintf("%d", rejected),
			fmt.Sprintf("%d", res.Reclaimed),
			fmt.Sprintf("%d", res.Preempted),
			"",
			fmt.Sprintf("%.4f", violationRate(violations(res.Sites))))
	}
	borrow, reclaim := results[1], results[2]
	starvedBorrow := borrow.Sites[0].ViolationRate()
	starvedReclaim := reclaim.Sites[0].ViolationRate()
	if starvedReclaim >= starvedBorrow {
		return nil, fmt.Errorf("experiments: reclaim did not raise the starved site's SLO attainment over borrow-only: violation rate %.4f (reclaim) vs %.4f (borrow)",
			starvedReclaim, starvedBorrow)
	}
	t.AddNote("fleet: edge-0 starved (1000mC, squeezenet 120/s), edge-1 borrower (12000mC, binaryalert 500/s + idle squeezenet), edge-2 donor (12000mC, near-idle geofence); one metro, equal weights")
	t.AddNote("all modes share fleet, workload, topology, and metro-affine placement; only the allocator's quota tree and reclaim switch differ")
	t.AddNote("asserted: commits land only under reclaim (both counters balanced, zero elsewhere), and reclaim's starved-site violation rate %.4f < borrow-only's %.4f",
		starvedReclaim, starvedBorrow)
	return t, nil
}
