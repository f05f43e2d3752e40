package experiments

import (
	"fmt"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/federation"
	"lass/internal/functions"
	"lass/internal/workload"
)

// siteBuilder produces fresh per-site configs and the run duration for one
// federation sweep iteration. Sweeps rebuild the sites per policy so every
// policy sees identical seeds and schedules.
type siteBuilder func() ([]core.Config, time.Duration, error)

// edgeSite is the standard one-node edge box of the federation scenarios:
// 4 cores ≈ 40 req/s of SqueezeNet capacity.
func edgeSite(spec functions.Spec, wl *workload.Schedule, seed uint64) core.Config {
	return core.Config{
		Cluster:    cluster.Config{Nodes: 1, CPUPerNode: 4000, MemPerNode: 8192, Policy: cluster.WorstFit},
		Controller: controller.Config{MinContainers: 1},
		Seed:       seed,
		Functions:  []core.FunctionConfig{{Spec: spec, Workload: wl, Prewarm: 1}},
	}
}

// federationSites builds the three-site scenario the synthetic offload
// sweep runs on: every site serves SqueezeNet; site edge-0 takes a
// 3×-overload burst mid-run while its two peers stay lightly loaded, so
// shedding has both a nearby absorber and a cloud fallback to choose from.
func federationSites(opt Options, unit time.Duration) ([]core.Config, time.Duration, error) {
	spec, err := functions.ByName("squeezenet")
	if err != nil {
		return nil, 0, err
	}
	end := 9 * unit
	rates := [][]workload.Step{
		{{Start: 0, Rate: 20}, {Start: 3 * unit, Rate: 120}, {Start: 6 * unit, Rate: 20}},
		{{Start: 0, Rate: 10}},
		{{Start: 0, Rate: 10}},
	}
	var sites []core.Config
	for i, steps := range rates {
		wl, err := workload.NewSteps(steps)
		if err != nil {
			return nil, 0, err
		}
		sites = append(sites, edgeSite(spec, wl, opt.Seed^uint64(0xfed1+i)))
	}
	return sites, end, nil
}

// fedSeed is the federation-level RNG seed of every sweep cell; the site
// seeds are salted per sweep.
func (o Options) fedSeed() uint64 { return o.Seed ^ 0xfedc }

// throttledCloud is the per-function cloud concurrency cap of the
// allocator sweeps — the real FaaS concurrency limit. A throttled cloud is
// what makes edge-side efficiency matter: with an unbounded 100ms-away
// cloud, stranded edge capacity is free to waste and every policy can hide
// its placement mistakes behind infinite remote capacity.
const throttledCloud = 2

// runCells runs n independent federation cells on up to workers goroutines
// (see forEachCell). cell(i) returns run i's configuration — built fresh,
// so every cell owns its sites, engine, and RNG streams — and its simulated
// length; results come back by cell index, so callers emit rows in
// canonical order and the table is byte-identical at any worker count.
func runCells(n, workers int, cell func(i int) (federation.Config, time.Duration, error)) ([]*federation.Result, error) {
	results := make([]*federation.Result, n)
	err := forEachCell(n, workers, func(i int) error {
		cfg, end, err := cell(i)
		if err != nil {
			return err
		}
		fed, err := federation.New(cfg)
		if err != nil {
			return err
		}
		results[i], err = fed.Run(end)
		return err
	})
	return results, err
}

// violations tallies the sites' SLO misses and the requests they are
// measured against. Unresolved requests (still backlogged at run end)
// count on both sides: excluding them would flatter exactly the policies
// that strand the most work.
func violations(sites []federation.SiteResult) (violated, observed uint64) {
	for i := range sites {
		violated += sites[i].Violations()
		observed += sites[i].SLO.Total() + sites[i].Unresolved
	}
	return violated, observed
}

// federationSweepHeader is shared by the synthetic, trace-driven,
// fair-share, and coordinator sweeps; the violation rate stays the last
// column so downstream tooling can key on it. The stranded-capacity,
// cross-site-drift, coordinator, missed-epoch, lease-expiry, and
// grant-delay columns are federation-level allocator measurements,
// reported on the aggregate row (blank per site; "-"/zero under
// per-site-local allocation).
var federationSweepHeader = []string{"policy", "alloc", "site", "arrivals", "local", "to-peer",
	"to-cloud", "rejected", "cloud-cold", "cloud-cost-$", "stranded-mC", "drift-mC",
	"coordinator", "missed-epochs", "lease-exp", "grant-delay-ms",
	"p95 resp ms", "violation rate"}

// coordinatorLabel names the aggregate row's coordinator column: the
// election mode and the elected site index, or "-" under per-site-local
// allocation (no coordinator exists).
func coordinatorLabel(res *federation.Result) string {
	if !res.GlobalFairShare {
		return "-"
	}
	return fmt.Sprintf("%s@%d", res.Election, res.Coordinator)
}

// allocLabel names the allocation mode column value.
func allocLabel(global bool) string {
	if global {
		return "global"
	}
	return "local"
}

// addFederationRows appends one run's per-site and aggregate rows to the
// table.
func addFederationRows(t *Table, res *federation.Result) {
	alloc := allocLabel(res.GlobalFairShare)
	policy := res.Placer
	var arrivals, local, toPeer, toCloud, rejected, coldStarts uint64
	var cost float64
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
		coldStarts += s.CloudColdStarts
		cost += s.CloudCost
		t.AddRow(policy, alloc, s.Name,
			fmt.Sprintf("%d", sa),
			fmt.Sprintf("%d", s.ServedLocal),
			fmt.Sprintf("%d", s.OffloadedPeer),
			fmt.Sprintf("%d", s.OffloadedCloud),
			fmt.Sprintf("%d", s.Rejected),
			fmt.Sprintf("%d", s.CloudColdStarts),
			fmt.Sprintf("%.6f", s.CloudCost),
			"", "", "", "", "", "",
			msF(s.Responses.Quantile(0.95)),
			fmt.Sprintf("%.4f", s.ViolationRate()))
	}
	t.AddRow(policy, alloc, "all",
		fmt.Sprintf("%d", arrivals),
		fmt.Sprintf("%d", local),
		fmt.Sprintf("%d", toPeer),
		fmt.Sprintf("%d", toCloud),
		fmt.Sprintf("%d", rejected),
		fmt.Sprintf("%d", coldStarts),
		fmt.Sprintf("%.6f", cost),
		fmt.Sprintf("%.0f", res.MeanStrandedCPU),
		fmt.Sprintf("%.0f", res.MeanAllocDriftCPU),
		coordinatorLabel(res),
		fmt.Sprintf("%d", res.MissedAllocEpochs),
		fmt.Sprintf("%d", res.GrantLeaseExpirations),
		ms(res.MeanGrantDelay),
		"",
		fmt.Sprintf("%.4f", violationRate(violations(res.Sites))))
}

// sweepFederationPolicies runs every registered placement policy over
// freshly built sites, appends per-site and aggregate rows to the table,
// and verifies the never policy bit-for-bit against standalone runs. The
// sweep runs under per-site-local allocation, which is where that
// pure-superset invariant holds: global grants legitimately change pool
// sizing.
func sweepFederationPolicies(t *Table, opt Options, build siteBuilder) error {
	names := federation.PlacerNames()
	results, err := runCells(len(names), opt.SweepWorkers, func(i int) (federation.Config, time.Duration, error) {
		placer, err := federation.PlacerByName(names[i])
		if err != nil {
			return federation.Config{}, 0, err
		}
		sites, end, err := build()
		return federation.Config{Sites: sites, Placer: placer, Seed: opt.fedSeed()}, end, err
	})
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.Placer == "never" {
			if err := checkNeverBaseline(build, res); err != nil {
				return err
			}
		}
		addFederationRows(t, res)
	}
	return nil
}

// Federation sweeps every registered placement policy (the six built-ins,
// plus any custom placers registered at run time) over the three-site
// edge–cloud scenario and reports, per policy and site, where requests
// were served, the cloud cold starts and cost they incurred, and the
// end-to-end SLO-violation rate (response time including network RTT,
// 250 ms deadline).
//
// The never policy is additionally cross-checked against standalone
// single-cluster runs of the same per-site configurations: the federation
// must reproduce those results bit-for-bit, or the experiment fails.
func Federation(opt Options) (*Table, error) {
	t := &Table{
		ID:     "federation",
		Title:  "Edge–cloud federation: offload policy sweep (3 edge sites + cloud)",
		Header: federationSweepHeader,
	}
	unit := opt.dur(time.Minute, 10*time.Second)
	if err := sweepFederationPolicies(t, opt, func() ([]core.Config, time.Duration, error) {
		return federationSites(opt, unit)
	}); err != nil {
		return nil, err
	}
	t.AddNote("policy=never verified bit-for-bit against standalone single-cluster runs of each site")
	t.AddNote("end-to-end SLO: response (network RTT included) within 250 ms; edge-0 bursts to 3x capacity mid-run")
	t.AddNote("requests still unserved at run end count as violations, so backlogged policies are not flattered by survivorship")
	t.AddNote("cloud offloads pay a cold start when no warm instance is idle and accrue per-invocation + GB-second cost")
	return t, nil
}

func violationRate(violated, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(violated) / float64(total)
}

// checkNeverBaseline re-runs each site of the never-policy federation as a
// standalone single-cluster platform and demands identical measurements
// across every queue counter — the acceptance bar for the federation layer
// being a pure superset of the existing stack.
func checkNeverBaseline(build siteBuilder, fres *federation.Result) error {
	sites, end, err := build()
	if err != nil {
		return err
	}
	for i, cfg := range sites {
		p, err := core.New(cfg)
		if err != nil {
			return err
		}
		want, err := p.Run(end)
		if err != nil {
			return err
		}
		for _, fc := range cfg.Functions {
			fn := fc.Spec.Name
			got := fres.Sites[i].Core.Functions[fn]
			ref := want.Functions[fn]
			counters := []struct {
				name      string
				got, want uint64
			}{
				{"arrivals", got.Arrivals, ref.Arrivals},
				{"completed", got.Completed, ref.Completed},
				{"timed-out", got.TimedOut, ref.TimedOut},
				{"requeued", got.Requeued, ref.Requeued},
				{"offloaded", got.Offloaded, ref.Offloaded},
				{"rejected", got.Rejected, ref.Rejected},
				{"SLO violations", got.SLO.Violations(), ref.SLO.Violations()},
			}
			for _, c := range counters {
				if c.got != c.want {
					return fmt.Errorf("federation: never-policy site %d %s %s %d != standalone %d",
						i, fn, c.name, c.got, c.want)
				}
			}
			if g, w := got.Waits.Quantile(0.95), ref.Waits.Quantile(0.95); g != w {
				return fmt.Errorf("federation: never-policy site %d %s P95 wait %v != standalone %v", i, fn, g, w)
			}
		}
	}
	return nil
}
