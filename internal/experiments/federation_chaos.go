package experiments

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"lass/internal/chaos"
	"lass/internal/federation"
	"lass/internal/scenario"
)

// chaosVariant is one column family of the chaos sweep: a coordinator
// election mode crossed with a grant-lease mode, run over every chaos
// replicate.
type chaosVariant struct {
	coordinator string // "fixed" | "centroid"
	grants      string // "leased" | "frozen"
	election    federation.CoordinatorElection
	lease       time.Duration // 0 = default 2x epoch, negative = frozen
}

var chaosVariants = []chaosVariant{
	{coordinator: "fixed", grants: "leased", election: federation.Fixed},
	{coordinator: "fixed", grants: "frozen", election: federation.Fixed, lease: -1},
	{coordinator: "centroid", grants: "leased", election: federation.RTTCentroid},
	{coordinator: "centroid", grants: "frozen", election: federation.RTTCentroid, lease: -1},
}

// chaosSweepFaults is the failure distribution every replicate draws its
// realization from: a Gilbert-Elliott coordinator outage process (mean
// 1.5 units up, 2.5 units down — long multi-epoch control-plane outages,
// so frozen grants stay bound to stale sizes across demand shifts while
// leased grants expire and fall back to local enforcement) plus a GE
// partial partition on the hot-site spoke (site 0 <-> the hub), which
// exercises asymmetric lease expiry, partitioned epochs, and dropped
// grants without silencing the rest of the fleet.
func chaosSweepFaults(nsites, hub int, seed uint64, unit time.Duration) (*chaos.Engine, error) {
	return chaos.New(chaos.Config{
		Sites: nsites,
		Seed:  seed,
		Faults: []chaos.Fault{
			{Kind: chaos.FaultCoordinator,
				GE: &chaos.GilbertElliott{MeanUp: 3 * unit / 2, MeanDown: 5 * unit / 2}},
			{Kind: chaos.FaultLink, From: 0, To: hub, Bidirectional: true,
				GE: &chaos.GilbertElliott{MeanUp: 4 * unit, MeanDown: unit / 2}},
		},
	})
}

// chaosSweepHeader is the chaos sweep's shape: one row per
// (coordinator, grants) variant.
var chaosSweepHeader = []string{"coordinator", "grants", "replicates",
	"mean-viol", "p95-viol", "mean-missed", "p95-missed",
	"mean-part-epochs", "mean-grants-lost", "mean-lease-exp", "mean-viol-rate"}

func meanU64(xs []uint64) float64 {
	var sum uint64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// p95U64 is the nearest-rank 95th percentile of a small sample.
func p95U64(xs []uint64) uint64 {
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (95*len(s) + 99) / 100 // ceil(0.95 n)
	return s[rank-1]
}

func meanF64(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// FederationChaos sweeps coordinator election (fixed vs RTT-centroid)
// crossed with grant leasing (leased vs frozen) across N seeded failure
// realizations of one chaos distribution — a Gilbert-Elliott coordinator
// flicker plus a GE partial partition cutting the hot site off the hub —
// on the asymmetric-star burst scenario. Replicates are paired: replicate
// r of every variant draws the identical chaos seed, and only the chaos
// seed varies between replicates (the workload stays pinned to opt.Seed),
// so the sweep compares policies across failure realizations rather than
// across workloads. The experiment reports mean and p95 (nearest-rank) of
// SLO violations and missed allocation epochs per variant and
// hard-asserts the tentpole claim distributionally: for each election
// mode, leased grants beat frozen grants on mean violations across the
// replicate set, and no frozen run records a single lease expiration.
func FederationChaos(opt Options) (*Table, error) {
	// Seeded failure realizations per variant: eight is the floor the
	// leased-beats-frozen mean assertion is calibrated for.
	const reps = 8
	baseSeed := opt.Seed ^ 0xc4a05
	t := &Table{
		ID:     "federation-chaos",
		Title:  "Chaos sweep: election x grant-lease across seeded failure realizations (asymmetric star)",
		Header: append([]string(nil), chaosSweepHeader...),
	}
	unit := opt.dur(time.Minute, 10*time.Second)
	topo, hub, err := coordinatorTopology()
	if err != nil {
		return nil, err
	}
	placer, err := federation.PlacerByName("model-driven")
	if err != nil {
		return nil, err
	}
	// Every (variant, replicate) pair is an independent cell; rows are
	// emitted afterwards in variant order.
	results, err := runCells(len(chaosVariants)*reps, opt.SweepWorkers, func(i int) (federation.Config, time.Duration, error) {
		v := chaosVariants[i/reps]
		sites, end, err := burstSites(opt, unit, 4, 0xc00d)
		if err != nil {
			return federation.Config{}, 0, err
		}
		faults, err := chaosSweepFaults(len(sites), hub, baseSeed+uint64(i%reps), unit)
		return federation.Config{
			Sites:                 sites,
			Placer:                placer,
			Seed:                  opt.fedSeed(),
			Topology:              topo,
			GlobalFairShare:       true,
			OffloadAwareAdmission: true,
			CloudMaxConcurrency:   throttledCloud,
			CoordinatorElection:   v.election,
			GrantLease:            v.lease,
			Faults:                faults,
		}, end, err
	})
	if err != nil {
		return nil, err
	}
	meanViol := make(map[string]float64, len(chaosVariants))
	for vi, v := range chaosVariants {
		viol := make([]uint64, reps)
		missed := make([]uint64, reps)
		var part, lost, leaseExp []uint64
		var rates []float64
		for r := 0; r < reps; r++ {
			res := results[vi*reps+r]
			violated, observed := violations(res.Sites)
			viol[r] = violated
			missed[r] = res.MissedAllocEpochs
			part = append(part, res.PartitionedEpochs)
			lost = append(lost, res.GrantsLost)
			leaseExp = append(leaseExp, res.GrantLeaseExpirations)
			rates = append(rates, violationRate(violated, observed))
		}
		label := v.coordinator + "/" + v.grants
		meanViol[label] = meanU64(viol)
		t.AddRow(v.coordinator, v.grants,
			fmt.Sprintf("%d", reps),
			fmt.Sprintf("%.1f", meanU64(viol)),
			fmt.Sprintf("%d", p95U64(viol)),
			fmt.Sprintf("%.1f", meanU64(missed)),
			fmt.Sprintf("%d", p95U64(missed)),
			fmt.Sprintf("%.1f", meanU64(part)),
			fmt.Sprintf("%.1f", meanU64(lost)),
			fmt.Sprintf("%.1f", meanU64(leaseExp)),
			fmt.Sprintf("%.4f", meanF64(rates)))
		if v.grants == "frozen" {
			for r, e := range leaseExp {
				if e != 0 {
					return nil, fmt.Errorf("experiments: frozen-grants %s replicate %d recorded %d lease expirations; want 0",
						v.coordinator, r, e)
				}
			}
		}
	}
	for _, coord := range []string{"fixed", "centroid"} {
		leased, frozen := meanViol[coord+"/leased"], meanViol[coord+"/frozen"]
		if leased >= frozen {
			return nil, fmt.Errorf("experiments: %s election: leased grants did not beat frozen on mean violations across %d replicates: %.1f (leased) vs %.1f (frozen)",
				coord, reps, leased, frozen)
		}
	}
	t.AddNote("fault distribution: GE coordinator outages (mean up 1.5u, down 2.5u) + GE partial partition site 0 <-> hub (mean up 4u, down u/2), u=%v", unit)
	t.AddNote("replicates are paired: replicate r of every variant draws chaos seed %d+r; the workload stays pinned to seed %d", baseSeed, opt.Seed)
	t.AddNote("asserted: for each election mode, mean violations leased < frozen across %d replicates; frozen runs record zero lease expirations", reps)
	return t, nil
}

// scenarioRunHeader is the scenario experiment's shape: one row per
// (scenario file, replicate).
var scenarioRunHeader = []string{"scenario", "replicate", "chaos-seed",
	"violations", "viol-rate", "missed-epochs", "part-epochs",
	"grants-lost", "lease-exp", "assertions"}

// ScenarioSuite lists the committed suite: every scenarios/*.yaml under the
// working directory, sorted.
func ScenarioSuite() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join("scenarios", "*.yaml"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("experiments: no scenario files under scenarios/ (run from the repository root)")
	}
	sort.Strings(paths)
	return paths, nil
}

// ScenarioRun is the registry's scenario experiment: the committed suite,
// one run per file at its authored chaos seed.
func ScenarioRun(opt Options) (*Table, error) {
	paths, err := ScenarioSuite()
	if err != nil {
		return nil, err
	}
	return RunScenarios(paths, 0, 0, opt.SweepWorkers)
}

// RunScenarios loads the declarative scenario files at paths and runs each
// one replicates times (0 = once) under chaos seeds base, base+1, ... —
// base is the file's chaos.seed, or chaosSeed when non-zero — while the
// workload stays pinned: the seed/replication semantics documented in
// README. A replicate whose chaos seed is the file's own authored seed must
// pass the file's assertions or the run fails; re-seeded replicates report
// pass/fail per row without failing the run, since assertions are authored
// against one realization. workers is Options.SweepWorkers.
func RunScenarios(paths []string, chaosSeed int64, replicates, workers int) (*Table, error) {
	if chaosSeed < 0 || replicates < 0 {
		return nil, fmt.Errorf("experiments: negative chaos seed %d or replicate count %d", chaosSeed, replicates)
	}
	reps := max(replicates, 1)
	scs := make([]*scenario.Scenario, len(paths))
	for i, p := range paths {
		sc, err := scenario.Load(p)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	t := &Table{
		ID:     "scenario",
		Title:  "Declarative scenario runs",
		Header: append([]string(nil), scenarioRunHeader...),
	}
	seedOf := func(sc *scenario.Scenario, r int) int64 {
		if chaosSeed != 0 {
			return chaosSeed + int64(r)
		}
		return int64(sc.Chaos.Seed) + int64(r)
	}
	results, err := runCells(len(scs)*reps, workers, func(i int) (federation.Config, time.Duration, error) {
		sc := scs[i/reps]
		cfg, err := sc.Build(seedOf(sc, i%reps))
		return cfg, sc.Duration, err
	})
	if err != nil {
		return nil, err
	}
	for si, sc := range scs {
		for r := 0; r < reps; r++ {
			res, seed := results[si*reps+r], seedOf(sc, r)
			violated, observed := violations(res.Sites)
			checkErr := sc.Check(res)
			verdict := "ok"
			if checkErr != nil {
				verdict = "FAIL: " + checkErr.Error()
			}
			t.AddRow(sc.Name,
				fmt.Sprintf("%d", r),
				fmt.Sprintf("%d", seed),
				fmt.Sprintf("%d", violated),
				fmt.Sprintf("%.4f", violationRate(violated, observed)),
				fmt.Sprintf("%d", res.MissedAllocEpochs),
				fmt.Sprintf("%d", res.PartitionedEpochs),
				fmt.Sprintf("%d", res.GrantsLost),
				fmt.Sprintf("%d", res.GrantLeaseExpirations),
				verdict)
			if checkErr != nil && seed == int64(sc.Chaos.Seed) {
				return nil, fmt.Errorf("experiments: scenario %s (authored chaos seed %d): %w",
					sc.Name, seed, checkErr)
			}
		}
	}
	t.AddNote("replicates re-run the same pinned workload under chaos seeds base..base+n-1; only the authored-seed replicate must pass its assertions")
	return t, nil
}
