package experiments

import (
	"fmt"
	"time"

	"lass/internal/allocation"
	"lass/internal/queuing"
	"lass/internal/xrand"
)

// ControlStats is one measured control-plane run: how many global epochs
// (per-function M/M/c sizing plus a federation-wide allocation) executed,
// how long they took, and how much they allocated.
type ControlStats struct {
	Scenario  string
	Sites     int
	Functions int // per site
	Epochs    uint64
	Wall      time.Duration
	Allocs    uint64 // heap allocations during the measured epochs
	Bytes     uint64 // heap bytes allocated during the measured epochs
}

// EpochsPerSec is the control plane's throughput headline.
func (s ControlStats) EpochsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Epochs) / s.Wall.Seconds()
}

// AllocsPerEpoch is the steady-state allocation headline: the warm sizer
// and the incremental allocator hold this at exactly zero when demand is
// unchanged.
func (s ControlStats) AllocsPerEpoch() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.Allocs) / float64(s.Epochs)
}

// controlCPUPerContainer converts the sizer's container counts into the
// allocator's millicore desires (a quarter-core function, the catalog's
// common shape).
const controlCPUPerContainer = 250

// controlSwingSites is how many of the sites get their arrival rates
// perturbed per epoch in the swing scenario — a rolling 5% hot spot.
const controlSwingSites = 5

// controlPlane is the bench's closed-loop control plane at metro scale:
// every epoch it re-sizes each function at each site from its arrival
// rate with the M/M/c solver (Algorithm 1's MinimalContainers), then runs
// the federation-wide three-pass allocator over all the sites' demands —
// the exact per-epoch work a metro coordinator does, minus the simulator
// around it.
type controlPlane struct {
	sites []allocation.SiteDemand
	base  [][]float64 // per-site per-function baseline arrival rates
	rates [][]float64 // current arrival rates (epoch inputs)
	hints [][]int     // previous epoch's container counts (warm-scan seeds)
	mus   []float64   // per-function service rates
	slo   queuing.SLO
	alloc *allocation.Allocator
}

// newControlPlane synthesizes the 100-site metro demand set: each site
// serves fns functions drawn from a shared 12-name pool at a site-specific
// offset, so neighbouring sites overlap — the shape that makes the
// allocator's overflow-spreading pass do real work.
func newControlPlane(seed uint64, nsites, fns int) *controlPlane {
	const pool = 12
	rng := xrand.New(seed ^ 0xc0b1)
	cp := &controlPlane{
		sites: make([]allocation.SiteDemand, nsites),
		base:  make([][]float64, nsites),
		rates: make([][]float64, nsites),
		hints: make([][]int, nsites),
		mus:   make([]float64, pool),
		slo:   queuing.SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true},
		alloc: allocation.NewAllocator(),
	}
	for j := range cp.mus {
		cp.mus[j] = 8 + float64(j%5) // 8..12 req/s per container
	}
	for i := range cp.sites {
		sfns := make([]allocation.FunctionDemand, fns)
		cp.base[i] = make([]float64, fns)
		cp.rates[i] = make([]float64, fns)
		cp.hints[i] = make([]int, fns)
		for j := range sfns {
			fn := (i + j) % pool
			sfns[j] = allocation.FunctionDemand{
				Name:       fmt.Sprintf("f%02d", fn),
				User:       fmt.Sprintf("u%d", fn%4),
				UserWeight: float64(fn%4 + 1),
				Weight:     float64(rng.Intn(4) + 1),
			}
			cp.base[i][j] = rng.Uniform(5, 60)
			cp.rates[i][j] = cp.base[i][j]
		}
		cp.sites[i] = allocation.SiteDemand{
			Site:        fmt.Sprintf("metro-%03d", i),
			CapacityCPU: 16_000,
			Functions:   sfns,
		}
	}
	return cp
}

// fnMu returns the service rate of site i's j-th function (functions are
// assigned from the pool at offset i).
func (cp *controlPlane) fnMu(i, j int) float64 {
	return cp.mus[(i+j)%len(cp.mus)]
}

// epoch runs one control epoch: size every function from its current rate
// (seeding the scan at last epoch's answer), then allocate globally.
func (cp *controlPlane) epoch() error {
	for i := range cp.sites {
		fns := cp.sites[i].Functions
		for j := range fns {
			c, err := queuing.MinimalContainersFrom(cp.rates[i][j], cp.fnMu(i, j), cp.slo, cp.hints[i][j])
			if err != nil {
				return err
			}
			cp.hints[i][j] = c
			fns[j].DesiredCPU = int64(c) * controlCPUPerContainer
		}
	}
	_, err := cp.alloc.Allocate(cp.sites, true)
	return err
}

// chill zeroes the warm state so the next epoch pays the cold price: sizer
// scans restart at the stability floor and the allocator rebuilds every
// per-site cache.
func (cp *controlPlane) chill() {
	for i := range cp.hints {
		clear(cp.hints[i])
	}
	cp.alloc = allocation.NewAllocator()
}

// swing perturbs controlSwingSites sites' arrival rates for epoch e: a hot
// spot rolling through the metro, each affected function scaled by a fixed
// multiplier cycle (bursts, collapses, and partial recoveries included).
func (cp *controlPlane) swing(e int) {
	mult := [...]float64{1, 1.8, 0.4, 2.6, 0.1, 1.2, 0.7, 3.0}
	for k := 0; k < controlSwingSites; k++ {
		i := (e*controlSwingSites + k) % len(cp.sites)
		for j := range cp.rates[i] {
			cp.rates[i][j] = cp.base[i][j] * mult[(e+i+j)%len(mult)]
		}
	}
}

// controlScenarios are the rows the control-plane bench reports, in order:
// the cold per-epoch price (fresh sizer scans + fresh allocator every
// epoch), the warm steady state (unchanged demand: warm hints + the
// incremental allocator's fast path, zero allocations), and a rolling
// 5%-of-sites demand swing on the warm path.
var controlScenarios = []string{"cold", "steady", "swing"}

// ControlEpochs measures epochs control epochs of the named scenario on an
// nsites × fns metro demand set. Warm scenarios run three unmeasured
// priming epochs first, so the measurement is the steady state, not cache
// construction.
func ControlEpochs(opt Options, scenario string, nsites, fns, epochs int) (ControlStats, error) {
	st := ControlStats{Scenario: scenario, Sites: nsites, Functions: fns, Epochs: uint64(epochs)}
	cp := newControlPlane(opt.Seed, nsites, fns)
	var body func(e int) error
	switch scenario {
	case "cold":
		body = func(int) error {
			cp.chill()
			return cp.epoch()
		}
	case "steady":
		body = func(int) error { return cp.epoch() }
	case "swing":
		body = func(e int) error {
			cp.swing(e)
			return cp.epoch()
		}
	default:
		return st, fmt.Errorf("experiments: unknown control scenario %q (want one of %v)", scenario, controlScenarios)
	}
	warmup := 0
	if scenario != "cold" {
		warmup = 3
	}
	for e := 0; e < warmup; e++ {
		if err := body(e); err != nil {
			return st, err
		}
	}
	var runErr error
	st.Wall, st.Allocs, st.Bytes = measure(func() {
		for e := warmup; e < warmup+epochs; e++ {
			if runErr = body(e); runErr != nil {
				return
			}
		}
	})
	return st, runErr
}

// controlBenchHeader is the control sub-table's shape; the scenario column
// is what MissingControlScenarios keys on.
var controlBenchHeader = []string{"scenario", "sites", "functions", "epochs",
	"wall-ms", "epochs/sec", "allocs", "allocs/epoch"}

func addControlRow(t *Table, s ControlStats) {
	t.AddRow(s.Scenario,
		fmt.Sprintf("%d", s.Sites),
		fmt.Sprintf("%d", s.Functions),
		fmt.Sprintf("%d", s.Epochs),
		fmt.Sprintf("%.1f", float64(s.Wall)/float64(time.Millisecond)),
		fmt.Sprintf("%.0f", s.EpochsPerSec()),
		fmt.Sprintf("%d", s.Allocs),
		fmt.Sprintf("%.4f", s.AllocsPerEpoch()))
}

// ControlPlaneBench measures the coordinator's per-epoch control-plane
// cost — M/M/c sizing for every function at every site plus the
// federation-wide three-pass allocation — on the 100-site metro demand
// set, cold versus warm. It hard-asserts the PR's two headline claims:
// the warm steady state allocates exactly zero heap objects per epoch,
// and it clears at least 3× the cold epoch rate (in practice the fast
// path is orders of magnitude faster; 3× is the CI floor, set low enough
// for slow shared runners).
func ControlPlaneBench(opt Options) (*Table, error) {
	t := &Table{
		ID:     "control-bench",
		Title:  "Control plane: epochs/sec and allocs/epoch, cold vs warm sizing + allocation",
		Header: controlBenchHeader,
	}
	nsites, fns := 100, 8
	epochs := 400
	coldEpochs := 40
	if opt.Quick {
		epochs, coldEpochs = 80, 10
	}
	var cold, steady ControlStats
	for _, scenario := range controlScenarios {
		n := epochs
		if scenario == "cold" {
			n = coldEpochs // cold epochs are ~100× slower; fewer suffice
		}
		s, err := ControlEpochs(opt, scenario, nsites, fns, n)
		if err != nil {
			return nil, err
		}
		// An unrelated runtime allocation (GC metadata, a finalizer from an
		// earlier test in the same process) can land inside the measured
		// window; a real regression allocates every epoch and fails every
		// attempt, so re-measuring distinguishes noise from regression.
		for attempt := 0; scenario == "steady" && s.Allocs != 0 && attempt < 2; attempt++ {
			if s, err = ControlEpochs(opt, scenario, nsites, fns, n); err != nil {
				return nil, err
			}
		}
		addControlRow(t, s)
		switch scenario {
		case "cold":
			cold = s
		case "steady":
			steady = s
		}
	}
	if steady.Allocs != 0 {
		return nil, fmt.Errorf("experiments: warm steady-state control epoch allocated (%d allocs over %d epochs); want exactly 0",
			steady.Allocs, steady.Epochs)
	}
	if se, ce := steady.EpochsPerSec(), cold.EpochsPerSec(); se < 3*ce {
		return nil, fmt.Errorf("experiments: warm steady-state epochs/sec %.0f below 3x cold %.0f", se, ce)
	}
	t.AddNote("each epoch: M/M/c-size %d functions (%d sites x %d fns, warm-scan seeded) then run the three-pass global allocator", nsites*fns, nsites, fns)
	t.AddNote("cold rebuilds everything per epoch (hint-free scans, fresh allocator); steady repeats unchanged demand on the warm path")
	t.AddNote("swing rolls a %d-site hot spot through the metro each epoch", controlSwingSites)
	t.AddNote("asserted: steady allocates exactly 0 heap objects per epoch and clears >= 3x the cold epoch rate")
	return t, nil
}

// MissingControlScenarios compares a committed sweep-baseline JSON against
// the control-plane scenarios ControlPlaneBench produces and returns the
// ones the baseline's nested Control table lacks — the staleness signal
// that BENCH_federation.json was regenerated without the control-plane
// sub-table. Baselines predating the Control field report every scenario
// missing.
func MissingControlScenarios(baselineJSON []byte) ([]string, error) {
	baseline, err := parseBaseline(baselineJSON)
	if err != nil {
		return nil, err
	}
	if baseline.Control == nil {
		return append([]string(nil), controlScenarios...), nil
	}
	col := columnIndex(baseline.Control.Header)
	if _, ok := col["scenario"]; !ok {
		return append([]string(nil), controlScenarios...), nil
	}
	have := map[string]bool{}
	for _, row := range baseline.Control.Rows {
		if len(row) > col["scenario"] {
			have[row[col["scenario"]]] = true
		}
	}
	var missing []string
	for _, s := range controlScenarios {
		if !have[s] {
			missing = append(missing, s)
		}
	}
	return missing, nil
}
