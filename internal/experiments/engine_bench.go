package experiments

import (
	"fmt"
	"runtime"
	"time"

	"lass/internal/azure"
	"lass/internal/core"
	"lass/internal/federation"
	"lass/internal/functions"
	"lass/internal/workload"
	"lass/internal/xrand"
)

// EngineStats is one measured engine-harness run: how many simulation
// events fired, how long the run took, and how much it allocated.
type EngineStats struct {
	Scenario string
	Engine   string
	Events   uint64
	Wall     time.Duration
	Allocs   uint64 // heap allocations during the run
	Bytes    uint64 // heap bytes allocated during the run
}

// EventsPerSec is the harness's throughput headline.
func (s EngineStats) EventsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Events) / s.Wall.Seconds()
}

// AllocsPerEvent is the steady-state allocation headline: the pooled
// engine and request paths should hold this near zero.
func (s EngineStats) AllocsPerEvent() float64 {
	if s.Events == 0 {
		return 0
	}
	return float64(s.Allocs) / float64(s.Events)
}

// measure runs fn and returns its wall time and exact heap allocation
// deltas (runtime counters, not sampled).
//
//lass:wallclock the harness measures real elapsed time; results go to the bench table, not the simulation.
func measure(fn func()) (wall time.Duration, allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// metroSites builds the metro-scale scenario: sites edge boxes, each
// replaying its own synthesized steady trace for minutes of simulated
// time, all on one shared engine under the never policy — the pure
// many-site hot path with no offload traffic in the way.
func metroSites(opt Options, nsites, minutes int, mean float64) ([]core.Config, error) {
	spec, err := functions.ByName("squeezenet")
	if err != nil {
		return nil, err
	}
	rng := xrand.New(opt.Seed ^ 0x3e7a0)
	sites := make([]core.Config, nsites)
	for i := range sites {
		row, err := azure.Synthesize(rng, azure.SynthConfig{
			Archetype: azure.Steady, MeanPerMinute: mean, Minutes: minutes})
		if err != nil {
			return nil, err
		}
		wl, err := workload.FromPerMinuteCounts(row.Counts)
		if err != nil {
			return nil, err
		}
		sites[i] = edgeSite(spec, wl, opt.Seed^uint64(0x3e7a1+i))
	}
	return sites, nil
}

// MetroDay measures the full simulator hot path at metro scale: nsites
// edge sites replay minutes of trace-driven load on one shared engine
// (arrival streams, dispatch, controllers, metric sampling — the whole
// stack). The returned stats cover only the Run phase, not construction.
func MetroDay(opt Options, nsites, minutes int) (EngineStats, error) {
	st := EngineStats{Scenario: "metro-day", Engine: "heap"}
	sites, err := metroSites(opt, nsites, minutes, 15)
	if err != nil {
		return st, err
	}
	placer, err := federation.ParsePlacer("never")
	if err != nil {
		return st, err
	}
	fcfg, err := federationConfig(opt, sites, placer)
	if err != nil {
		return st, err
	}
	fed, err := federation.New(fcfg)
	if err != nil {
		return st, err
	}
	end := time.Duration(minutes) * time.Minute
	var runErr error
	st.Wall, st.Allocs, st.Bytes = measure(func() {
		_, runErr = fed.Run(end)
	})
	if runErr != nil {
		return st, runErr
	}
	st.Events = fed.Engine.Fired()
	return st, nil
}

// engineBenchHeader is the engine sub-table's shape; the scenario and
// engine columns are what MissingEngineScenarios keys on.
var engineBenchHeader = []string{"scenario", "engine", "events", "wall-ms",
	"events/sec", "allocs", "allocs/event", "bytes/event"}

func addEngineRow(t *Table, s EngineStats) {
	t.AddRow(s.Scenario, s.Engine,
		fmt.Sprintf("%d", s.Events),
		fmt.Sprintf("%.1f", float64(s.Wall)/float64(time.Millisecond)),
		fmt.Sprintf("%.0f", s.EventsPerSec()),
		fmt.Sprintf("%d", s.Allocs),
		fmt.Sprintf("%.4f", s.AllocsPerEvent()),
		fmt.Sprintf("%.1f", float64(s.Bytes)/float64(s.Events)))
}

// EngineBench measures the engine hot path on the metro-day whole-stack
// harness. Quick mode shrinks the metro scale so baseline regeneration
// stays fast; the wall-clock columns vary with the host, but the
// scenario/engine rows — what the CI staleness guard checks — are fixed.
func EngineBench(opt Options) (*Table, error) {
	t := &Table{
		ID:     "engine-bench",
		Title:  "Engine hot path: events/sec and allocs at metro scale",
		Header: engineBenchHeader,
	}
	nsites, minutes := 100, 24*60
	if opt.Quick {
		nsites, minutes = 10, 60
	}
	s, err := MetroDay(opt, nsites, minutes)
	if err != nil {
		return nil, err
	}
	addEngineRow(t, s)
	t.AddNote("metro-day: %d edge sites replaying %d minutes of steady trace load on one shared engine, never policy", nsites, minutes)
	t.AddNote("wall-clock and events/sec vary with the host; the scenario/engine row set is what the baseline guard pins")
	return t, nil
}

// engineScenarios are the (scenario, engine) rows the committed baseline's
// nested Engine table must carry, in report order.
var engineScenarios = []string{"metro-day/heap"}

// MissingEngineScenarios compares a committed sweep-baseline JSON against
// the engine-benchmark rows EngineBench produces and returns the
// scenario/engine pairs the baseline's nested Engine table lacks — the
// staleness signal that BENCH_federation.json was regenerated without the
// engine sub-table. Baselines predating the Engine field report every
// scenario missing.
func MissingEngineScenarios(baselineJSON []byte) ([]string, error) {
	baseline, err := parseBaseline(baselineJSON)
	if err != nil {
		return nil, err
	}
	if baseline.Engine == nil {
		return append([]string(nil), engineScenarios...), nil
	}
	col := columnIndex(baseline.Engine.Header)
	for _, name := range []string{"scenario", "engine"} {
		if _, ok := col[name]; !ok {
			return append([]string(nil), engineScenarios...), nil
		}
	}
	have := map[string]bool{}
	for _, row := range baseline.Engine.Rows {
		if len(row) > col["scenario"] && len(row) > col["engine"] {
			have[row[col["scenario"]]+"/"+row[col["engine"]]] = true
		}
	}
	var missing []string
	for _, s := range engineScenarios {
		if !have[s] {
			missing = append(missing, s)
		}
	}
	return missing, nil
}
