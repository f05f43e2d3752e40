package experiments

import (
	"fmt"
	"time"

	"lass/internal/azure"
	"lass/internal/core"
	"lass/internal/functions"
	"lass/internal/workload"
	"lass/internal/xrand"
)

// siteTrace is one site's synthesized trace shape.
type siteTrace struct {
	archetype     azure.Archetype
	meanPerMinute float64
}

// federationTraceArchetypes are the per-site trace shapes the synthesized
// scenario uses: the hot site follows an on/off bursty pattern whose busy
// periods exceed its capacity, while its two peers carry steady diurnal
// load with headroom to absorb offloads.
var federationTraceArchetypes = []siteTrace{
	{azure.Bursty, 1200}, // busy periods ≈ 3× mean ≈ 60 req/s vs 40 req/s capacity
	{azure.Steady, 600},  // ≈ 10 req/s mean
	{azure.Steady, 600},
}

// traceRows synthesizes one Azure-format trace row per site, in the
// shapes given, deterministically from the seed and the sweep's salt.
func traceRows(opt Options, salt uint64, shapes []siteTrace) ([]azure.Row, error) {
	rng := xrand.New(opt.Seed ^ salt)
	rows := make([]azure.Row, len(shapes))
	for i, a := range shapes {
		row, err := azure.Synthesize(rng, azure.SynthConfig{Archetype: a.archetype, MeanPerMinute: a.meanPerMinute})
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

// addTraceNotes notes each site's trace row: its hash, trigger, and
// per-minute mean, max and coefficient of variation.
func addTraceNotes(t *Table, rows []azure.Row) {
	for i, row := range rows {
		st := azure.Summarize(row.Counts)
		t.AddNote("site edge-%d trace %s (%s): mean %.0f/min, max %.0f/min, CV %.2f",
			i, row.FunctionHash, row.Trigger, st.Mean, st.Max, st.CV)
	}
}

// federationTraceSites builds the trace-driven scenario: each edge site's
// arrival schedule is its own trace row's per-minute counts, windowed to
// the minutes-long slice where the hot site's trace is busiest (the same
// aligned window for every site, mirroring the paper's §6.7 choice of an
// active hour from the full-day trace).
func federationTraceSites(opt Options, rows []azure.Row, minutes int) ([]core.Config, time.Duration, error) {
	spec, err := functions.ByName("squeezenet")
	if err != nil {
		return nil, 0, err
	}
	start := azure.FindActiveWindow(rows[0].Counts, minutes)
	var sites []core.Config
	for i, row := range rows {
		counts := row.Window(start, start+minutes)
		if len(counts) < minutes {
			return nil, 0, fmt.Errorf("experiments: trace row %d has %d minutes in window [%d,%d)",
				i, len(counts), start, start+minutes)
		}
		wl, err := workload.FromPerMinuteCounts(counts)
		if err != nil {
			return nil, 0, err
		}
		sites = append(sites, edgeSite(spec, wl, opt.Seed^uint64(0xace1+i)))
	}
	return sites, time.Duration(minutes) * time.Minute, nil
}

// FederationTrace sweeps the offload policies over a trace-driven
// federation: instead of synthetic step workloads, each edge site replays
// its own Azure-format trace row (per-minute invocation counts), so the
// placement policies face realistic burst shapes rather than square waves.
// Rows are synthesized deterministically from the seed. Columns match the
// synthetic federation sweep, including the cloud cold-start and cost
// axes, and the never policy is verified bit-for-bit against standalone
// single-cluster replays of the same rows.
func FederationTrace(opt Options) (*Table, error) {
	t := &Table{
		ID:     "federation-trace",
		Title:  "Edge–cloud federation: offload policy sweep on Azure-format traces",
		Header: federationSweepHeader,
	}
	minutes := 60
	if opt.Quick {
		minutes = 6
	}
	rows, err := traceRows(opt, 0x7ace, federationTraceArchetypes)
	if err != nil {
		return nil, err
	}
	if err := sweepFederationPolicies(t, opt, func() ([]core.Config, time.Duration, error) {
		return federationTraceSites(opt, rows, minutes)
	}); err != nil {
		return nil, err
	}
	t.AddNote("trace rows: synthesized (deterministic per seed); %d-minute window aligned to the hot site's busiest slice", minutes)
	addTraceNotes(t, rows)
	t.AddNote("policy=never verified bit-for-bit against standalone single-cluster replays of each site's trace")
	return t, nil
}
