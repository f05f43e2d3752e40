package experiments

import (
	"time"

	"lass/internal/federation"
)

// FederationPlacers sweeps the seven built-in placement policies — the
// four legacy enum policies rebuilt on the Placer API and the three it
// made possible (grant-aware, cost-bounded and metro-affine) — over the
// skewed-trace scenario (one bursty hot
// site, two mostly-idle steady peers) with the federation-wide fair-share
// allocator, offload-aware §3.4 admission, and a throttled cloud all on.
//
// This is the conditions under which the placement context's richer
// signals matter: the global allocator pre-provisions the idle peers for
// the hot site's displaced demand, so grant-aware — which folds grants and
// granted-but-cold pools into its per-candidate prediction — should beat
// plain model-driven (which only sees live pools) on violations, and
// cost-bounded exposes the violations-versus-cloud-bill trade. One row
// set per built-in policy.
func FederationPlacers(opt Options) (*Table, error) {
	t := &Table{
		ID:     "federation-placers",
		Title:  "Placement-policy sweep: all built-in placers on skewed traces (global fair share + admission)",
		Header: append([]string(nil), federationSweepHeader...),
	}
	minutes := 60
	if opt.Quick {
		minutes = 6
	}
	rows, err := traceRows(opt, 0x6f5, fairshareArchetypes)
	if err != nil {
		return nil, err
	}
	// One independent cell per policy; rows are appended in placer order.
	names := federation.PlacerNames()
	results, err := runCells(len(names), opt.SweepWorkers, func(i int) (federation.Config, time.Duration, error) {
		placer, err := federation.PlacerByName(names[i])
		if err != nil {
			return federation.Config{}, 0, err
		}
		sites, end, err := federationTraceSites(opt, rows, minutes)
		return federation.Config{
			Sites:                 sites,
			Placer:                placer,
			Seed:                  opt.fedSeed(),
			GlobalFairShare:       true,
			OffloadAwareAdmission: true,
			CloudMaxConcurrency:   throttledCloud,
		}, end, err
	})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		addFederationRows(t, res)
	}
	t.AddNote("every row runs under the federation-wide §4.1 allocator with offload-aware admission and a cloud throttled to %d concurrent instances per function", throttledCloud)
	t.AddNote("grant-aware = model-driven with the global grants and granted-but-cold pre-provisioned pools folded into the per-candidate prediction")
	t.AddNote("cost-bounded = cheapest candidate whose predicted response meets the SLO (edge is free, cloud bills per invocation + GB-second)")
	addTraceNotes(t, rows)
	return t, nil
}
