package experiments

import (
	"time"

	"lass/internal/azure"
	"lass/internal/federation"
)

// FederationPlacers sweeps every registered placement policy — the four
// legacy enum policies rebuilt on the Placer API, the two policies the API
// made possible (grant-aware and cost-bounded), and any custom placers
// registered at run time — over the skewed-trace scenario (one bursty hot
// site, two mostly-idle steady peers) with the federation-wide fair-share
// allocator, offload-aware §3.4 admission, and a throttled cloud all on.
//
// This is the conditions under which the placement context's richer
// signals matter: the global allocator pre-provisions the idle peers for
// the hot site's displaced demand, so grant-aware — which folds grants and
// granted-but-cold pools into its per-candidate prediction — should beat
// plain model-driven (which only sees live pools) on violations, and
// cost-bounded exposes the violations-versus-cloud-bill trade. One row
// set per registered policy.
func FederationPlacers(opt Options) (*Table, error) {
	t := &Table{
		ID:     "federation-placers",
		Title:  "Placement-policy sweep: all registered placers on skewed traces (global fair share + admission)",
		Header: append([]string(nil), federationSweepHeader...),
	}
	minutes := 60
	if opt.Quick {
		minutes = 6
	}
	rows, err := fairshareRows(opt)
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
	for i, row := range rows {
		st := azure.Summarize(row.Counts)
		t.AddNote("site edge-%d trace %s (%s): mean %.0f/min, max %.0f/min, CV %.2f",
			i, row.FunctionHash, row.Trigger, st.Mean, st.Max, st.CV)
	}
	return t, nil
}
