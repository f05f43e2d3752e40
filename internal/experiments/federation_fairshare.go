package experiments

import (
	"time"

	"lass/internal/azure"
	"lass/internal/federation"
)

// fairshareArchetypes is the skewed-load scenario the local-vs-global
// allocation sweep runs on: one hot site whose bursty trace peaks around
// 3× its ~40 req/s capacity, and two lightly-loaded steady peers with most
// of their capacity idle. Per-site-local allocation leaves that peer
// capacity stranded: the hot site's controller only sees the demand it
// kept, while the peers' controllers see no reason to provision. The
// federation-wide allocator sees the hot site's full offered demand,
// clamps its grant at physical capacity, and spreads the displaced
// entitlement to the peers — which pre-provision for the offloads before
// they arrive.
var fairshareArchetypes = []siteTrace{
	{azure.Bursty, 1500}, // busy periods ≈ 3× mean ≈ 75 req/s vs 40 req/s capacity
	{azure.Steady, 240},  // ≈ 4 req/s mean: ~90% idle
	{azure.Steady, 240},
}

// FederationFairShare sweeps per-site-local versus federation-wide
// (global) fair-share allocation across the offload policies on the
// skewed trace scenario, with offload-aware §3.4 admission on throughout.
// Under "local" each site's controller divides its own capacity (the
// historical behaviour); under "global" a coordinator divides the
// federation's total edge capacity each epoch (site → user → function
// capped water-filling), charges the coordination round trip through the
// topology matrix, and pushes grants back down. The stranded-mC column
// reports capacity left idle while demand was unmet elsewhere (per-epoch
// mean); drift-mC reports how far the global grants moved from what local
// allocation would have chosen.
func FederationFairShare(opt Options) (*Table, error) {
	t := &Table{
		ID:    "federation-fairshare",
		Title: "Federation-wide fair share: local vs global allocation under skewed load",
		Header: append([]string(nil),
			federationSweepHeader...),
	}
	minutes := 60
	if opt.Quick {
		minutes = 6
	}
	rows, err := traceRows(opt, 0x6f5, fairshareArchetypes)
	if err != nil {
		return nil, err
	}
	// Flatten the (alloc mode × policy) grid into independent cells so the
	// sweep parallelizes; rows are appended in grid order afterwards.
	type cell struct {
		global bool
		policy string
	}
	var cells []cell
	for _, global := range []bool{false, true} {
		for _, name := range []string{"never", "nearest-peer", "model-driven"} {
			cells = append(cells, cell{global: global, policy: name})
		}
	}
	results, err := runCells(len(cells), opt.SweepWorkers, func(i int) (federation.Config, time.Duration, error) {
		placer, err := federation.PlacerByName(cells[i].policy)
		if err != nil {
			return federation.Config{}, 0, err
		}
		sites, end, err := federationTraceSites(opt, rows, minutes)
		return federation.Config{
			Sites:                 sites,
			Placer:                placer,
			Seed:                  opt.fedSeed(),
			GlobalFairShare:       cells[i].global,
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
	t.AddNote("offload-aware admission (§3.4 coupled to placement) is on for every row: an overloaded origin offers along the policy's placement preferences and rejects only when no site's grant has headroom")
	t.AddNote("policy=never rows allow no placement, so sheddable requests are rejected at the origin — the paper's single-cluster admission control verbatim")
	t.AddNote("alloc=global gathers per-function demand/weight from every site each epoch, water-fills the federation's total edge capacity (site → user → function), and pushes grants back after the coordination round trip")
	t.AddNote("under alloc=global, demand is estimated from offered load at the ingress, so the coordinator sees an overloaded site's full demand — not just the share it kept")
	addTraceNotes(t, rows)
	return t, nil
}
