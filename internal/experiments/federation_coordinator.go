package experiments

import (
	"fmt"
	"time"

	"lass/internal/chaos"
	"lass/internal/federation"
)

// coordinatorTopology builds the asymmetric star the coordinator sweep
// runs on: site 1 is the hub, every other site reaches peers through it,
// and the two legs of each spoke differ (up ≠ down), after the measured
// asymmetry of real edge platforms. Site 0 — the default Fixed
// coordinator — sits at the end of the longest spoke, so pinning the
// allocator there is exactly the placement mistake RTT-centroid election
// exists to avoid.
func coordinatorTopology() (*federation.Topology, int, error) {
	const hub = 1
	up := []time.Duration{ // one way, spoke → hub
		25 * time.Millisecond, 0, 4 * time.Millisecond, 6 * time.Millisecond}
	down := []time.Duration{ // one way, hub → spoke
		20 * time.Millisecond, 0, 3 * time.Millisecond, 5 * time.Millisecond}
	n := len(up)
	m := make([][]time.Duration, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
		for j := range m[i] {
			switch {
			case i == j:
			case i == hub:
				m[i][j] = down[j]
			case j == hub:
				m[i][j] = up[i]
			default:
				m[i][j] = up[i] + down[j] // spoke → hub → spoke
			}
		}
	}
	topo, err := federation.NewTopology(m)
	return topo, hub, err
}

// coordinatorVariant is one run of the coordinator sweep.
type coordinatorVariant struct {
	label    string
	election federation.CoordinatorElection
	outages  []federation.Window
	lease    time.Duration // 0 = default 2×epoch, negative = frozen (no lease)
}

// FederationCoordinator sweeps coordinator placement and failover for the
// federation-wide §4.1 allocator on an asymmetric star: Fixed election at
// the far spoke versus RTT-centroid election at the hub, with no outages
// and with a coordinator outage covering the hot site's burst, under
// leased grants (default 2×epoch) and under the frozen-grants legacy (no
// lease). The experiment hard-asserts the tentpole claims: centroid
// election strictly reduces the mean grant-delivery delay, and lease
// fallback keeps the outage run's violations strictly below the
// frozen-grants variant, which stays bound to its stale pre-burst grants
// through the whole burst.
func FederationCoordinator(opt Options) (*Table, error) {
	t := &Table{
		ID:     "federation-coordinator",
		Title:  "Coordinator election, outages, and grant leases for the global allocator (asymmetric star)",
		Header: append([]string(nil), federationSweepHeader...),
	}
	unit := opt.dur(time.Minute, 10*time.Second)
	topo, hub, err := coordinatorTopology()
	if err != nil {
		return nil, err
	}
	// One outage window covering the epoch before the burst and the burst
	// itself: the last grants delivered before the coordinator goes dark
	// are sized for light load, which is exactly what a frozen-grants site
	// stays bound to while 3× its capacity arrives.
	outage := []federation.Window{{Start: 2 * unit, End: 6 * unit}}
	variants := []coordinatorVariant{
		{label: "fixed, no outage", election: federation.Fixed},
		{label: "centroid, no outage", election: federation.RTTCentroid},
		{label: "centroid, outage 0.44, leased", election: federation.RTTCentroid, outages: outage},
		{label: "centroid, outage 0.44, frozen", election: federation.RTTCentroid, outages: outage, lease: -1},
	}
	placer, err := federation.PlacerByName("model-driven")
	if err != nil {
		return nil, err
	}
	// Each variant is an independent cell; rows and per-run notes are
	// emitted in variant order.
	results, err := runCells(len(variants), opt.SweepWorkers, func(i int) (federation.Config, time.Duration, error) {
		v := variants[i]
		sites, end, err := burstSites(opt, unit, 4, 0xc00d)
		if err != nil {
			return federation.Config{}, 0, err
		}
		cfg := federation.Config{
			Sites:                 sites,
			Placer:                placer,
			Seed:                  opt.fedSeed(),
			Topology:              topo,
			GlobalFairShare:       true,
			OffloadAwareAdmission: true,
			CloudMaxConcurrency:   throttledCloud,
			CoordinatorElection:   v.election,
			GrantLease:            v.lease,
		}
		if len(v.outages) > 0 {
			cfg.Faults, err = chaos.New(chaos.Config{
				Sites:  len(sites),
				Faults: []chaos.Fault{{Kind: chaos.FaultCoordinator, Windows: v.outages}},
			})
		}
		return cfg, end, err
	})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		res := results[i]
		addFederationRows(t, res)
		t.AddNote("run %d (%s): coordinator %s, %d/%d epochs missed, %d lease expirations, mean grant delay %v",
			i+1, v.label, coordinatorLabel(res), res.MissedAllocEpochs,
			res.MissedAllocEpochs+res.AllocEpochs, res.GrantLeaseExpirations, res.MeanGrantDelay)
	}
	fixed, centroid, leased, frozen := results[0], results[1], results[2], results[3]
	if centroid.Coordinator != hub {
		return nil, fmt.Errorf("experiments: centroid election picked site %d, want the hub %d",
			centroid.Coordinator, hub)
	}
	if centroid.MeanGrantDelay >= fixed.MeanGrantDelay {
		return nil, fmt.Errorf("experiments: centroid election did not reduce mean grant-delivery delay: %v (centroid) vs %v (fixed)",
			centroid.MeanGrantDelay, fixed.MeanGrantDelay)
	}
	if leased.MissedAllocEpochs == 0 || leased.GrantLeaseExpirations == 0 {
		return nil, fmt.Errorf("experiments: outage run missed %d epochs with %d lease expirations; want both > 0",
			leased.MissedAllocEpochs, leased.GrantLeaseExpirations)
	}
	if frozen.GrantLeaseExpirations != 0 {
		return nil, fmt.Errorf("experiments: frozen-grants run recorded %d lease expirations; want 0",
			frozen.GrantLeaseExpirations)
	}
	lv, _ := violations(leased.Sites)
	fv, _ := violations(frozen.Sites)
	if lv >= fv {
		return nil, fmt.Errorf("experiments: lease fallback did not bound the outage violation spike: %d (leased) vs %d (frozen)", lv, fv)
	}
	t.AddNote("asymmetric star: site 1 is the hub; site 0 (the Fixed default) sits on a 25ms/20ms spoke and takes a 3x burst in the middle third")
	t.AddNote("grant-delay-ms is the mean end-to-end delivery delay: slowest demand upload (gather) + return leg, both read from the topology")
	t.AddNote("asserted: centroid election strictly reduces mean grant delay, and during the outage leased grants (expiring 2x epoch after delivery) violate strictly less than frozen grants")
	return t, nil
}
