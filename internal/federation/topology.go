package federation

import (
	"fmt"
	"time"

	"lass/internal/allocation"
)

// Level re-exports allocation.Level — the (metro, region) coordinates
// Hierarchy.Levels() assigns each site — so topology construction does not
// force callers through the allocation package's name.
type Level = allocation.Level

// Topology is an explicit inter-site one-way latency matrix: entry (i, j)
// is the one-way network delay from edge site i to edge site j. It replaces
// the original hard-coded ring-distance RTT model, following the measured
// edge-platform RTT heterogeneity reported by Javed et al. (2021): real
// edge deployments are neither rings nor symmetric, so the matrix may be
// asymmetric — only the diagonal must be zero and no entry negative.
//
// Ring and Star construct the two common regular topologies; NewTopology
// accepts any measured matrix.
type Topology struct {
	rtt [][]time.Duration
}

// NewTopology validates and wraps an explicit one-way latency matrix. The
// matrix must be square with a zero diagonal and non-negative entries;
// asymmetry (rtt[i][j] != rtt[j][i]) is allowed. The matrix is copied, so
// the caller may reuse its slices.
func NewTopology(rtt [][]time.Duration) (*Topology, error) {
	n := len(rtt)
	if n == 0 {
		return nil, fmt.Errorf("federation: empty topology")
	}
	m := make([][]time.Duration, n)
	for i, row := range rtt {
		if len(row) != n {
			return nil, fmt.Errorf("federation: topology row %d has %d entries, want %d (square matrix)", i, len(row), n)
		}
		for j, d := range row {
			if d < 0 {
				return nil, fmt.Errorf("federation: topology entry (%d,%d) is negative (%v)", i, j, d)
			}
			if i == j && d != 0 {
				return nil, fmt.Errorf("federation: topology diagonal entry (%d,%d) is %v, want 0", i, j, d)
			}
		}
		m[i] = append([]time.Duration(nil), row...)
	}
	return &Topology{rtt: m}, nil
}

// Ring returns the original ring topology: sites at ring distance d are
// d×peerRTT apart (one way), which is exactly the RTT model the federation
// used before explicit matrices existed. A federation configured without a
// Topology gets Ring(len(Sites), 5ms), so the default behaviour is
// unchanged.
func Ring(n int, peerRTT time.Duration) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("federation: ring size %d", n)
	}
	if peerRTT < 0 {
		return nil, fmt.Errorf("federation: negative ring RTT %v", peerRTT)
	}
	m := make([][]time.Duration, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
		for j := range m[i] {
			d := i - j
			if d < 0 {
				d = -d
			}
			if n-d < d {
				d = n - d
			}
			m[i][j] = time.Duration(d) * peerRTT
		}
	}
	return &Topology{rtt: m}, nil
}

// Star returns a hub-and-spoke topology with site 0 as the hub: the hub is
// spokeRTT (one way) from every other site, and two non-hub sites reach
// each other through the hub at 2×spokeRTT. This models a metro deployment
// where one well-connected site fronts several access-network sites.
func Star(n int, spokeRTT time.Duration) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("federation: star size %d", n)
	}
	if spokeRTT < 0 {
		return nil, fmt.Errorf("federation: negative star RTT %v", spokeRTT)
	}
	m := make([][]time.Duration, n)
	for i := range m {
		m[i] = make([]time.Duration, n)
		for j := range m[i] {
			switch {
			case i == j:
			case i == 0 || j == 0:
				m[i][j] = spokeRTT
			default:
				m[i][j] = 2 * spokeRTT
			}
		}
	}
	return &Topology{rtt: m}, nil
}

// RTTClasses are the three per-level one-way latencies a Hierarchical
// topology is built from: sites in the same metro are IntraMetro apart,
// sites in different metros of the same region IntraRegion, and sites in
// different regions CrossRegion. The zero value selects the defaults
// (2ms / 10ms / 40ms one way — access-network, metro-backbone, and
// inter-region WAN figures); a negative entry is an explicit zero.
type RTTClasses struct {
	IntraMetro  time.Duration
	IntraRegion time.Duration
	CrossRegion time.Duration
}

// Hierarchical derives a latency matrix from a hierarchy's levels: each
// ordered site pair pays the class of the lowest tree level it shares.
// sites lists the federation's site names in site-index order (every name
// must appear in the hierarchy), and levels comes from Hierarchy.Levels().
// The matrix is symmetric by construction — class asymmetry would mean
// the hierarchy itself is inconsistent, and Levels() derives both metro
// and region from one tree, so a shared metro always implies a shared
// region.
func Hierarchical(sites []string, levels map[string]Level, classes RTTClasses) (*Topology, error) {
	classes.IntraMetro = zeroDefault(classes.IntraMetro, 2*time.Millisecond)
	classes.IntraRegion = zeroDefault(classes.IntraRegion, 10*time.Millisecond)
	classes.CrossRegion = zeroDefault(classes.CrossRegion, 40*time.Millisecond)
	if len(sites) == 0 {
		return nil, fmt.Errorf("federation: hierarchical topology with no sites")
	}
	lv := make([]Level, len(sites))
	for i, name := range sites {
		l, ok := levels[name]
		if !ok {
			return nil, fmt.Errorf("federation: hierarchical topology: site %q not in hierarchy", name)
		}
		lv[i] = l
	}
	m := make([][]time.Duration, len(sites))
	for i := range m {
		m[i] = make([]time.Duration, len(sites))
		for j := range m[i] {
			switch {
			case i == j:
			case lv[i].Metro == lv[j].Metro:
				m[i][j] = classes.IntraMetro
			case lv[i].Region == lv[j].Region:
				m[i][j] = classes.IntraRegion
			default:
				m[i][j] = classes.CrossRegion
			}
		}
	}
	return &Topology{rtt: m}, nil
}

// RTTCentroid returns the site best placed to host a coordinator: the
// index minimizing the sum of round trips Σ_j (RTT(j, i) + RTT(i, j)) over
// every site j — both legs counted separately, so an asymmetric matrix
// elects honestly. Ties break to the lowest index, so election is
// deterministic. Re-run it whenever membership — the matrix — changes.
func (t *Topology) RTTCentroid() int {
	best, bestSum := 0, time.Duration(-1)
	for i := range t.rtt {
		var sum time.Duration
		for j := range t.rtt {
			sum += t.rtt[j][i] + t.rtt[i][j]
		}
		if bestSum < 0 || sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return best
}

// nearestLink returns the smallest one-way latency between two distinct
// sites, or defaultPeerRTT for a single site, which has no such pair.
func (t *Topology) nearestLink() time.Duration {
	nearest := time.Duration(-1)
	for i, row := range t.rtt {
		for j, d := range row {
			if i != j && (nearest < 0 || d < nearest) {
				nearest = d
			}
		}
	}
	if nearest < 0 {
		return defaultPeerRTT
	}
	return nearest
}

// Size returns the number of sites the topology describes.
func (t *Topology) Size() int { return len(t.rtt) }

// RTT returns the one-way latency from site i to site j.
func (t *Topology) RTT(i, j int) time.Duration { return t.rtt[i][j] }
