package federation

import (
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/core"
)

func TestNewTopologyValidation(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name string
		rtt  [][]time.Duration
	}{
		{"empty", nil},
		{"non-square", [][]time.Duration{{0, ms}, {ms}}},
		{"negative entry", [][]time.Duration{{0, -ms}, {ms, 0}}},
		{"non-zero diagonal", [][]time.Duration{{ms, ms}, {ms, 0}}},
	}
	for _, tc := range cases {
		if _, err := NewTopology(tc.rtt); err == nil {
			t.Errorf("%s: NewTopology accepted invalid matrix %v", tc.name, tc.rtt)
		}
	}
	// Asymmetry is explicitly legal.
	topo, err := NewTopology([][]time.Duration{{0, 10 * ms}, {30 * ms, 0}})
	if err != nil {
		t.Fatalf("asymmetric matrix rejected: %v", err)
	}
	if topo.RTT(0, 1) != 10*ms || topo.RTT(1, 0) != 30*ms {
		t.Errorf("asymmetric entries not preserved: %v %v", topo.RTT(0, 1), topo.RTT(1, 0))
	}
}

// TestRTTCentroid covers the coordinator election primitive: the centroid
// minimizes the weighted round-trip sum with both directions of an
// asymmetric matrix counted, weights shift the election, and ties break
// to the lowest index.
func TestRTTCentroid(t *testing.T) {
	ms := time.Millisecond
	// Asymmetric star around site 1: site 0 hangs off a long spoke.
	star, err := NewTopology([][]time.Duration{
		{0, 25 * ms, 28 * ms, 30 * ms},
		{20 * ms, 0, 3 * ms, 5 * ms},
		{24 * ms, 4 * ms, 0, 9 * ms},
		{26 * ms, 6 * ms, 11 * ms, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := star.RTTCentroid(nil); got != 1 {
		t.Errorf("unweighted centroid of the asymmetric star = %d, want hub 1", got)
	}
	// Weighting the far site heavily enough drags the centroid to it: the
	// coordinator should sit where the demand-weighted coordination
	// traffic is cheapest.
	if got := star.RTTCentroid([]float64{100, 1, 1, 1}); got != 0 {
		t.Errorf("centroid with site 0 weighted 100x = %d, want 0", got)
	}
	// Entries <= 0 and missing entries mean weight 1.
	if got := star.RTTCentroid([]float64{0, -3}); got != 1 {
		t.Errorf("centroid with degenerate weights = %d, want 1", got)
	}
	// A uniform matrix ties everywhere; election must be deterministic.
	ring, err := Ring(4, 5*ms)
	if err != nil {
		t.Fatal(err)
	}
	if got := ring.RTTCentroid(nil); got != 0 {
		t.Errorf("ring centroid = %d, want lowest tied index 0", got)
	}
}

func TestNewTopologyCopiesMatrix(t *testing.T) {
	ms := time.Millisecond
	rtt := [][]time.Duration{{0, ms}, {ms, 0}}
	topo, err := NewTopology(rtt)
	if err != nil {
		t.Fatal(err)
	}
	rtt[0][1] = 99 * ms
	if topo.RTT(0, 1) != ms {
		t.Error("NewTopology aliases the caller's matrix")
	}
}

// TestRingReproducesLegacyRTT pins the acceptance bar for the topology
// refactor: Ring(n, peerRTT) must compute exactly the ring-distance RTT
// formula the federation hard-coded before topologies existed.
func TestRingReproducesLegacyRTT(t *testing.T) {
	peer := 5 * time.Millisecond
	for n := 1; n <= 6; n++ {
		ring, err := Ring(n, peer)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := i - j
				if d < 0 {
					d = -d
				}
				if n-d < d {
					d = n - d
				}
				want := time.Duration(d) * peer
				if got := ring.RTT(i, j); got != want {
					t.Errorf("Ring(%d): RTT(%d,%d)=%v want %v", n, i, j, got, want)
				}
			}
		}
	}
}

func TestStarTopology(t *testing.T) {
	spoke := 3 * time.Millisecond
	star, err := Star(4, spoke)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			var want time.Duration
			switch {
			case i == j:
			case i == 0 || j == 0:
				want = spoke
			default:
				want = 2 * spoke
			}
			if got := star.RTT(i, j); got != want {
				t.Errorf("Star: RTT(%d,%d)=%v want %v", i, j, got, want)
			}
		}
	}
	if _, err := Star(0, spoke); err == nil {
		t.Error("Star accepted size 0")
	}
	if _, err := Ring(2, -time.Millisecond); err == nil {
		t.Error("Ring accepted negative RTT")
	}
}

// TestTopologySizeMismatchRejected covers the New-time validation: a
// topology must describe exactly the configured sites.
func TestTopologySizeMismatchRejected(t *testing.T) {
	topo, err := Ring(3, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	sites := []core.Config{
		staticSite(t, "squeezenet", 10, 1, tinyCluster()),
		staticSite(t, "squeezenet", 10, 2, tinyCluster()),
	}
	if _, err := New(Config{Sites: sites, Topology: topo}); err == nil {
		t.Error("New accepted a 3-site topology for a 2-site federation")
	}
}

// TestAsymmetricTopologyChargesBothLegs forces every request at site 0
// through its peer and checks the recorded end-to-end responses include
// the outbound and the (different) return leg.
func TestAsymmetricTopologyChargesBothLegs(t *testing.T) {
	ms := time.Millisecond
	topo, err := NewTopology([][]time.Duration{{0, 10 * ms}, {30 * ms, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Site 0 cannot host a single container: everything sheds to the peer.
	noCap := staticSite(t, "squeezenet", 20, 44,
		cluster.Config{Nodes: 1, CPUPerNode: 100, MemPerNode: 64, Policy: cluster.WorstFit})
	noCap.Functions[0].Prewarm = 0
	helper := staticSite(t, "squeezenet", 5, 55, cluster.PaperCluster())
	helper.Controller.MinContainers = 2
	helper.Functions[0].Prewarm = 2

	fed, err := New(Config{
		Sites:    []core.Config{noCap, helper},
		Placer:   nearestPeerPlacer{},
		Topology: topo,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s0 := res.Sites[0]
	if s0.OffloadedPeer == 0 || s0.Responses.Count() == 0 {
		t.Fatalf("site 0 offloaded nothing to its peer: %+v", s0)
	}
	// Both legs: 10ms out + 30ms back = 40ms floor under every response.
	if minResp := s0.Responses.Min(); minResp < 0.040 {
		t.Errorf("offloaded response %.1fms below the 40ms two-leg floor", minResp*1000)
	}
}
