package federation

import (
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/core"
)

// TestGlobalFairShareAppliesGrants: with the global allocator on, epochs
// run, grants reach every site's controller, and the run reports the
// allocator's epoch count.
func TestGlobalFairShareAppliesGrants(t *testing.T) {
	cfg := Config{
		Sites: []core.Config{
			staticSite(t, "squeezenet", 30, 1, cluster.PaperCluster()),
			staticSite(t, "squeezenet", 5, 2, cluster.PaperCluster()),
		},
		Placer:          nearestPeerPlacer{},
		GlobalFairShare: true,
		Seed:            9,
	}
	fed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllocEpochs == 0 {
		t.Fatal("no global allocation epochs ran")
	}
	if !res.GlobalFairShare {
		t.Error("result does not report global fair share")
	}
	for i, s := range fed.Sites {
		if !s.Platform.Controller.GrantedExternally() {
			t.Errorf("site %d controller never received grants", i)
		}
	}
}

// TestGrantsChargedCoordinationRTT: every leg of the coordination round
// trip is charged through the topology matrix, the demand upload
// included. With a 30s one-way RTT the coordinator cannot compute before
// the remote site's t=0 demand report arrives at t=30s — so even the
// coordinator site itself (zero return leg) holds no grants at t=20s —
// and the remote site, one more 30s return leg away, still has none at
// t=40s when the coordinator site does.
func TestGrantsChargedCoordinationRTT(t *testing.T) {
	build := func() *Federation {
		fed, err := New(Config{
			Sites: []core.Config{
				staticSite(t, "squeezenet", 10, 1, cluster.PaperCluster()),
				staticSite(t, "squeezenet", 10, 2, cluster.PaperCluster()),
			},
			Placer:          neverPlacer{},
			GlobalFairShare: true,
			AllocEpoch:      5 * time.Second,
			Topology:        ring(t, 2, 30*time.Second), // one-way 30s, round trip 60s
			Seed:            9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}

	fed := build()
	if _, err := fed.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fed.Sites[0].Platform.Controller.GrantedExternally() {
		t.Error("coordinator site held grants before the slowest demand upload (30s) arrived")
	}

	fed = build()
	res, err := fed.Run(40 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !fed.Sites[0].Platform.Controller.GrantedExternally() {
		t.Error("coordinator site (zero return leg) never received grants after the gather elapsed")
	}
	if fed.Sites[1].Platform.Controller.GrantedExternally() {
		t.Error("remote site received grants before the full gather+return round trip elapsed")
	}
	// Only landed deliveries count toward the mean delay: every delivery
	// that fit in the run was the coordinator site's 30s-gather + 0s
	// return; the remote site's 60s deliveries never arrived.
	if res.MeanGrantDelay != 30*time.Second {
		t.Errorf("MeanGrantDelay = %v counting undelivered grants, want 30s", res.MeanGrantDelay)
	}
}

// TestAdmissionRejectsOnlyWithoutHeadroom: §3.4 admission under the never
// placer rejects sheddable requests at an overloaded origin; the same
// overload under nearest-peer is absorbed by an idle peer instead, and
// nothing is rejected while a grant somewhere has headroom.
func TestAdmissionRejectsOnlyWithoutHeadroom(t *testing.T) {
	sites := func() []core.Config {
		return []core.Config{
			staticSite(t, "squeezenet", 60, 3, tinyCluster()),
			staticSite(t, "squeezenet", 1, 4, cluster.PaperCluster()),
		}
	}

	fed, err := New(Config{Sites: sites(), Placer: neverPlacer{}, OffloadAwareAdmission: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Error("policy never + admission: overloaded origin rejected nothing")
	}
	if res.Sites[0].Rejected != res.Rejected {
		t.Error("rejections not attributed to the overloaded origin")
	}

	// A zero cold start at the origin keeps the cloud's latency floor
	// (2×RTT + mean service) inside the SLO: admission honestly rejects a
	// cloud landing whose cold start alone would guarantee a miss, and
	// this test is about grant headroom, not cold-start realism.
	warm := sites()
	warm[0].Functions[0].Spec.ColdStart = 0
	fed, err = New(Config{Sites: warm, Placer: nearestPeerPlacer{}, OffloadAwareAdmission: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err = fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Errorf("nearest-peer + admission rejected %d with an idle peer and an unbounded warm cloud", res.Rejected)
	}
	if res.Sites[0].OffloadedPeer == 0 && res.Sites[0].OffloadedCloud == 0 {
		t.Error("overloaded origin offloaded nothing")
	}
}

// TestAdmissionRejectsWhenCloudThrottled: with no peers and a cloud
// throttled to one instance, the projected queue wait quickly exceeds the
// SLO and admission rejects rather than stranding work in a hopeless
// queue.
func TestAdmissionRejectsWhenCloudThrottled(t *testing.T) {
	// A zero cold start isolates the throttle gate under test: with cold
	// starts modelled, admission's latency floor would reject every cloud
	// landing before a queue could ever form at the cap.
	site := staticSite(t, "squeezenet", 60, 3, tinyCluster())
	site.Functions[0].Spec.ColdStart = 0
	fed, err := New(Config{
		Sites:                 []core.Config{site},
		Placer:                nearestPeerPlacer{},
		OffloadAwareAdmission: true,
		CloudMaxConcurrency:   1,
		Seed:                  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Error("throttled cloud with no peers: admission rejected nothing")
	}
	if res.CloudQueued == 0 {
		t.Error("no cloud offload ever queued at the concurrency cap")
	}
}
