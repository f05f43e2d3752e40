package experiments

import "testing"

// TestFederationCoordinatorSweep runs the coordinator sweep in quick mode.
// The sweep hard-asserts its own invariants (centroid strictly cuts the
// mean grant delay, lease fallback strictly beats frozen grants during
// the outage), so a nil error is most of the test; the table shape and
// the headline helper are checked on top.
func TestFederationCoordinatorSweep(t *testing.T) {
	tab, err := FederationCoordinator(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Four variants × (4 sites + aggregate).
	if got, want := len(tab.Rows), 4*5; got != want {
		t.Errorf("coordinator sweep produced %d rows, want %d", got, want)
	}
	cut, err := CoordinatorDelayCut(tab)
	if err != nil {
		t.Fatal(err)
	}
	if cut <= 0 || cut >= 1 {
		t.Errorf("centroid delay cut %.3f outside (0, 1)", cut)
	}
}
