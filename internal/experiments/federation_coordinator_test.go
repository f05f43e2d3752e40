package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

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
	cut, err := coordinatorDelayCut(tab)
	if err != nil {
		t.Fatal(err)
	}
	if cut <= 0 || cut >= 1 {
		t.Errorf("centroid delay cut %.3f outside (0, 1)", cut)
	}
}

// coordinatorDelayCut returns the fractional reduction in mean
// grant-delivery delay the centroid-elected run achieves over the fixed
// placement, read from a coordinator sweep table's no-outage aggregate
// rows.
func coordinatorDelayCut(t *Table) (float64, error) {
	col := columnIndex(t.Header)
	for _, name := range []string{"coordinator", "missed-epochs", "grant-delay-ms"} {
		if _, ok := col[name]; !ok {
			return 0, fmt.Errorf("experiments: table %s has no %q column", t.ID, name)
		}
	}
	delay := func(prefix string) (float64, error) {
		for _, row := range t.Rows {
			if len(row) < 3 || row[2] != "all" || row[col["missed-epochs"]] != "0" {
				continue
			}
			if strings.HasPrefix(row[col["coordinator"]], prefix) {
				return strconv.ParseFloat(row[col["grant-delay-ms"]], 64)
			}
		}
		return 0, fmt.Errorf("experiments: no outage-free %s* aggregate row in %s", prefix, t.ID)
	}
	fixed, err := delay("fixed@")
	if err != nil {
		return 0, err
	}
	centroid, err := delay("centroid@")
	if err != nil {
		return 0, err
	}
	if fixed <= 0 {
		return 0, fmt.Errorf("experiments: fixed mean grant delay %v not positive", fixed)
	}
	return (fixed - centroid) / fixed, nil
}

// columnIndex maps a table header's column names to their positions.
func columnIndex(header []string) map[string]int {
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[h] = i
	}
	return col
}
