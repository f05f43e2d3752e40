package experiments

import (
	"fmt"
	"strconv"
	"testing"

	"lass/internal/federation"
)

func placerRate(t *testing.T, tab *Table, policy string) float64 {
	t.Helper()
	row, err := placerAggregate(tab, policy)
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(row[len(row)-1], 64)
	if err != nil {
		t.Fatalf("bad violation rate %q: %v", row[len(row)-1], err)
	}
	return v
}

// TestFederationPlacersGrantAwareBeatsModelDriven is the acceptance bar
// for the Placer API's headline policy: on the skewed-trace sweep (global
// fair share + admission + throttled cloud), grant-aware — model-driven
// with the allocator's grants folded into its per-candidate prediction —
// must strictly cut SLO violations versus plain model-driven, which only
// sees live pools and prices a grant-bound origin's backlog as if
// arrivals stopped.
func TestFederationPlacersGrantAwareBeatsModelDriven(t *testing.T) {
	tab, err := FederationPlacers(quick)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * len(federation.PlacerNames()); len(tab.Rows) != want {
		t.Fatalf("rows=%d want %d (every built-in policy x (3 sites + aggregate))", len(tab.Rows), want)
	}
	// Arrivals are workload-driven: identical across policies or the
	// comparison is meaningless.
	base, err := placerAggregate(tab, "never")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range federation.PlacerNames() {
		row, err := placerAggregate(tab, name)
		if err != nil {
			t.Fatal(err)
		}
		if row[3] != base[3] {
			t.Errorf("%s arrivals %s != never arrivals %s", name, row[3], base[3])
		}
		if row[1] != "global" {
			t.Errorf("%s row alloc=%q want global", name, row[1])
		}
	}
	model := placerRate(t, tab, "model-driven")
	grant := placerRate(t, tab, "grant-aware")
	if grant >= model {
		t.Errorf("grant-aware violation rate %.4f not strictly below model-driven %.4f", grant, model)
	}
	// Both predictive policies must dominate the non-predictive ones on
	// this scenario.
	for _, name := range []string{"never", "cloud-only", "nearest-peer"} {
		if r := placerRate(t, tab, name); r <= model {
			t.Errorf("%s violation rate %.4f unexpectedly at or below model-driven %.4f", name, r, model)
		}
	}
	// cost-bounded's whole point is visible in the table: it never spends
	// more on the cloud than model-driven here.
	modelRow, _ := placerAggregate(tab, "model-driven")
	costRow, _ := placerAggregate(tab, "cost-bounded")
	modelBill, _ := strconv.ParseFloat(modelRow[9], 64)
	costBill, _ := strconv.ParseFloat(costRow[9], 64)
	if costBill > modelBill {
		t.Errorf("cost-bounded cloud bill $%.6f above model-driven's $%.6f", costBill, modelBill)
	}
}

// placerAggregate finds the aggregate ("all") row for one policy in a
// placer sweep table; tests use it to compare policies.
func placerAggregate(t *Table, policy string) ([]string, error) {
	for _, row := range t.Rows {
		if len(row) >= 3 && row[0] == policy && row[2] == "all" {
			return row, nil
		}
	}
	return nil, fmt.Errorf("experiments: no aggregate row for policy=%s in %s", policy, t.ID)
}
