package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"lass/internal/federation"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/golden/*.csv from the current tree")

// goldenIDs are the registry experiments whose tables are a pure function
// of the seed.
var goldenIDs = []string{
	"table1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "openwhisk",
	"federation", "federation-trace", "federation-fairshare",
	"federation-placers", "federation-coordinator", "federation-chaos",
	"federation-hierarchy", "scenario",
	"ablation-estimator", "ablation-ggc", "ablation-hetmodel", "ablation-placement",
}

// wallClockIDs are the registry experiments excluded from the goldens
// because their tables carry wall-clock columns.
var wallClockIDs = []string{"fig5"}

// TestEveryExperimentIsPinned fails when a registered experiment is in
// neither goldenIDs nor wallClockIDs, so a new one cannot ship unpinned.
func TestEveryExperimentIsPinned(t *testing.T) {
	listed := make(map[string]bool)
	for _, id := range slices.Concat(goldenIDs, wallClockIDs) {
		if _, ok := Registry[id]; !ok {
			t.Errorf("%q is listed here but not registered", id)
		}
		listed[id] = true
	}
	for _, id := range IDs() {
		if !listed[id] {
			t.Errorf("experiment %q is registered but neither pinned in goldenIDs nor excluded in wallClockIDs", id)
		}
	}
}

// TestExperimentGoldens pins every deterministic experiment table byte for
// byte at Options{Seed: 1, Quick: true}: a refactor that claims "no
// simulated number moves" either leaves testdata/golden untouched or shows
// its diff. Regenerate with `go test ./internal/experiments -run
// TestExperimentGoldens -update`.
func TestExperimentGoldens(t *testing.T) {
	goldenDir, err := filepath.Abs(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	// The scenario experiment globs scenarios/*.yaml under the working
	// directory, as the commands do from the repository root.
	t.Chdir(filepath.Join("..", ".."))
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			dropCustomPlacerRows(tab)
			var got bytes.Buffer
			if err := tab.WriteCSV(&got); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
			path := filepath.Join(goldenDir, id+".csv")
			if *updateGoldens {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s differs from %s\n--- got ---\n%s\n--- want ---\n%s", id, path,
					firstDiffContext(got.Bytes(), want), firstDiffContext(want, got.Bytes()))
			}
		})
	}
}

// dropCustomPlacerRows removes the rows of registered placers outside the
// built-in set: the placer registry is process-global, so a custom placer
// another test registered earlier in the same run adds rows to every
// policy sweep.
func dropCustomPlacerRows(tab *Table) {
	custom := make(map[string]bool)
	for _, name := range federation.PlacerNames() {
		custom[name] = true
	}
	for _, name := range federation.BuiltinPlacerNames {
		delete(custom, name)
	}
	rows := tab.Rows[:0]
	for _, row := range tab.Rows {
		if !custom[row[0]] {
			rows = append(rows, row)
		}
	}
	tab.Rows = rows
}
