package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFederationChaosSweep checks the chaos sweep's shape and its
// acceptance-bar determinism: the same seed must produce byte-identical
// output serially and with 8 sweep workers.
func TestFederationChaosSweep(t *testing.T) {
	serial, err := FederationChaos(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(chaosVariants) {
		t.Fatalf("chaos sweep produced %d rows, want %d", len(serial.Rows), len(chaosVariants))
	}
	for i, v := range chaosVariants {
		if got, want := serial.Rows[i][0]+"/"+serial.Rows[i][1], v.coordinator+"/"+v.grants; got != want {
			t.Errorf("row %d is %s, want %s", i, got, want)
		}
		if serial.Rows[i][2] != "8" {
			t.Errorf("row %d ran %s replicates, want the default 8", i, serial.Rows[i][2])
		}
	}
	parallel, err := FederationChaos(Options{Seed: 1, Quick: true, SweepWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderTable(t, serial), renderTable(t, parallel)) {
		t.Errorf("chaos sweep output differs between serial and 8-worker runs")
	}
	again, err := FederationChaos(Options{Seed: 1, Quick: true, SweepWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderTable(t, parallel), renderTable(t, again)) {
		t.Error("chaos sweep is not reproducible at the same seed")
	}
}

// TestScenarioRunExperiment runs a committed scenario through the
// scenario runner with replicates and checks the row layout, the replicate
// re-seeding, and the only-authored-seed-enforced assertion semantics.
func TestScenarioRunExperiment(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "asymmetric-partition.yaml")
	tab, err := RunScenarios([]string{path}, 0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("scenario run produced %d rows, want 3 replicates", len(tab.Rows))
	}
	if tab.Rows[0][0] != "asymmetric-partition" {
		t.Errorf("scenario column = %q", tab.Rows[0][0])
	}
	// Replicate r draws chaos seed base+r, and an explicit base replaces
	// the authored one.
	reseeded, err := RunScenarios([]string{path}, 1000, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{reseeded.Rows[0][2], reseeded.Rows[1][2]}; got[0] != "1000" || got[1] != "1001" {
		t.Errorf("chaos seeds under base 1000 = %v, want [1000 1001]", got)
	}
	for _, bad := range [][2]int{{-1, 1}, {0, -1}} {
		if _, err := RunScenarios([]string{path}, int64(bad[0]), bad[1], 1); err == nil {
			t.Errorf("RunScenarios accepted chaos seed %d, replicates %d", bad[0], bad[1])
		}
	}
	// Replicate 0 runs the authored chaos seed, so its assertions were
	// enforced (a failure would have errored above) and its row says ok.
	if got := tab.Rows[0][len(tab.Rows[0])-1]; got != "ok" {
		t.Errorf("authored-seed replicate verdict = %q, want ok", got)
	}
}

// TestScenarioRunFailsAuthoredAssertions: a scenario whose assertions
// cannot hold at its authored seed fails the experiment.
func TestScenarioRunFailsAuthoredAssertions(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "asymmetric-partition.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(string(src), "min-alloc-epochs: 5", "min-alloc-epochs: 999999", 1)
	if broken == string(src) {
		t.Fatal("fixture did not contain the expected assertion line")
	}
	path := filepath.Join(t.TempDir(), "broken.yaml")
	if err := os.WriteFile(path, []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = RunScenarios([]string{path}, 0, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "allocation epochs") {
		t.Errorf("unsatisfiable authored assertion not reported; err = %v", err)
	}
}
