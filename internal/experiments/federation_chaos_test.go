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

// TestFederationChaosSeedChangesRealizations: a different chaos base seed
// must change the failure realizations (and so the reported statistics)
// while the workload stays pinned.
func TestFederationChaosSeedChangesRealizations(t *testing.T) {
	a, err := FederationChaos(Options{Seed: 1, Quick: true, SweepWorkers: 8,
		Fed: FedOptions{ChaosSeed: 1000, ChaosReplicates: 8}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FederationChaos(Options{Seed: 1, Quick: true, SweepWorkers: 8,
		Fed: FedOptions{ChaosSeed: 2000, ChaosReplicates: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(renderTable(t, a), renderTable(t, b)) {
		t.Error("chaos base seeds 1000 and 2000 produced identical sweeps")
	}
}

// TestScenarioRunExperiment runs a committed scenario through the
// registry experiment with replicates and checks the row layout and the
// only-authored-seed-enforced assertion semantics.
func TestScenarioRunExperiment(t *testing.T) {
	tab, err := ScenarioRun(Options{Seed: 1, SweepWorkers: 4, Fed: FedOptions{
		ScenarioPath:    filepath.Join("..", "..", "scenarios", "asymmetric-partition.yaml"),
		ChaosReplicates: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("scenario run produced %d rows, want 3 replicates", len(tab.Rows))
	}
	if tab.Rows[0][0] != "asymmetric-partition" {
		t.Errorf("scenario column = %q", tab.Rows[0][0])
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
	_, err = ScenarioRun(Options{Seed: 1, Fed: FedOptions{ScenarioPath: path}})
	if err == nil || !strings.Contains(err.Error(), "allocation epochs") {
		t.Errorf("unsatisfiable authored assertion not reported; err = %v", err)
	}
}
