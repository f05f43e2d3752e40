package experiments

import (
	"bytes"
	"testing"
)

// TestEngineBenchRowsAndSpeedup runs the quick engine benchmark and checks
// the table carries exactly the scenario/engine rows the baseline guard
// pins. (The pooled engine's allocation claim is held by
// sim.TestSteadyStateSteppingDoesNotAllocate.)
func TestEngineBenchRowsAndSpeedup(t *testing.T) {
	tab, err := EngineBench(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range tab.Rows {
		got = append(got, row[0]+"/"+row[1])
	}
	if len(got) != len(engineScenarios) {
		t.Fatalf("engine-bench rows %v, want scenarios %v", got, engineScenarios)
	}
	for i, want := range engineScenarios {
		if got[i] != want {
			t.Fatalf("engine-bench row %d is %s, want %s (all: %v)", i, got[i], want, got)
		}
	}
}

// TestMissingEngineScenarios covers the baseline staleness guard: a
// baseline without the nested Engine table (or with an incomplete one) must
// report the absent scenario/engine rows; a freshly generated bench
// baseline must report none.
func TestMissingEngineScenarios(t *testing.T) {
	missing, err := MissingEngineScenarios([]byte(`{"Header":["policy"],"Rows":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != len(engineScenarios) {
		t.Fatalf("pre-Engine baseline reports %v missing, want all of %v", missing, engineScenarios)
	}
	partial := []byte(`{"Header":["policy"],"Rows":[],
		"Engine":{"Header":["scenario","engine"],"Rows":[["churn","heap"]]}}`)
	missing, err = MissingEngineScenarios(partial)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"metro-day/heap"}
	if len(missing) != len(want) {
		t.Fatalf("partial baseline reports %v missing, want %v", missing, want)
	}
	for i := range want {
		if missing[i] != want[i] {
			t.Fatalf("partial baseline reports %v missing, want %v", missing, want)
		}
	}
	tab, err := EngineBench(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	full := &Table{ID: "federation-bench", Header: federationSweepHeader, Engine: tab}
	var buf bytes.Buffer
	if err := full.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	missing, err = MissingEngineScenarios(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("fresh bench table reports %v missing, want none", missing)
	}
}
