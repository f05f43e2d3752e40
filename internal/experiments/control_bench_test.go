package experiments

import (
	"bytes"
	"testing"
)

// TestControlPlaneBenchRows runs the quick control-plane benchmark and
// checks its hard-asserted headlines hold (zero steady-state allocations
// per epoch, warm ≥ 3× cold — ControlPlaneBench errors otherwise) and that
// the table carries exactly the scenario rows the baseline guard pins.
func TestControlPlaneBenchRows(t *testing.T) {
	tab, err := ControlPlaneBench(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(controlScenarios) {
		t.Fatalf("control-bench has %d rows, want the %d scenarios %v",
			len(tab.Rows), len(controlScenarios), controlScenarios)
	}
	for i, want := range controlScenarios {
		if tab.Rows[i][0] != want {
			t.Fatalf("control-bench row %d is %s, want %s", i, tab.Rows[i][0], want)
		}
	}
}

// TestMissingControlScenarios covers the baseline staleness guard: a
// baseline without the nested Control table (or with an incomplete one)
// must report the absent scenario rows; a freshly generated control table
// must report none.
func TestMissingControlScenarios(t *testing.T) {
	missing, err := MissingControlScenarios([]byte(`{"Header":["policy"],"Rows":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != len(controlScenarios) {
		t.Fatalf("pre-Control baseline reports %v missing, want all of %v", missing, controlScenarios)
	}
	partial := []byte(`{"Header":["policy"],"Rows":[],
		"Control":{"Header":["scenario"],"Rows":[["cold"],["steady"]]}}`)
	missing, err = MissingControlScenarios(partial)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"swing"}
	if len(missing) != len(want) {
		t.Fatalf("partial baseline reports %v missing, want %v", missing, want)
	}
	for i := range want {
		if missing[i] != want[i] {
			t.Fatalf("partial baseline reports %v missing, want %v", missing, want)
		}
	}
	tab, err := ControlPlaneBench(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	full := &Table{ID: "federation-bench", Header: federationSweepHeader, Control: tab}
	var buf bytes.Buffer
	if err := full.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	missing, err = MissingControlScenarios(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("fresh control table reports %v missing, want none", missing)
	}
}
