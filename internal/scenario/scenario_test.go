package scenario

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"lass/internal/chaos"
	"lass/internal/federation"
)

const validScenario = `
name: unit-valid
description: "loader round-trip fixture"
seed: 9
duration: 1m
response-slo: 250ms
placer: model-driven
global-fairshare: true
admission: true
alloc-epoch: 5s
grant-lease: 10s
coordinator:
  election: centroid
topology:
  kind: star
  rtt: 5ms
fleet:
  - name: edge-0
    nodes: 1
    cpu-per-node: 4000
    mem-per-node: 8192
    functions:
      - spec: squeezenet
        prewarm: 1
        workload:
          - rate: 20
          - start: 20s
            rate: 80
  - name: edge-1
    nodes: 2
    cpu-per-node: 2000
    mem-per-node: 4096
    functions:
      - spec: squeezenet
        prewarm: 1
        min-containers: 1
        workload:
          - rate: 5
chaos:
  seed: 3
  faults:
    - kind: link
      from: 1
      to: 0
      bidirectional: true
      mean-up: 30s
      mean-down: 10s
    - kind: coordinator
      windows: [{start: 10s, end: 20s}]
assertions:
  min-alloc-epochs: 1
`

func TestParseValidScenario(t *testing.T) {
	sc, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "unit-valid" || sc.Seed != 9 || sc.Duration != time.Minute {
		t.Errorf("header mis-parsed: %+v", sc)
	}
	if !sc.GlobalFairShare || !sc.Admission || sc.GrantLease != 10*time.Second {
		t.Errorf("allocator knobs mis-parsed: %+v", sc)
	}
	if sc.Coordinator.Election != "centroid" || sc.Topology.Kind != "star" || sc.Topology.RTT != 5*time.Millisecond {
		t.Errorf("coordinator/topology mis-parsed: %+v %+v", sc.Coordinator, sc.Topology)
	}
	if len(sc.Fleet) != 2 || sc.Fleet[1].Nodes != 2 || len(sc.Fleet[0].Functions[0].Steps) != 2 {
		t.Errorf("fleet mis-parsed: %+v", sc.Fleet)
	}
	if sc.Chaos.Seed != 3 || len(sc.Chaos.Faults) != 2 {
		t.Fatalf("chaos mis-parsed: %+v", sc.Chaos)
	}
	link := sc.Chaos.Faults[0]
	if link.Kind != chaos.FaultLink || !link.Bidirectional || link.GE.MeanDown != 10*time.Second {
		t.Errorf("link fault mis-parsed: %+v", link)
	}
	coord := sc.Chaos.Faults[1]
	if coord.Kind != chaos.FaultCoordinator || len(coord.Windows) != 1 || coord.Windows[0].End != 20*time.Second {
		t.Errorf("coordinator fault mis-parsed: %+v", coord)
	}
}

func TestBuildAndRunScenario(t *testing.T) {
	sc, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Build(-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Sites) != 2 || cfg.Faults == nil || !cfg.GlobalFairShare {
		t.Fatalf("built config is off: sites=%d faults=%v", len(cfg.Sites), cfg.Faults != nil)
	}
	fed, err := federation.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Run(sc.Duration)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Check(res); err != nil {
		t.Errorf("assertions failed on the scenario's own run: %v", err)
	}
	if res.AllocEpochs == 0 {
		t.Error("no allocation epochs ran")
	}
}

// TestBuildChaosSeedOverride: overriding the chaos seed changes the
// failure realization but not the workload (same arrivals observed).
func TestBuildChaosSeedOverride(t *testing.T) {
	sc, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) (uint64, uint64) {
		cfg, err := sc.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := federation.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fed.Run(sc.Duration)
		if err != nil {
			t.Fatal(err)
		}
		var ingress uint64
		for _, s := range res.Sites {
			ingress += s.SLO.Total() + s.Unresolved
		}
		return ingress, res.PartitionedEpochs + res.MissedAllocEpochs
	}
	inA, faultsA := run(100)
	inB, faultsB := run(101)
	// Different chaos realizations may shift which requests complete, but
	// at least one of the fault counters should differ across seeds while
	// total offered load stays in the same ballpark; and an identical
	// seed must reproduce exactly.
	inA2, faultsA2 := run(100)
	if inA != inA2 || faultsA != faultsA2 {
		t.Errorf("same chaos seed not reproducible: (%d,%d) vs (%d,%d)", inA, faultsA, inA2, faultsA2)
	}
	if faultsA == faultsB && inA == inB {
		t.Logf("warning: chaos seeds 100/101 produced identical runs (possible but unlikely)")
	}
}

func TestScenarioValidationRejections(t *testing.T) {
	base := func(mutate string) string { return mutate }
	cases := []struct {
		name, src, want string
	}{
		{"no name", base("duration: 1m\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "no name"},
		{"no fleet", base("name: x\nduration: 1m\n"), "fleet is empty"},
		{"no duration", base("name: x\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "duration"},
		{"unknown key", base("name: x\nduration: 1m\nbogus: 1\n"), "unknown scenario key"},
		{"negative alloc-epoch", base("name: x\nduration: 1m\nalloc-epoch: -1s\n"), "line 3: scenario \"alloc-epoch\""},
		{"unknown spec", base("name: x\nduration: 1m\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: nonesuch\n        workload:\n          - rate: 1\n"), "nonesuch"},
		{"bad placer", base("name: x\nduration: 1m\nplacer: warp-drive\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "warp-drive"},
		{"bad election", base("name: x\nduration: 1m\ncoordinator:\n  election: dice\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "dice"},
		{"fault out of range", base("name: x\nduration: 1m\nchaos:\n  faults:\n    - kind: site\n      site: 7\n      mean-up: 10s\n      mean-down: 5s\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "out of range"},
		{"overlapping windows", base("name: x\nduration: 1m\nchaos:\n  faults:\n    - kind: coordinator\n      windows: [{start: 0s, end: 20s}, {start: 10s, end: 30s}]\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "overlap"},
		{"matrix size", base("name: x\nduration: 1m\ntopology:\n  kind: matrix\n  matrix-ms:\n    - [0, 1]\n    - [1, 0]\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "matrix is 2 rows for 1 sites"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.src))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestCommittedScenariosLoad is the schema gate CI runs: every scenario
// file committed under scenarios/ must parse, validate, and build.
func TestCommittedScenariosLoad(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("scenarios directory: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".yaml") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatal("no committed scenario files found")
	}
	seen := map[string]string{}
	for _, f := range files {
		sc, err := Load(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if prev, dup := seen[sc.Name]; dup {
			t.Errorf("%s: scenario name %q already used by %s", f, sc.Name, prev)
		}
		seen[sc.Name] = f
		if _, err := sc.Build(-1); err != nil {
			t.Errorf("%s: build: %v", f, err)
		}
	}
}
