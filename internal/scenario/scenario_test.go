package scenario

import (
	"os"
	"path/filepath"
	"reflect"
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

// unnamedSite is one fleet item without a name.
const unnamedSite = "  - nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"

// matrixScenario is a two-site scenario whose matrix-ms rows are lines
// 6 and 7.
func matrixScenario(row0, row1 string) string {
	return "name: x\nduration: 1m\ntopology:\n  kind: matrix\n  matrix-ms:\n    - " + row0 + "\n    - " + row1 + "\nfleet:\n" + unnamedSite + unnamedSite
}

// withGeofence sets validScenario's site-1 squeezenet min-containers to
// squeezenet and deploys geofence next to it with min-containers
// geofence; an empty value leaves the key out.
func withGeofence(squeezenet, geofence string) string {
	key := func(v string) string {
		if v == "" {
			return ""
		}
		return "        min-containers: " + v + "\n"
	}
	src := strings.Replace(validScenario, "        min-containers: 1\n", key(squeezenet), 1)
	return strings.Replace(src, "          - rate: 5\n", "          - rate: 5\n      - spec: geofence\n"+key(geofence)+"        workload:\n          - rate: 5\n", 1)
}

// TestPoolFloorIsPerSite: min-containers sets the floor of the site's one
// pool, so one value, or several that agree, is that site's floor and a
// site that sets none keeps 1.
func TestPoolFloorIsPerSite(t *testing.T) {
	for _, c := range []struct{ squeezenet, geofence string }{{"3", "3"}, {"", "3"}, {"3", ""}} {
		sc, err := Parse([]byte(withGeofence(c.squeezenet, c.geofence)))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.Build(-1)
		if err != nil {
			t.Fatal(err)
		}
		if got0, got1 := cfg.Sites[0].Controller.MinContainers, cfg.Sites[1].Controller.MinContainers; got0 != 1 || got1 != 3 {
			t.Errorf("min-containers %q/%q: site floors %d, %d; want 1, 3", c.squeezenet, c.geofence, got0, got1)
		}
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
		{"star without rtt", base("name: x\nduration: 1m\ntopology:\n  kind: star\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "needs a positive \"rtt\""},
		{"star with zero rtt", base("name: x\nduration: 1m\ntopology:\n  kind: star\n  rtt: 0ms\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "needs a positive \"rtt\""},
		{"ring without rtt", base("name: x\nduration: 1m\ntopology:\n  kind: ring\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "needs a positive \"rtt\""},
		{"ring with negative rtt", base("name: x\nduration: 1m\ntopology:\n  kind: ring\n  rtt: -5ms\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 1\n"), "needs a positive \"rtt\""},
		{"negative response-slo", base("name: x\nduration: 1m\nresponse-slo: -250ms\n"), "line 3: scenario \"response-slo\""},
		{"NaN matrix cell", matrixScenario("[0, NaN]", "[NaN, 0]"), `line 6: topology "matrix-ms": "NaN" is not a finite number`},
		{"+Inf matrix cell", matrixScenario("[0, +Inf]", "[1, 0]"), `line 6: topology "matrix-ms": "+Inf" is not a finite number`},
		{"-Inf matrix cell", matrixScenario("[0, 1]", "[-Inf, 0]"), `line 7: topology "matrix-ms": "-Inf" is not a finite number`},
		{"overflowing matrix cell", matrixScenario("[0, 1e300]", "[1, 0]"), "matrix-ms cell (0,1) = 1e+300 does not fit a duration"},
		{"negative min-containers", strings.Replace(validScenario, "min-containers: 1", "min-containers: -2", 1), `fleet site 1 function "squeezenet": negative prewarm (1) or min-containers (-2)`},
		{"negative prewarm", strings.Replace(validScenario, "prewarm: 1", "prewarm: -3", 1), `fleet site 0 function "squeezenet": negative prewarm (-3)`},
		{"negative max-violation-rate", validScenario + "  max-violation-rate: -0.5\n", "max-violation-rate -0.5 is negative"},
		{"zero nodes", strings.Replace(validScenario, "nodes: 2", "nodes: 0", 1), "fleet site 1 needs positive nodes/cpu-per-node/mem-per-node"},
		{"negative cpu-per-node", strings.Replace(validScenario, "cpu-per-node: 4000", "cpu-per-node: -1", 1), "fleet site 0 needs positive nodes/cpu-per-node/mem-per-node"},
		{"zero mem-per-node", strings.Replace(validScenario, "mem-per-node: 4096", "mem-per-node: 0", 1), "fleet site 1 needs positive nodes/cpu-per-node/mem-per-node"},
		{"site without functions", "name: x\nduration: 1m\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n", "fleet site 0 deploys no functions"},
		{"function without spec", strings.Replace(validScenario, "      - spec: squeezenet\n        prewarm: 1\n        min-containers: 1", "      - prewarm: 1\n        min-containers: 1", 1), "fleet site 1 has a function without a spec"},
		{"function without workload", "name: x\nduration: 1m\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n", `fleet site 0 function "squeezenet" has no workload`},
		{"coordinator site out of range", strings.Replace(validScenario, "  election: centroid", "  site: 2", 1), "coordinator site 2 out of range [0, 2)"},
		{"star with a matrix", strings.Replace(validScenario, "  rtt: 5ms", "  rtt: 5ms\n  matrix-ms:\n    - [0, 1]\n    - [1, 0]", 1), `topology kind "star" does not take a matrix`},
		{"matrix row length", matrixScenario("[0, 1]", "[1]"), "topology matrix row 1 has 1 cells for 2 sites"},
		{"unknown topology kind", strings.Replace(validScenario, "kind: star", "kind: mesh", 1), `topology kind "mesh" is not ring/star/matrix`},
		{"duplicate effective site name", "name: x\nduration: 1m\nfleet:\n" + unnamedSite + strings.Replace(unnamedSite, "  - ", "  - name: edge-0\n    ", 1), `duplicate fleet site name "edge-0"`},
		{"two pool floors at one site", withGeofence("1", "3"), "fleet site 1 sets min-containers 1 and 3"},
		{"hierarchy without groups", strings.Replace(validScenario, "topology:\n", "hierarchy:\n  reclaim: false\ntopology:\n", 1), "hierarchy declares no groups"},
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

// TestGrantLeaseKeys: `frozen` is the −1 (unleased) lease all the way
// into the federation config, and an omitted key and an explicit 0s both
// leave the federation default in charge.
func TestGrantLeaseKeys(t *testing.T) {
	build := func(lease string) (*Scenario, federation.Config) {
		t.Helper()
		sc, err := Parse([]byte(strings.Replace(validScenario, "grant-lease: 10s\n", lease, 1)))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.Build(-1)
		if err != nil {
			t.Fatal(err)
		}
		return sc, cfg
	}
	sc, cfg := build("grant-lease: frozen\n")
	if sc.GrantLease != -1 || cfg.GrantLease != -1 {
		t.Errorf("frozen: scenario lease %v, config lease %v; want -1ns both", sc.GrantLease, cfg.GrantLease)
	}
	_, omitted := build("")
	_, zero := build("grant-lease: 0s\n")
	if omitted.GrantLease != 0 || !reflect.DeepEqual(omitted, zero) {
		t.Errorf("omitted and 0s grant-lease build different configs: %+v vs %+v", omitted, zero)
	}
}

// TestDSLFieldsAreTagged: every exported field reachable from Scenario is
// a scenario key, so no field can exist that a file cannot set.
func TestDSLFieldsAreTagged(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if _, ok := f.Tag.Lookup("scenario"); !ok {
				t.Errorf("%v.%s has no scenario tag", typ, f.Name)
			}
			walk(f.Type)
		}
	}
	walk(reflect.TypeOf(Scenario{}))
	if len(seen) < 14 {
		t.Errorf("walked %d struct types, want the 14 the DSL declares", len(seen))
	}
}
