package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
		{"NaN matrix cell", matrixScenario("[0, NaN]", "[NaN, 0]"), `line 6: topology "matrix-ms": "NaN" is not a finite number`},
		{"+Inf matrix cell", matrixScenario("[0, +Inf]", "[1, 0]"), `line 6: topology "matrix-ms": "+Inf" is not a finite number`},
		{"-Inf matrix cell", matrixScenario("[0, 1]", "[-Inf, 0]"), `line 7: topology "matrix-ms": "-Inf" is not a finite number`},
		{"overflowing matrix cell", matrixScenario("[0, 1e300]", "[1, 0]"), "matrix-ms cell (0,1) = 1e+300 does not fit a duration"},
		{"negative prewarm", strings.Replace(validScenario, "prewarm: 1", "prewarm: -3", 1), `fleet site 0 function "squeezenet": negative prewarm (-3)`},
		{"negative max-violation-rate", validScenario + "  max-violation-rate: -0.5\n", "max-violation-rate -0.5 is negative"},
		{"zero nodes", strings.Replace(validScenario, "nodes: 2", "nodes: 0", 1), "fleet site 1 needs positive nodes/cpu-per-node/mem-per-node"},
		{"negative cpu-per-node", strings.Replace(validScenario, "cpu-per-node: 4000", "cpu-per-node: -1", 1), "fleet site 0 needs positive nodes/cpu-per-node/mem-per-node"},
		{"zero mem-per-node", strings.Replace(validScenario, "mem-per-node: 4096", "mem-per-node: 0", 1), "fleet site 1 needs positive nodes/cpu-per-node/mem-per-node"},
		{"site without functions", "name: x\nduration: 1m\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n", "fleet site 0 deploys no functions"},
		{"function without spec", strings.Replace(validScenario, "      - spec: squeezenet\n        prewarm: 1\n        workload:\n          - rate: 5", "      - prewarm: 1\n        workload:\n          - rate: 5", 1), "fleet site 1 has a function without a spec"},
		{"function without workload", "name: x\nduration: 1m\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n", `fleet site 0 function "squeezenet" has no workload`},
		{"star with a matrix", strings.Replace(validScenario, "  rtt: 5ms", "  rtt: 5ms\n  matrix-ms:\n    - [0, 1]\n    - [1, 0]", 1), `topology kind "star" does not take a matrix`},
		{"matrix row length", matrixScenario("[0, 1]", "[1]"), "topology matrix row 1 has 1 cells for 2 sites"},
		{"unknown topology kind", strings.Replace(validScenario, "kind: star", "kind: mesh", 1), `topology kind "mesh" is not ring/star/matrix`},
		{"duplicate effective site name", "name: x\nduration: 1m\nfleet:\n" + unnamedSite + strings.Replace(unnamedSite, "  - ", "  - name: edge-0\n    ", 1), `duplicate fleet site name "edge-0"`},
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

// TestGrantLeaseKeys: an omitted key and an explicit 0s both leave the
// federation default in charge.
func TestGrantLeaseKeys(t *testing.T) {
	build := func(lease string) federation.Config {
		t.Helper()
		sc, err := Parse([]byte(strings.Replace(validScenario, "grant-lease: 10s\n", lease, 1)))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sc.Build(-1)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	omitted, zero := build(""), build("grant-lease: 0s\n")
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

// benchmarkKeys are the scenario keys only benchmark/gen.go writes, in the
// documents it generates: no file under scenarios/ sets them. Each must
// still appear in gen.go as "key:", so an entry cannot outlive its writer.
var benchmarkKeys = map[string]string{
	"scenario.HierarchyGroup weight": "fed_full gives every region's first metro weight 3",
	"chaos.Fault site":               "fed_full darkens one site for a window",
}

// TestDSLKeysHaveInputs fails on a scenario key that no committed input
// writes: a key every input leaves at its default has one value in use,
// so it belongs in a constant. It walks every scenarios/*.yaml against
// Scenario's schema, marking each (struct type, key) pair it meets, with
// benchmarkKeys standing in for the documents benchmark/gen.go generates.
func TestDSLKeysHaveInputs(t *testing.T) {
	d := decoder{schemas: make(map[reflect.Type]*schema)}
	elem := func(typ reflect.Type) reflect.Type {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		return typ
	}
	// pair names one key of one struct type, its inline fields flattened.
	pair := func(typ reflect.Type, key string) string { return typ.String() + " " + key }
	keyType := func(typ reflect.Type, f *field) reflect.Type {
		for _, i := range f.index {
			typ = elem(typ).Field(i).Type
		}
		return elem(typ)
	}

	written := map[string]bool{}
	var walk func(n *node, typ reflect.Type)
	walk = func(n *node, typ reflect.Type) {
		if typ.Kind() != reflect.Struct {
			return
		}
		if n.kind == listNode {
			for _, item := range n.items {
				walk(item, typ)
			}
			return
		}
		s := d.schemaOf(typ)
		for i, k := range n.keys {
			if j := slices.Index(s.keys, k); j >= 0 {
				written[pair(typ, k)] = true
				walk(n.items[i], keyType(typ, &s.fields[j]))
			}
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed scenarios (%v)", err)
	}
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		root, err := parse(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		walk(root, reflect.TypeOf(Scenario{}))
	}

	gen, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	seen := map[reflect.Type]bool{}
	var check func(typ reflect.Type)
	check = func(typ reflect.Type) {
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		s := d.schemaOf(typ)
		for i := range s.fields {
			f := &s.fields[i]
			p := pair(typ, f.key)
			declared[p] = true
			_, bench := benchmarkKeys[p]
			switch {
			case bench && written[p]:
				t.Errorf("%s is written by a committed scenario: drop its benchmarkKeys entry", p)
			case bench && !strings.Contains(string(gen), f.key+":"):
				t.Errorf("%s is in benchmarkKeys, but benchmark/gen.go no longer writes it", p)
			case !bench && !written[p]:
				t.Errorf("%s is written by no committed scenario or benchmark input: make it a constant or delete it", p)
			}
			check(keyType(typ, f))
		}
	}
	check(reflect.TypeOf(Scenario{}))
	for p := range benchmarkKeys {
		if !declared[p] {
			t.Errorf("benchmarkKeys lists %s, which is no scenario key", p)
		}
	}
}
