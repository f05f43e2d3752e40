package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

const hierScenario = `
name: unit-hier
duration: 1m
placer: metro-affine
global-fairshare: true
hierarchy:
  reclaim: true
  reclaim-latency: 4ms
  rtt-classes:
    intra-metro: 2ms
    intra-region: 10ms
    cross-region: 40ms
  groups:
    - name: west
      groups:
        - name: m0
          sites: [a, b]
        - name: m1
          weight: 2
          sites: [c]
    - name: east
      groups:
        - name: m2
          sites: [d]
fleet:
  - name: a
    nodes: 1
    cpu-per-node: 1000
    mem-per-node: 512
    functions:
      - spec: squeezenet
        workload:
          - rate: 5
  - name: b
    nodes: 1
    cpu-per-node: 1000
    mem-per-node: 512
    functions:
      - spec: squeezenet
        workload:
          - rate: 5
  - name: c
    nodes: 1
    cpu-per-node: 1000
    mem-per-node: 512
    functions:
      - spec: squeezenet
        workload:
          - rate: 5
  - name: d
    nodes: 1
    cpu-per-node: 1000
    mem-per-node: 512
    functions:
      - spec: squeezenet
        workload:
          - rate: 5
`

// TestParseHierarchyScenario: the hierarchy block round-trips into a
// validated quota tree, the reclaim knobs reach the federation config,
// and rtt-classes derive the three-class latency matrix from the tree.
func TestParseHierarchyScenario(t *testing.T) {
	sc, err := Parse([]byte(hierScenario))
	if err != nil {
		t.Fatal(err)
	}
	h := sc.Hierarchy
	if h == nil {
		t.Fatal("hierarchy block not parsed")
	}
	if !h.Reclaim || h.ReclaimLatency != 4*time.Millisecond {
		t.Errorf("reclaim knobs mis-parsed: %+v", h)
	}
	if h.RTTClasses == nil || h.RTTClasses.IntraRegion != 10*time.Millisecond {
		t.Errorf("rtt-classes mis-parsed: %+v", h.RTTClasses)
	}
	if len(h.Groups) != 2 || len(h.Groups[0].Groups) != 2 || h.Groups[0].Groups[1].Weight != 2 {
		t.Errorf("groups mis-parsed: %+v", h.Groups)
	}
	cfg, err := sc.Build(-1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hierarchy == nil || !cfg.Reclaim || cfg.ReclaimLatency != 4*time.Millisecond {
		t.Fatalf("hierarchy not wired into the federation config: %+v", cfg.Hierarchy)
	}
	levels := cfg.Hierarchy.Levels()
	if levels["a"].Metro != levels["b"].Metro || levels["a"].Metro == levels["c"].Metro {
		t.Errorf("metro assignment wrong: %+v", levels)
	}
	if levels["a"].Region != levels["c"].Region || levels["a"].Region == levels["d"].Region {
		t.Errorf("region assignment wrong: %+v", levels)
	}
	if cfg.Topology == nil {
		t.Fatal("rtt-classes produced no topology")
	}
	ab, ac, ad := cfg.Topology.RTT(0, 1), cfg.Topology.RTT(0, 2), cfg.Topology.RTT(0, 3)
	if ab != 2*time.Millisecond || ac != 10*time.Millisecond || ad != 40*time.Millisecond {
		t.Errorf("derived RTTs (a→b,a→c,a→d) = (%v,%v,%v), want (2ms,10ms,40ms)", ab, ac, ad)
	}
}

// replace patches one marker line of the valid hierarchy fixture so each
// rejection case stays readable as a diff from a known-good file.
func replaceLine(t *testing.T, old, new string) string {
	t.Helper()
	if !strings.Contains(hierScenario, old) {
		t.Fatalf("fixture lost marker %q", old)
	}
	return strings.Replace(hierScenario, old, new, 1)
}

func TestHierarchyValidationRejections(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown hierarchy key", replaceLine(t, "  reclaim: true", "  preempt: true"), "unknown hierarchy key"},
		{"unknown rtt class", replaceLine(t, "    intra-metro: 2ms", "    same-rack: 2ms"), "unknown rtt-classes key"},
		{"unknown group key", replaceLine(t, "          sites: [d]", "          members: [d]"), "unknown hierarchy group key"},
		{"stray site", replaceLine(t, "          sites: [c]", "          sites: [c, zz]"), `names unknown site "zz"`},
		{"uncovered fleet site", hierScenario + "  - name: e\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        workload:\n          - rate: 5\n", `site "e" not assigned`},
		{"site in two groups", replaceLine(t, "          sites: [d]", "          sites: [d, c]"), "more than one hierarchy group"},
		{"duplicate group name", replaceLine(t, "        - name: m2", "        - name: m0"), "duplicate"},
		{"negative weight", replaceLine(t, "          weight: 2", "          weight: -1"), "negative weight"},
		{"group with sites and groups", replaceLine(t, "    - name: east", "    - name: east\n      sites: [d]"), "both children and sites"},
		{"reclaim without fair share", replaceLine(t, "global-fairshare: true", "global-fairshare: false"), "requires global-fairshare"},
		{"rtt-classes with topology", replaceLine(t, "placer: metro-affine", "placer: metro-affine\ntopology:\n  kind: ring\n  rtt: 5ms"), "mutually exclusive"},
		{"duplicate fleet site", replaceLine(t, "  - name: d", "  - name: c"), "duplicate fleet site"},
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

// TestNonFiniteGroupWeightFailsAtLoad: a NaN or infinite group weight used
// to load cleanly and fail only at the first allocation epoch, blaming a
// negative capacity. The loader now rejects it on its own line.
func TestNonFiniteGroupWeightFailsAtLoad(t *testing.T) {
	const marker = "          weight: 2"
	line := fmt.Sprintf("line %d:", strings.Count(hierScenario[:strings.Index(hierScenario, marker)], "\n")+1)
	for _, w := range []string{"NaN", "+Inf", "-Inf", "infinity"} {
		_, err := Parse([]byte(replaceLine(t, marker, "          weight: "+w)))
		if err == nil {
			t.Errorf("weight %s: accepted", w)
			continue
		}
		for _, want := range []string{line, `"weight"`, "finite"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("weight %s: error %q does not mention %q", w, err, want)
			}
		}
	}
}

// TestUnknownKeysCarryLineNumbers pins the strict-subset contract at
// every nesting level: an unknown key is rejected with the offending
// file line, not silently dropped and not reported at the top.
func TestUnknownKeysCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name, src, wantKey string
		wantLine           string
	}{
		{"top level",
			"name: x\nduration: 1m\nturbo: on\n",
			"unknown scenario key \"turbo\"", "line 3"},
		{"fleet site",
			"name: x\nduration: 1m\nfleet:\n  - name: a\n    racks: 2\n",
			"unknown fleet site key \"racks\"", "line 5"},
		{"function",
			"name: x\nduration: 1m\nfleet:\n  - name: a\n    nodes: 1\n    cpu-per-node: 1000\n    mem-per-node: 512\n    functions:\n      - spec: squeezenet\n        gpu: 1\n",
			"unknown function key \"gpu\"", "line 10"},
		{"hierarchy",
			"name: x\nduration: 1m\nhierarchy:\n  borrow: true\n",
			"unknown hierarchy key \"borrow\"", "line 4"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.src))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, want := range []string{c.wantKey, c.wantLine} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, want)
			}
		}
	}
}
