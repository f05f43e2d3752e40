package scenario

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *node {
	t.Helper()
	n, err := parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return n
}

// The documents the tests below parse; FuzzYAMLMatchesReference seeds
// from them too.
const (
	blockMappingDoc = `
name: demo        # trailing comment
seed: 42
nested:
  a: 1s
  b: "quoted: value"
`
	blockListDoc = `
faults:
  - kind: site
    site: 1
  - kind: link
    from: 0
    to: 2
plain:
  - one
  - two
`
	flowValuesDoc = `
sites: [1, 2, 3]
windows: [{start: 10s, end: 40s}, {start: 60s, end: 65s}]
empty: []
`
	flowQuotesDoc = `
list: ["x,y", z, 'a]b', "{c}"]
map: {"k:z": 1, name: "x,y", 'q': "}"}
`
	flowTrailingDoc = `
trailing: [tiny, big, calm,]
trailing-map: {rate: 120, }
nested: [[a,], {b: 1,},]
`
)

func TestParseBlockMapping(t *testing.T) {
	n := mustParse(t, blockMappingDoc)
	if n.kind != mapNode {
		t.Fatalf("root is %v, want mapping", n.kind)
	}
	if got := n.child("name").scalar; got != "demo" {
		t.Errorf("name = %q", got)
	}
	if got := n.child("seed").scalar; got != "42" {
		t.Errorf("seed = %q", got)
	}
	nested := n.child("nested")
	if nested.kind != mapNode || nested.child("a").scalar != "1s" {
		t.Fatalf("nested block mapping mis-parsed: %+v", nested)
	}
	if got := nested.child("b").scalar; got != "quoted: value" {
		t.Errorf("quoted scalar = %q", got)
	}
	if want := []string{"name", "seed", "nested"}; strings.Join(n.keys, ",") != strings.Join(want, ",") {
		t.Errorf("key order %v, want %v", n.keys, want)
	}
}

func TestParseBlockList(t *testing.T) {
	n := mustParse(t, blockListDoc)
	faults := n.child("faults")
	if faults.kind != listNode || len(faults.items) != 2 {
		t.Fatalf("faults mis-parsed: %+v", faults)
	}
	if faults.items[0].child("site").scalar != "1" || faults.items[1].child("to").scalar != "2" {
		t.Errorf("list-item mappings mis-parsed: %+v %+v", faults.items[0], faults.items[1])
	}
	plain := n.child("plain")
	if len(plain.items) != 2 || plain.items[1].scalar != "two" {
		t.Errorf("scalar list mis-parsed: %+v", plain)
	}
}

func TestParseFlowValues(t *testing.T) {
	n := mustParse(t, flowValuesDoc)
	sites := n.child("sites")
	if len(sites.items) != 3 || sites.items[2].scalar != "3" {
		t.Fatalf("flow list mis-parsed: %+v", sites)
	}
	ws := n.child("windows")
	if len(ws.items) != 2 {
		t.Fatalf("nested flow mis-parsed: %+v", ws)
	}
	if ws.items[0].child("start").scalar != "10s" || ws.items[1].child("end").scalar != "65s" {
		t.Errorf("flow map values mis-parsed")
	}
	if len(n.child("empty").items) != 0 {
		t.Errorf("empty flow list mis-parsed")
	}
}

var parseErrorCases = []struct {
	name, src, want string
}{
	{"tab indent", "a:\n\tb: 1", "tab"},
	{"duplicate key", "a: 1\na: 2", "duplicate key"},
	{"unterminated flow", "a: [1, 2", "unterminated"},
	{"anchor", "a: &x 1", "unsupported YAML feature"},
	{"block scalar", "a: |", "unsupported YAML feature"},
	{"empty", "  \n# only a comment\n", "empty document"},
	{"bad nesting", "a: 1\n   b: 2", "unexpected indentation"},
	{"empty list entry", "a: 1\nb: [a, , b]", "line 2: empty flow list entry"},
	{"leading comma", "a: [, b]", "line 1: empty flow list entry"},
	{"two trailing commas", "a: [b,,]", "line 1: empty flow list entry"},
	{"empty map entry", "a:\n  b: {x: 1, , y: 2}", "line 2: empty flow map entry"},
	{"lone comma", "a: {,}", "line 1: empty flow map entry"},
	{"unclosed quote", `a: ["x, y]`, "line 1: unterminated flow list"},
	{"quoted colon only", `a: {"k:z"}`, "line 1: flow map entry without ':'"},
	{"tab after a parse error", "a: [1\nb: 2\n\tc: 3", "line 3: tab"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := parse([]byte(c.src))
		if err == nil {
			t.Errorf("%s: parsed", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := parse([]byte("a: 1\nb: 2\nb: 3\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("duplicate-key error %v does not carry line 3", err)
	}
}

// Quotes inside flow collections keep ',', ':', ']' and '}' as text.
func TestParseFlowQuotes(t *testing.T) {
	n := mustParse(t, flowQuotesDoc)
	list := n.child("list")
	var got []string
	for _, it := range list.items {
		got = append(got, it.scalar)
	}
	if want := []string{"x,y", "z", "a]b", "{c}"}; !slices.Equal(got, want) {
		t.Errorf("quoted flow list = %q, want %q", got, want)
	}
	m := n.child("map")
	if want := []string{"k:z", "name", "q"}; !slices.Equal(m.keys, want) {
		t.Errorf("quoted flow map keys = %q, want %q", m.keys, want)
	}
	if m.child("k:z").scalar != "1" || m.child("name").scalar != "x,y" || m.child("q").scalar != "}" {
		t.Errorf("quoted flow map values mis-parsed: %+v", m)
	}
}

// One trailing comma closes a flow collection like no comma at all.
func TestParseFlowTrailingComma(t *testing.T) {
	n := mustParse(t, flowTrailingDoc)
	if tr := n.child("trailing"); len(tr.items) != 3 || tr.items[2].scalar != "calm" {
		t.Errorf("trailing comma in a list: %d items, want tiny, big, calm", len(tr.items))
	}
	if tm := n.child("trailing-map"); len(tm.keys) != 1 || tm.child("rate").scalar != "120" {
		t.Errorf("trailing comma in a map: keys %q", tm.keys)
	}
	nested := n.child("nested")
	if len(nested.items) != 2 || len(nested.items[0].items) != 1 || len(nested.items[1].keys) != 1 {
		t.Errorf("trailing commas in nested flows mis-parsed: %+v", nested)
	}
}

// The flow fixes hold end to end: a quoted site name with a comma, and a
// trailing comma in a site list, load as written; an empty entry is an
// error on its line instead of a site named "".
func TestScenarioFlowLists(t *testing.T) {
	want, err := Parse([]byte(hierScenario))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Parse([]byte(replaceLine(t, "          sites: [a, b]", "          sites: [a, b,]"))); err != nil {
		t.Errorf("trailing comma: %v", err)
	} else if !reflect.DeepEqual(got, want) {
		t.Error("trailing comma: the scenario differs from the one without it")
	}
	src := strings.Replace(replaceLine(t, "          sites: [a, b]", `          sites: [a, "b,2"]`), "  - name: b\n", "  - name: \"b,2\"\n", 1)
	quoted, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("quoted site name with a comma: %v", err)
	}
	if got := quoted.Hierarchy.Groups[0].Groups[0].Sites; !slices.Equal(got, []string{"a", "b,2"}) || quoted.Fleet[1].Name != "b,2" {
		t.Errorf("quoted site name with a comma: group sites %q, fleet site %q", got, quoted.Fleet[1].Name)
	}
	_, err = Parse([]byte(replaceLine(t, "          sites: [a, b]", "          sites: [a, , b]")))
	if err == nil || err.Error() != "line 17: empty flow list entry" {
		t.Errorf("empty entry: error %v, want line 17: empty flow list entry", err)
	}
}
