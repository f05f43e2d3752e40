package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
)

// refParseYAML is the YAML layer as it stood before the one-pass parser:
// a line table from strings.Split, a Go map per mapping node, and up to
// three colon scans per `key:` line. It is frozen, with its helpers
// renamed, so FuzzYAMLMatchesReference can hold parse to the same trees
// and the same error texts.

// FuzzYAMLMatchesReference: on every input, parse and refParseYAML either
// both accept with equal trees (kind, scalar, key order, items, line) or
// both reject with the same error text. Inputs that reach the two
// deliberate changes are skipped (see flowChanged): quotes inside flow
// collections, which parse honours and the reference did not, and empty
// flow entries, which parse ignores once as a trailing comma and rejects
// elsewhere, and the reference read as empty scalars or odd keys. CI
// fuzzes beyond the seeds for 10 s:
//
//	go test -run '^$' -fuzz '^FuzzYAMLMatchesReference$' -fuzztime 10s ./internal/scenario
func FuzzYAMLMatchesReference(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no committed scenarios (%v)", err)
	}
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range yamlSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(validScenario))
	f.Add([]byte(hierScenario))
	// The metro_day-shaped document, cut after its first site's third step.
	metro := string(metroDoc())
	f.Add([]byte(metro[:strings.Index(metro, "          - {start: 3m")]))
	f.Fuzz(func(t *testing.T, data []byte) {
		if flowChanged(string(data)) {
			return
		}
		got, err := parse(data)
		want, refErr := refParseYAML(data)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("parse error %v, reference error %v", err, refErr)
		case err != nil:
			if err.Error() != refErr.Error() {
				t.Fatalf("error texts differ:\nparse     %s\nreference %s", err, refErr)
			}
		default:
			if msg := sameTree(got, want, "root"); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}

// sameTree reports the first difference between a parse tree and a
// reference tree, or "".
func sameTree(n *node, r *refNode, at string) string {
	switch {
	case n.kind != r.kind || n.line != r.line || n.scalar != r.scalar:
		return fmt.Sprintf("%s: parse %v line %d %q, reference %v line %d %q", at, n.kind, n.line, n.scalar, r.kind, r.line, r.scalar)
	case strings.Join(n.keys, "\x00") != strings.Join(r.keys, "\x00") || len(n.keys) != len(r.keys):
		return fmt.Sprintf("%s: parse keys %q, reference %q", at, n.keys, r.keys)
	case n.kind == mapNode:
		for i, k := range r.keys {
			if msg := sameTree(n.items[i], r.children[k], at+"."+k); msg != "" {
				return msg
			}
		}
	case len(n.items) != len(r.items):
		return fmt.Sprintf("%s: parse has %d items, reference %d", at, len(n.items), len(r.items))
	default:
		for i := range r.items {
			if msg := sameTree(n.items[i], r.items[i], fmt.Sprintf("%s[%d]", at, i)); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// flowChanged reports whether some line of s, after its first '[' or
// '{', holds a quote character, or an empty flow entry: a ',' followed
// by nothing but white space and then ',', ']' or '}', or a '[' or '{'
// followed the same way by ','. White space is what strings.TrimSpace
// trims, as in the flow scanner.
func flowChanged(s string) bool {
	for _, line := range strings.Split(s, "\n") {
		i := strings.IndexAny(line, "[{")
		if i < 0 {
			continue
		}
		line = line[i:]
		if strings.ContainsAny(line, `'"`) {
			return true
		}
		for j, c := range line {
			if c != ',' && c != '[' && c != '{' {
				continue
			}
			next := strings.TrimLeftFunc(line[j+1:], unicode.IsSpace)
			if next != "" && (next[0] == ',' || c == ',' && (next[0] == ']' || next[0] == '}')) {
				return true
			}
		}
	}
	return false
}

// refNode is one parsed YAML value. Mappings keep their keys in file
// order (keys slice) so decoding and error reporting are deterministic.
type refNode struct {
	kind     nodeKind
	scalar   string
	keys     []string
	children map[string]*refNode
	items    []*refNode
	line     int
}

// refLine is one logical input line after comment stripping.
type refLine struct {
	indent int
	text   string
	num    int
}

// refStripComment removes a trailing `#` comment, respecting quotes.
func refStripComment(s string) string {
	quote := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i]
		}
	}
	return s
}

func refSplitLines(data []byte) ([]refLine, error) {
	var out []refLine
	for num, raw := range strings.Split(string(data), "\n") {
		line := refStripComment(raw)
		trimmed := strings.TrimRight(line, " \r")
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		body := trimmed[indent:]
		if body == "" {
			continue
		}
		if strings.HasPrefix(body, "\t") || strings.Contains(trimmed[:indent], "\t") {
			return nil, fmt.Errorf("line %d: tab in indentation (use spaces)", num+1)
		}
		out = append(out, refLine{indent: indent, text: body, num: num + 1})
	}
	return out, nil
}

// refParseYAML parses one YAML-subset document into its root node.
func refParseYAML(data []byte) (*refNode, error) {
	lines, err := refSplitLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	p := &refParser{lines: lines}
	root, err := p.refParseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
	}
	return root, nil
}

type refParser struct {
	lines []refLine
	pos   int
}

func (p *refParser) peek() (refLine, bool) {
	if p.pos >= len(p.lines) {
		return refLine{}, false
	}
	return p.lines[p.pos], true
}

// refParseBlock parses the run of lines at exactly the given indent as one
// value: a list if they start with "-", a mapping if they look like
// "key:", a bare scalar otherwise.
func (p *refParser) refParseBlock(indent int) (*refNode, error) {
	l, ok := p.peek()
	if !ok || l.indent < indent {
		return nil, fmt.Errorf("line %d: expected a value", p.refLastNum())
	}
	if l.indent > indent {
		return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
	}
	if refIsListItem(l.text) {
		return p.refParseList(indent)
	}
	if refKeyOf(l.text) != "" {
		return p.refParseMap(indent)
	}
	// Inline value on its own line: a flow list/map or a bare scalar.
	p.pos++
	return refParseValue(l.text, l.num)
}

func (p *refParser) refLastNum() int {
	if len(p.lines) == 0 {
		return 0
	}
	if p.pos >= len(p.lines) {
		return p.lines[len(p.lines)-1].num
	}
	return p.lines[p.pos].num
}

func refIsListItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// refColonIndex returns the position of the `key: value` separator — the
// first depth-0, unquoted colon followed by a space or end of line — or
// -1 when the line is not a `key:` form.
func refColonIndex(text string) int {
	quote := byte(0)
	depth := 0
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0:
			if i+1 == len(text) || text[i+1] == ' ' {
				return i
			}
		}
	}
	return -1
}

// refKeyOf returns the mapping key a line introduces, or "" when the line
// is not a `key:` form.
func refKeyOf(text string) string {
	i := refColonIndex(text)
	if i < 0 {
		return ""
	}
	return strings.TrimSpace(refUnquote(strings.TrimSpace(text[:i])))
}

func (p *refParser) refParseList(indent int) (*refNode, error) {
	first, _ := p.peek()
	n := &refNode{kind: listNode, line: first.num}
	for {
		l, ok := p.peek()
		if !ok || l.indent != indent || !refIsListItem(l.text) {
			break
		}
		body := strings.TrimPrefix(strings.TrimPrefix(l.text, "-"), " ")
		if body == "" {
			// `-` alone: the item is the following deeper block.
			p.pos++
			next, ok := p.peek()
			if !ok || next.indent <= indent {
				return nil, fmt.Errorf("line %d: empty list item", l.num)
			}
			item, err := p.refParseBlock(next.indent)
			if err != nil {
				return nil, err
			}
			n.items = append(n.items, item)
			continue
		}
		// `- content`: content behaves as if it started a block at the
		// column it appears in — splice it back as a synthetic line.
		itemIndent := l.indent + (len(l.text) - len(body))
		p.lines[p.pos] = refLine{indent: itemIndent, text: body, num: l.num}
		item, err := p.refParseBlock(itemIndent)
		if err != nil {
			return nil, err
		}
		n.items = append(n.items, item)
	}
	return n, nil
}

func (p *refParser) refParseMap(indent int) (*refNode, error) {
	first, _ := p.peek()
	n := &refNode{kind: mapNode, children: map[string]*refNode{}, line: first.num}
	for {
		l, ok := p.peek()
		if !ok || l.indent != indent || refIsListItem(l.text) {
			break
		}
		key := refKeyOf(l.text)
		if key == "" {
			return nil, fmt.Errorf("line %d: expected 'key: value', got %q", l.num, l.text)
		}
		if _, dup := n.children[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", l.num, key)
		}
		rest := strings.TrimSpace(l.text[refColonIndex(l.text)+1:])
		p.pos++
		var child *refNode
		if rest != "" {
			v, err := refParseValue(rest, l.num)
			if err != nil {
				return nil, err
			}
			child = v
		} else {
			next, ok := p.peek()
			if ok && (next.indent > indent || (next.indent == indent && refIsListItem(next.text))) {
				blockIndent := next.indent
				v, err := p.refParseBlock(blockIndent)
				if err != nil {
					return nil, err
				}
				child = v
			} else {
				// Bare `key:` with nothing under it: empty scalar.
				child = &refNode{kind: scalarNode, line: l.num}
			}
		}
		n.keys = append(n.keys, key)
		n.children[key] = child
	}
	return n, nil
}

// refParseValue parses an inline value: flow list, flow map, or scalar.
func refParseValue(s string, line int) (*refNode, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") || strings.HasPrefix(s, "{") {
		v, rest, err := refParseFlow(s, line)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, fmt.Errorf("line %d: trailing content %q after flow value", line, rest)
		}
		return v, nil
	}
	if strings.HasPrefix(s, "|") || strings.HasPrefix(s, ">") || strings.HasPrefix(s, "&") || strings.HasPrefix(s, "*") {
		return nil, fmt.Errorf("line %d: unsupported YAML feature %q (this subset has no block scalars or anchors)", line, s[:1])
	}
	return &refNode{kind: scalarNode, scalar: refUnquote(s), line: line}, nil
}

// refParseFlow parses one flow value ([...], {...}, or a scalar up to a
// flow delimiter) and returns the unconsumed remainder.
func refParseFlow(s string, line int) (*refNode, string, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "["):
		n := &refNode{kind: listNode, line: line}
		rest := strings.TrimSpace(s[1:])
		if strings.HasPrefix(rest, "]") {
			return n, rest[1:], nil
		}
		for {
			item, r, err := refParseFlow(rest, line)
			if err != nil {
				return nil, "", err
			}
			n.items = append(n.items, item)
			r = strings.TrimSpace(r)
			if strings.HasPrefix(r, ",") {
				rest = strings.TrimSpace(r[1:])
				continue
			}
			if strings.HasPrefix(r, "]") {
				return n, r[1:], nil
			}
			return nil, "", fmt.Errorf("line %d: unterminated flow list", line)
		}
	case strings.HasPrefix(s, "{"):
		n := &refNode{kind: mapNode, children: map[string]*refNode{}, line: line}
		rest := strings.TrimSpace(s[1:])
		if strings.HasPrefix(rest, "}") {
			return n, rest[1:], nil
		}
		for {
			colon := strings.Index(rest, ":")
			if colon < 0 {
				return nil, "", fmt.Errorf("line %d: flow map entry without ':'", line)
			}
			key := strings.TrimSpace(refUnquote(strings.TrimSpace(rest[:colon])))
			if key == "" {
				return nil, "", fmt.Errorf("line %d: empty flow map key", line)
			}
			if _, dup := n.children[key]; dup {
				return nil, "", fmt.Errorf("line %d: duplicate key %q", line, key)
			}
			val, r, err := refParseFlow(rest[colon+1:], line)
			if err != nil {
				return nil, "", err
			}
			n.keys = append(n.keys, key)
			n.children[key] = val
			r = strings.TrimSpace(r)
			if strings.HasPrefix(r, ",") {
				rest = strings.TrimSpace(r[1:])
				continue
			}
			if strings.HasPrefix(r, "}") {
				return n, r[1:], nil
			}
			return nil, "", fmt.Errorf("line %d: unterminated flow map", line)
		}
	default:
		// Scalar up to the next flow delimiter at depth 0.
		end := len(s)
		for i := 0; i < len(s); i++ {
			if s[i] == ',' || s[i] == ']' || s[i] == '}' {
				end = i
				break
			}
		}
		return &refNode{kind: scalarNode, scalar: refUnquote(strings.TrimSpace(s[:end])), line: line}, s[end:], nil
	}
}

func refUnquote(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}

// yamlSeeds are yaml_test.go's documents and error cases.
var yamlSeeds = func() []string {
	s := []string{blockMappingDoc, blockListDoc, flowValuesDoc, flowQuotesDoc, flowTrailingDoc}
	for _, c := range parseErrorCases {
		s = append(s, c.src)
	}
	return s
}()
