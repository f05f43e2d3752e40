// yaml.go is a deliberately small YAML-subset parser — the module is
// stdlib-only, so scenario files cannot pull in a YAML dependency. The
// subset covers what declarative scenarios need and nothing else:
//
//   - block mappings (`key: value` / `key:` + indented block)
//   - block lists (`- item`, including `- key: value` starting a map)
//   - flow lists `[a, b]` and flow maps `{k: v}`, nesting allowed, one
//     trailing comma allowed
//   - `#` comments, blank lines, single- or double-quoted scalars
//
// Indentation is spaces only (a tab is an error), anchors/aliases,
// multi-line block scalars, and multi-document streams are rejected by
// construction. Every node carries its source line for loader errors. A
// quote opens a run that ends at the same quote character; inside it,
// `#`, `:`, `,` and brackets are text.
//
// The tree is built in one pass, reading one line ahead; one scan of a
// line finds its indent, comment and `key:` colon. Nodes (80 bytes), child
// pointers (8) and mapping keys (16) are carved from slabs sized from the
// line count, so none of them is an allocation of its own.
package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unicode"
)

type nodeKind int

const (
	scalarNode nodeKind = iota
	mapNode
	listNode
)

func (k nodeKind) String() string { return [...]string{"scalar", "mapping", "list"}[k] }

// node is one parsed YAML value. A mapping keeps its keys in file order
// and their values in items, index for index, so decoding and error
// reporting are deterministic.
type node struct {
	kind   nodeKind
	line   int
	scalar string
	keys   []string
	items  []*node
}

// child returns the value under key, or nil. No mapping in the DSL has
// more than a couple of dozen keys, so a scan beats a hashed map.
func (n *node) child(key string) *node {
	if i := slices.Index(n.keys, key); i >= 0 {
		return n.items[i]
	}
	return nil
}

// srcLine is one non-blank input line, cut at its comment.
type srcLine struct {
	indent int
	text   string // after the indent, without trailing spaces
	colon  int    // index in text of the `key: value` separator, or -1
	num    int
}

type parser struct {
	src   string
	off   int     // start of the next unscanned line; past len(src) at the end
	lines int     // the document's line count
	num   int     // number of the last scanned line
	cur   srcLine // the lookahead while ok, else the last non-blank line
	ok    bool
	err   error // a tab in indentation, which outranks every other error

	nodes slab[node]
	ptrs  slab[*node]
	strs  slab[string]
	stack []*node  // children of the collections being built
	keys  []string // keys of the mappings being built
}

// parse parses one YAML-subset document into its root node.
func parse(data []byte) (*node, error) {
	src := string(data)
	p := &parser{src: src, lines: strings.Count(src, "\n") + 1}
	if p.next(); !p.ok {
		return nil, cmp.Or(p.err, fmt.Errorf("empty document"))
	}
	root, err := p.parseBlock(p.cur.indent)
	if err == nil && p.ok {
		err = fmt.Errorf("line %d: unexpected indentation", p.cur.num)
	}
	for p.ok {
		p.next() // a tab on a later line is reported first
	}
	if err = cmp.Or(p.err, err); err != nil {
		return nil, err
	}
	return root, nil
}

// marks are the bytes the line and flow scans stop at.
var marks = [256]bool{'\'': true, '"': true, '#': true, '[': true, ']': true, '{': true, '}': true, ':': true, ',': true}

// next scans the following non-blank line into cur, or clears ok at the
// end of the document or at a tab in indentation (setting err).
func (p *parser) next() {
	for p.ok = false; p.err == nil && p.off <= len(p.src); {
		raw := p.src[p.off:]
		if i := strings.IndexByte(raw, '\n'); i >= 0 {
			raw = raw[:i]
		}
		p.off, p.num = p.off+len(raw)+1, p.num+1
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		// The `key:` separator is the first unquoted colon outside brackets
		// that a space follows, else such a colon ending the line.
		depth, end, colon, lastColon := 0, len(raw), -1, -1
	scan:
		for i := indent; i < len(raw); i++ {
			switch c := raw[i]; {
			case !marks[c]:
			case c == '\'' || c == '"':
				j := strings.IndexByte(raw[i+1:], c)
				if j < 0 {
					break scan // an open quote runs to the end of the line
				}
				i += j + 1
			case c == '#':
				if i == 0 || raw[i-1] == ' ' || raw[i-1] == '\t' {
					end = i
					break scan
				}
			case c == '[' || c == '{':
				depth++
			case c == ']' || c == '}':
				depth--
			case c == ':' && depth == 0:
				lastColon = i
				if colon < 0 && i+1 < len(raw) && raw[i+1] == ' ' {
					colon = i
				}
			}
		}
		for end > indent && (raw[end-1] == ' ' || raw[end-1] == '\r') {
			end--
		}
		if end == indent {
			continue
		}
		if raw[indent] == '\t' {
			p.err = fmt.Errorf("line %d: tab in indentation (use spaces)", p.num)
			return
		}
		if colon < 0 && lastColon == end-1 {
			colon = lastColon
		}
		p.cur, p.ok = srcLine{indent: indent, text: raw[indent:end], colon: max(colon-indent, -1), num: p.num}, true
		return
	}
}

// slab hands out runs of zeroed elements from shared chunks. The first
// chunk holds one element per line of the document; a later one holds
// what the lines read so far took, extrapolated over the lines to come.
type slab[T any] struct {
	free []T // the current chunk's unused tail
	used int
}

func (s *slab[T]) take(p *parser, n int) []T {
	if len(s.free) < n {
		size := p.lines
		if s.used > 0 {
			size = s.used*(p.lines-p.num)/p.num + 64
		}
		s.free = make([]T, max(size, n))
	}
	run := s.free[:n:n]
	s.free, s.used = s.free[n:], s.used+n
	return run
}

// node returns a fresh node.
func (p *parser) node(kind nodeKind, line int, scalar string) *node {
	n := &p.nodes.take(p, 1)[0]
	n.kind, n.line, n.scalar = kind, line, scalar
	return n
}

// carve moves (*stack)[mark:] into a run from s and returns the run.
func carve[T any](p *parser, s *slab[T], stack *[]T, mark int) []T {
	run := s.take(p, len(*stack)-mark)
	for i := range run { // runs are short: a loop beats a bulk copy
		run[i] = (*stack)[mark+i]
	}
	*stack = (*stack)[:mark]
	return run
}

// close gives n the children (and keys) pushed since the marks.
func (p *parser) close(n *node, mark, kmark int) *node {
	n.keys, n.items = carve(p, &p.strs, &p.keys, kmark), carve(p, &p.ptrs, &p.stack, mark)
	return n
}

// parseBlock parses the run of lines at exactly the given indent as one
// value: a list if they start with "-", a mapping if they look like
// "key:", a bare scalar otherwise.
func (p *parser) parseBlock(indent int) (*node, error) {
	l := p.cur
	switch {
	case !p.ok || l.indent < indent:
		return nil, fmt.Errorf("line %d: expected a value", l.num)
	case l.indent > indent:
		return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
	case isListItem(l.text):
		return p.parseList(indent)
	case keyOf(l) != "":
		return p.parseMap(indent)
	}
	// Inline value on its own line: a flow list/map or a bare scalar.
	p.next()
	return p.parseValue(l.text, l.num)
}

func isListItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// keyOf returns the mapping key a line introduces, or "" when the line
// is not a `key:` form.
func keyOf(l srcLine) string {
	if l.colon < 0 {
		return ""
	}
	return strings.TrimSpace(unquote(strings.TrimSpace(l.text[:l.colon])))
}

func (p *parser) parseList(indent int) (*node, error) {
	n, mark := p.node(listNode, p.cur.num, ""), len(p.stack)
	for p.ok && p.cur.indent == indent && isListItem(p.cur.text) {
		l := p.cur
		if l.text == "-" {
			// `-` alone: the item is the following deeper block.
			if p.next(); !p.ok || p.cur.indent <= indent {
				return nil, fmt.Errorf("line %d: empty list item", l.num)
			}
		} else {
			// `- content`: content behaves as if it started a block at the
			// column it appears in — splice it back as the lookahead.
			p.cur = srcLine{indent: indent + 2, text: l.text[2:], colon: max(l.colon-2, -1), num: l.num}
		}
		item, err := p.parseBlock(p.cur.indent)
		if err != nil {
			return nil, err
		}
		p.stack = append(p.stack, item)
	}
	return p.close(n, mark, len(p.keys)), nil
}

func (p *parser) parseMap(indent int) (*node, error) {
	n, mark, kmark := p.node(mapNode, p.cur.num, ""), len(p.stack), len(p.keys)
	for p.ok && p.cur.indent == indent && !isListItem(p.cur.text) {
		l := p.cur
		key := keyOf(l)
		if key == "" {
			return nil, fmt.Errorf("line %d: expected 'key: value', got %q", l.num, l.text)
		}
		if slices.Contains(p.keys[kmark:], key) {
			return nil, fmt.Errorf("line %d: duplicate key %q", l.num, key)
		}
		rest := strings.TrimSpace(l.text[l.colon+1:])
		p.next()
		var child *node
		var err error
		switch {
		case rest != "":
			child, err = p.parseValue(rest, l.num)
		case p.ok && (p.cur.indent > indent || (p.cur.indent == indent && isListItem(p.cur.text))):
			child, err = p.parseBlock(p.cur.indent)
		default: // bare `key:` with nothing under it: empty scalar
			child = p.node(scalarNode, l.num, "")
		}
		if err != nil {
			return nil, err
		}
		p.keys, p.stack = append(p.keys, key), append(p.stack, child)
	}
	return p.close(n, mark, kmark), nil
}

// parseValue parses an inline value: flow list, flow map, or scalar.
func (p *parser) parseValue(s string, line int) (*node, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") || strings.HasPrefix(s, "{") {
		v, i, err := p.parseFlow(s, 0, line)
		if err == nil && strings.TrimSpace(s[i:]) != "" {
			return nil, fmt.Errorf("line %d: trailing content %q after flow value", line, s[i:])
		}
		return v, err
	}
	if s != "" && strings.IndexByte("|>&*", s[0]) >= 0 {
		return nil, fmt.Errorf("line %d: unsupported YAML feature %q (this subset has no block scalars or anchors)", line, s[:1])
	}
	return p.node(scalarNode, line, unquote(s)), nil
}

// parseFlow parses the flow value at s[i:] ([...], {...}, or a scalar up
// to a flow delimiter) and returns the index just past it. s has no
// trailing white space.
func (p *parser) parseFlow(s string, i, line int) (*node, int, error) {
	if i = skipSpace(s, i); i == len(s) || (s[i] != '[' && s[i] != '{') {
		end := i + flowEnd(s[i:], false)
		return p.node(scalarNode, line, unquote(strings.TrimSpace(s[i:end]))), end, nil
	}
	n, closer, what := p.node(listNode, line, ""), byte(']'), "list"
	if s[i] == '{' {
		n.kind, closer, what = mapNode, '}', "map"
	}
	mark, kmark := len(p.stack), len(p.keys)
	// Entries end at a comma or the closer; a comma before the closer ends
	// the collection like no comma at all.
	for i = skipSpace(s, i+1); i == len(s) || s[i] != closer; {
		if i < len(s) && s[i] == ',' {
			return nil, 0, fmt.Errorf("line %d: empty flow %s entry", line, what)
		}
		if n.kind == mapNode {
			colon := i + flowEnd(s[i:], true)
			if colon == len(s) {
				return nil, 0, fmt.Errorf("line %d: flow map entry without ':'", line)
			}
			key := strings.TrimSpace(unquote(strings.TrimSpace(s[i:colon])))
			if key == "" {
				return nil, 0, fmt.Errorf("line %d: empty flow map key", line)
			}
			if slices.Contains(p.keys[kmark:], key) {
				return nil, 0, fmt.Errorf("line %d: duplicate key %q", line, key)
			}
			p.keys, i = append(p.keys, key), colon+1
		}
		item, j, err := p.parseFlow(s, i, line)
		if err != nil {
			return nil, 0, err
		}
		p.stack = append(p.stack, item)
		if i = skipSpace(s, j); i < len(s) && s[i] == ',' {
			i = skipSpace(s, i+1)
		} else if i == len(s) || s[i] != closer {
			return nil, 0, fmt.Errorf("line %d: unterminated flow %s", line, what)
		}
	}
	return p.close(n, mark, kmark), i + 1, nil
}

// skipSpace returns the index of the first byte of s at or after i that
// is not white space as strings.TrimSpace counts it.
func skipSpace(s string, i int) int {
	for i < len(s) && s[i] == ' ' {
		i++
	}
	return len(s) - len(strings.TrimLeftFunc(s[i:], unicode.IsSpace))
}

// flowEnd returns the index in s of the first unquoted flow delimiter —
// the key's ':' when key is set, else ',', ']' or '}' — or len(s).
func flowEnd(s string, key bool) int {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case !marks[c]:
		case c == '\'' || c == '"':
			j := strings.IndexByte(s[i+1:], c)
			if j < 0 {
				return len(s)
			}
			i += j + 1
		case key && c == ':', !key && (c == ',' || c == ']' || c == '}'):
			return i
		}
	}
	return len(s)
}

func unquote(s string) string {
	if len(s) >= 2 && (s[0] == '"' || s[0] == '\'') && s[len(s)-1] == s[0] {
		return s[1 : len(s)-1]
	}
	return s
}
