// Package fairshare implements LaSS's weighted fair-share allocation for
// overloaded edge clusters (paper §4.1) and the hierarchical scheduling
// tree the prototype adds for user/function weights (§5).
//
// Capacity is expressed in abstract integer units. The controller uses CPU
// millicores (1000 = 1 vCPU), because the paper's fair shares are CPU
// fractions of the cluster: a function's demand is its model-computed
// container count times its per-container CPU size, and its guaranteed
// share is ω_i/Σω_j of the cluster's total CPU (Eq 7). Working in integer
// units keeps the floor operations of Eqs 7-8 exact.
//
// A tree is checked and divided in two steps, in the caller's Scratch:
// ValidateTree rejects structural errors, duplicate node IDs included, and
// DivideTreeInto divides a tree that passed, returning the grants by leaf
// position. A caller that divides trees of an unchanged shape every epoch
// validates only when the shape changes, and may divide any subtree on its
// own. The package keeps no state, so a cold caller is measured cold.
package fairshare

import (
	"fmt"
	"math"
)

// Demand is one function's (or one subtree's) desired capacity for the next
// epoch together with its fair-share weight.
type Demand struct {
	ID      string
	Weight  float64
	Desired int64 // capacity units wanted (c_new_i × container size)
}

// Allocation is the outcome of the fair-share adjustment for one demand.
type Allocation struct {
	ID         string
	Weight     float64
	Desired    int64
	Guaranteed int64 // c_guar: ⌊ω_i/Σω · C⌋ (Eq 7)
	Adjusted   int64 // c_adj: what the function actually receives
	Overloaded bool  // desired exceeded the guaranteed share during overload
}

// validate checks demands for structural errors. seen, when non-nil, also
// rejects duplicate IDs; the tree division passes nil because node IDs
// are ValidateTree's to check.
func validate(demands []Demand, capacity int64, seen map[string]bool) error {
	if capacity < 0 {
		return fmt.Errorf("fairshare: negative capacity %d", capacity)
	}
	for _, d := range demands {
		if d.Weight <= 0 {
			return fmt.Errorf("fairshare: demand %q has non-positive weight %v", d.ID, d.Weight)
		}
		if math.IsNaN(d.Weight) || math.IsInf(d.Weight, 0) {
			return fmt.Errorf("fairshare: demand %q has non-finite weight %v", d.ID, d.Weight)
		}
		if d.Desired < 0 {
			return fmt.Errorf("fairshare: demand %q has negative desired capacity %d", d.ID, d.Desired)
		}
		if seen == nil {
			continue
		}
		if seen[d.ID] {
			return fmt.Errorf("fairshare: duplicate demand id %q", d.ID)
		}
		seen[d.ID] = true
	}
	return nil
}

func totalWeight(demands []Demand) float64 {
	var w float64
	for _, d := range demands {
		w += d.Weight
	}
	return w
}

// Adjust implements the paper's fair-share adjustment algorithm (§4.1)
// verbatim:
//
//   - If Σ desired ≤ C there is no overload: every function receives its
//     model-computed desire.
//   - Otherwise, "well behaved" functions (desired ≤ guaranteed) receive
//     their desire, and the remaining capacity Ĉ = C − Σ_wellbehaved desired
//     is divided among the overloaded functions in proportion to weight
//     (Eq 8: c_adj_i = ⌊ω_i/Σ_m ω_m · Ĉ⌋).
//
// The guarantees proved in the paper's Lemmas hold: when all functions are
// overloaded each receives exactly its guaranteed share (Lemma 1), and an
// overloaded function never receives less than its guaranteed share
// (Lemma 2). Results are returned in the input order.
func Adjust(demands []Demand, capacity int64) ([]Allocation, error) {
	if err := validate(demands, capacity, make(map[string]bool, len(demands))); err != nil {
		return nil, err
	}
	out := make([]Allocation, len(demands))
	adjust(demands, capacity, out)
	return out, nil
}

// adjust is Adjust's arithmetic over validated demands, written into out
// (len(demands) long).
func adjust(demands []Demand, capacity int64, out []Allocation) {
	w := totalWeight(demands)
	var sumDesired int64
	for i, d := range demands {
		out[i] = Allocation{
			ID:         d.ID,
			Weight:     d.Weight,
			Desired:    d.Desired,
			Guaranteed: int64(math.Floor(d.Weight / w * float64(capacity))),
		}
		sumDesired += d.Desired
	}
	if sumDesired <= capacity {
		// No resource pressure: model-driven allocation stands (§3.3).
		for i := range out {
			out[i].Adjusted = out[i].Desired
		}
		return
	}
	// Overload: well-behaved functions keep their desire.
	remaining := capacity
	var overWeight float64
	for i := range out {
		if out[i].Desired <= out[i].Guaranteed {
			out[i].Adjusted = out[i].Desired
			remaining -= out[i].Desired
		} else {
			out[i].Overloaded = true
			overWeight += out[i].Weight
		}
	}
	for i := range out {
		if out[i].Overloaded {
			out[i].Adjusted = int64(math.Floor(out[i].Weight / overWeight * float64(remaining)))
		}
	}
}

// AdjustCapped refines Adjust with a water-filling pass: Eq 8 can hand an
// overloaded function more capacity than its model-computed desire when
// well-behaved functions freed a large remainder, which wastes capacity the
// reclamation policies then cannot use. AdjustCapped caps every allocation
// at its desire and redistributes the surplus among still-unsatisfied
// overloaded functions by weight, repeating until a fixpoint. All Lemma
// guarantees continue to hold (allocations only move toward desires and
// never drop below the Eq 8 value, which is ≥ the guaranteed share).
func AdjustCapped(demands []Demand, capacity int64) ([]Allocation, error) {
	out, err := Adjust(demands, capacity)
	if err != nil {
		return nil, err
	}
	waterFill(out, make([]int, 0, len(out)))
	return out, nil
}

// waterFill is AdjustCapped's refinement of an Adjust result, in place.
// unsat is scratch for the still-unsatisfied indices; it is returned so
// callers can reuse its backing array.
func waterFill(out []Allocation, unsat []int) []int {
	for {
		// Collect surplus from overloaded functions allocated beyond desire.
		var surplus int64
		unsat = unsat[:0]
		var unsatWeight float64
		for i := range out {
			if !out[i].Overloaded {
				continue
			}
			if out[i].Adjusted > out[i].Desired {
				surplus += out[i].Adjusted - out[i].Desired
				out[i].Adjusted = out[i].Desired
			} else if out[i].Adjusted < out[i].Desired {
				unsat = append(unsat, i)
				unsatWeight += out[i].Weight
			}
		}
		if surplus == 0 || len(unsat) == 0 {
			return unsat
		}
		distributed := int64(0)
		for _, i := range unsat {
			grant := int64(math.Floor(out[i].Weight / unsatWeight * float64(surplus)))
			out[i].Adjusted += grant
			distributed += grant
		}
		if distributed == 0 {
			return unsat // floors consumed everything; accept fragmentation
		}
	}
}

// Node is one vertex of the hierarchical scheduling tree (§5): the paper's
// prototype uses two levels (user namespace → function) but notes the model
// extends to arbitrary depth, which this implementation supports.
type Node struct {
	ID       string
	Weight   float64
	Desired  int64   // leaf demand; ignored for internal nodes
	Children []*Node // nil/empty for leaves
}

// Leaf reports whether the node has no children.
func (n *Node) Leaf() bool { return len(n.Children) == 0 }

// Scratch is the working memory of ValidateTree and DivideTreeInto; its
// zero value is ready to use. It belongs to one caller, which may check and
// divide any number of trees in it in turn: nothing a call reads survives
// from an earlier one. It sizes itself from its first tree's node count and
// grows only for a larger tree, so a warm call allocates nothing beyond
// out's own growth.
//
//   - seen marks the IDs of the tree being validated with this call's gen,
//     so the set is never cleared between calls.
//   - size and total hold each node's subtree node count and total leaf
//     desire, by preorder position.
//   - slack records that the measured tree has no non-root node of weight
//     0 and no subtree total that overflowed: every input check the
//     division would repeat passes on it once the root's total fits the
//     capacity.
//   - dem and alloc are stacks of per-node segments: an internal node's
//     children's demands and allocations sit at [base, base+len(children))
//     while its subtrees are divided above them. A tree of n nodes never
//     needs more than n slots.
//   - unsat is waterFill's scratch.
type Scratch struct {
	seen  map[string]uint32
	gen   uint32
	size  []int
	total []int64
	slack bool
	dem   []Demand
	alloc []Allocation
	unsat []int
}

// ValidateTree checks the whole tree for structural errors: duplicate node
// IDs (internal or leaf, across any branches), negative or non-finite
// weights, and negative leaf desires at any depth. The first error in
// preorder is returned.
//
// Node IDs are the only property DivideTreeInto does not check again, and
// they change only with the tree's shape: a caller that divides the same
// tree every epoch — the federation's allocator — validates it once per
// structural change and divides it, or any of its subtrees, without
// hashing every ID again.
func (s *Scratch) ValidateTree(root *Node) error {
	if root == nil {
		return fmt.Errorf("fairshare: nil tree")
	}
	return s.measure(root, true)
}

// DivideTreeInto divides capacity over a tree (or a subtree of one) that
// ValidateTree accepted since its shape last changed: at each internal
// node the children are one flat fair-share problem whose demands are
// their subtrees' total desires, and each child's adjusted capacity is
// divided recursively. capped selects AdjustCapped (true) or the
// paper-faithful Adjust (false) at every level. The grants come back by
// position: the i-th value is the grant of the tree's i-th leaf in
// preorder (children in slice order), so a single-leaf root yields one
// value. The values are written over out's
// backing array, grown if it is too short, and the result is returned;
// steady-state callers pass the previous result back in and allocate
// nothing.
//
// Every check ValidateTree makes except ID uniqueness is repeated before
// any capacity is divided, and each sibling group is validated again as it
// is divided. On error out itself is returned: untouched when the first
// check fails, possibly partly overwritten when a sibling group does (a
// zero-weight child). Node IDs are never read: a tree with duplicate IDs
// is divided as if they were distinct.
//
// A tree under no pressure returns before any sibling group is divided:
// when the root's total desire fits the capacity, no node below the root
// has weight 0 and no subtree total overflows, every leaf gets its
// desire. That is exactly what the full division gives, because Adjust
// hands every child its subtree's total at every level when the group's
// desires fit, and waterFill changes nothing then. Any tree the full
// division would reject takes the full division, so its error is the
// same.
func (s *Scratch) DivideTreeInto(root *Node, capacity int64, capped bool, out []int64) ([]int64, error) {
	if root == nil {
		return out, fmt.Errorf("fairshare: nil tree")
	}
	if err := s.measure(root, false); err != nil {
		return out, err
	}
	if s.slack && s.total[0] <= capacity {
		// No level can bind: Adjust hands every child its subtree's total
		// when the sibling group's desires fit, capped or not, so every
		// leaf receives its desire. The leaves are the size-1 positions.
		out = emptied(out, len(s.size))
		for p, n := range s.size {
			if n == 1 {
				out = append(out, s.total[p])
			}
		}
		return out, nil
	}
	if n := len(s.size); len(s.dem) < n {
		s.dem = make([]Demand, n)
		s.alloc = make([]Allocation, n)
	}
	// A tree has fewer leaves than nodes: one growth at most.
	grants, err := s.divide(root, 0, capacity, capped, emptied(out, len(s.size)), 0)
	if err != nil {
		return out, err
	}
	return grants, nil
}

// emptied returns out with length 0 and room for n values, reallocated
// only when it has less.
func emptied(out []int64, n int) []int64 {
	if cap(out) < n {
		return make([]int64, 0, n)
	}
	return out[:0]
}

// seenCap bounds the scratch's duplicate-ID set: past it, the IDs of trees
// validated earlier are dropped wholesale.
const seenCap = 1 << 16

// countNodes is the number of nodes in the tree rooted at n.
func countNodes(n *Node) int {
	c := 1
	for _, ch := range n.Children {
		c += countNodes(ch)
	}
	return c
}

// measure rejects structural errors anywhere in the tree — duplicate IDs
// too when ids is set — and records each node's subtree size and total
// desire. Weight 0 is allowed here — roots conventionally carry no weight
// — and zero-weight children are still rejected by validate when their
// sibling group is divided, so only strictly negative (and non-finite)
// weights fail at this layer.
func (s *Scratch) measure(root *Node, ids bool) error {
	if s.size == nil {
		// First use: room for this tree. Later calls never count again.
		n := countNodes(root)
		s.size, s.total = make([]int, 0, n), make([]int64, 0, n)
	}
	if ids {
		if s.seen == nil || len(s.seen) > seenCap {
			s.seen = make(map[string]uint32, cap(s.size))
		}
		s.gen++
		if s.gen == 0 {
			clear(s.seen)
			s.gen = 1
		}
	}
	s.size, s.total = s.size[:0], s.total[:0]
	s.slack = true
	return s.walk(root, ids)
}

func (s *Scratch) walk(n *Node, ids bool) error {
	if n.Weight < 0 {
		return fmt.Errorf("fairshare: node %q has negative weight %v", n.ID, n.Weight)
	}
	if math.IsNaN(n.Weight) || math.IsInf(n.Weight, 0) {
		return fmt.Errorf("fairshare: node %q has non-finite weight %v", n.ID, n.Weight)
	}
	if ids {
		if s.seen[n.ID] == s.gen {
			return fmt.Errorf("fairshare: duplicate node id %q", n.ID)
		}
		s.seen[n.ID] = s.gen
	}
	pre := len(s.size)
	if n.Weight == 0 && pre > 0 {
		s.slack = false // validate rejects it when its sibling group is divided
	}
	s.size = append(s.size, 1)
	s.total = append(s.total, n.Desired)
	if n.Leaf() {
		if n.Desired < 0 {
			return fmt.Errorf("fairshare: leaf %q has negative desired capacity %d", n.ID, n.Desired)
		}
		return nil
	}
	s.total[pre] = 0
	for _, c := range n.Children {
		at := len(s.size)
		if err := s.walk(c, ids); err != nil {
			return err
		}
		s.size[pre] += s.size[at]
		s.total[pre] += s.total[at]
		if s.total[pre] < 0 {
			s.slack = false // overflowed: a negative demand to validate
		}
	}
	return nil
}

// divide splits capacity over the subtree rooted at n, whose preorder
// position is pre: n's children are one flat fair-share problem whose
// demands are their subtrees' total desires, and each child's adjusted
// capacity is divided recursively. n's segment of dem and alloc starts at
// base. Each leaf's grant is appended to out, which is returned.
func (s *Scratch) divide(n *Node, pre int, capacity int64, capped bool, out []int64, base int) ([]int64, error) {
	if n.Leaf() {
		return append(out, min(capacity, n.Desired)), nil
	}
	k := len(n.Children)
	dem, alloc := s.dem[base:base+k], s.alloc[base:base+k]
	at := pre + 1
	for i, c := range n.Children {
		dem[i] = Demand{ID: c.ID, Weight: c.Weight, Desired: s.total[at]}
		at += s.size[at]
	}
	if err := validate(dem, capacity, nil); err != nil {
		return out, fmt.Errorf("fairshare: at node %q: %w", n.ID, err)
	}
	adjust(dem, capacity, alloc)
	if capped {
		s.unsat = waterFill(alloc, s.unsat)
	}
	at = pre + 1
	for i, c := range n.Children {
		var err error
		if out, err = s.divide(c, at, alloc[i].Adjusted, capped, out, base+k); err != nil {
			return out, err
		}
		at += s.size[at]
	}
	return out, nil
}
