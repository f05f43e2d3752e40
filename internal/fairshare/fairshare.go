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

// validate checks demands for structural errors.
func validate(demands []Demand, capacity int64) error {
	if capacity < 0 {
		return fmt.Errorf("fairshare: negative capacity %d", capacity)
	}
	seen := make(map[string]bool, len(demands))
	for _, d := range demands {
		if d.Weight <= 0 {
			return fmt.Errorf("fairshare: demand %q has non-positive weight %v", d.ID, d.Weight)
		}
		if d.Desired < 0 {
			return fmt.Errorf("fairshare: demand %q has negative desired capacity %d", d.ID, d.Desired)
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
	if err := validate(demands, capacity); err != nil {
		return nil, err
	}
	w := totalWeight(demands)
	out := make([]Allocation, len(demands))
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
		return out, nil
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
	return out, nil
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
	for {
		// Collect surplus from overloaded functions allocated beyond desire.
		var surplus int64
		unsat := make([]int, 0, len(out))
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
			return out, nil
		}
		distributed := int64(0)
		for _, i := range unsat {
			grant := int64(math.Floor(out[i].Weight / unsatWeight * float64(surplus)))
			out[i].Adjusted += grant
			distributed += grant
		}
		if distributed == 0 {
			return out, nil // floors consumed everything; accept fragmentation
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

// TotalDesired returns the sum of leaf desires under n.
func (n *Node) TotalDesired() int64 {
	if n.Leaf() {
		return n.Desired
	}
	var sum int64
	for _, c := range n.Children {
		sum += c.TotalDesired()
	}
	return sum
}

// AllocateTree divides capacity over the tree: at each internal node the
// children are treated as a flat fair-share problem (their demands are
// their subtrees' total desires) and each child's adjusted capacity is
// recursively subdivided. The returned map contains one entry per leaf.
// capped selects AdjustCapped (true) or the paper-faithful Adjust (false)
// at every level.
func AllocateTree(root *Node, capacity int64, capped bool) (map[string]int64, error) {
	out := make(map[string]int64)
	if err := AllocateTreeInto(root, capacity, capped, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AllocateTreeInto is AllocateTree with a caller-owned result map: out is
// cleared and refilled with one entry per leaf. Steady-state callers — the
// federation's incremental allocator re-clamps site subtrees every epoch —
// reuse one map instead of allocating a fresh one per call. The division
// itself is identical to AllocateTree's; neither variant mutates the tree.
//
// The whole tree is validated up front: duplicate node IDs (internal or
// leaf, across any branches), negative weights, and negative leaf desires
// at any depth fail before any capacity is divided, leaving out untouched.
func AllocateTreeInto(root *Node, capacity int64, capped bool, out map[string]int64) error {
	if root == nil {
		return fmt.Errorf("fairshare: nil tree")
	}
	if err := validateTree(root, make(map[string]bool)); err != nil {
		return err
	}
	clear(out)
	return allocateNode(root, capacity, capped, out)
}

// validateTree rejects structural errors anywhere in the tree. Weight 0 is
// allowed here — roots conventionally carry no weight — and zero-weight
// children are still rejected by Adjust's validate when their sibling
// group is divided, so only strictly negative weights fail at this layer.
func validateTree(n *Node, seen map[string]bool) error {
	if n.Weight < 0 {
		return fmt.Errorf("fairshare: node %q has negative weight %v", n.ID, n.Weight)
	}
	if seen[n.ID] {
		return fmt.Errorf("fairshare: duplicate node id %q", n.ID)
	}
	seen[n.ID] = true
	if n.Leaf() {
		if n.Desired < 0 {
			return fmt.Errorf("fairshare: leaf %q has negative desired capacity %d", n.ID, n.Desired)
		}
		return nil
	}
	for _, c := range n.Children {
		if err := validateTree(c, seen); err != nil {
			return err
		}
	}
	return nil
}

func allocateNode(n *Node, capacity int64, capped bool, out map[string]int64) error {
	if n.Leaf() {
		grant := capacity
		if n.Desired < grant {
			grant = n.Desired
		}
		out[n.ID] = grant
		return nil
	}
	demands := make([]Demand, len(n.Children))
	for i, c := range n.Children {
		demands[i] = Demand{ID: c.ID, Weight: c.Weight, Desired: c.TotalDesired()}
	}
	var allocs []Allocation
	var err error
	if capped {
		allocs, err = AdjustCapped(demands, capacity)
	} else {
		allocs, err = Adjust(demands, capacity)
	}
	if err != nil {
		return fmt.Errorf("fairshare: at node %q: %w", n.ID, err)
	}
	for i, c := range n.Children {
		if err := allocateNode(c, allocs[i].Adjusted, capped, out); err != nil {
			return err
		}
	}
	return nil
}
