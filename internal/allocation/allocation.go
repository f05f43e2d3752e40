// Package allocation lifts LaSS's §4.1 weighted fair-share allocator from
// a single edge cluster to the whole federation. Each epoch a coordinator
// gathers per-function demand and weight from every site's controller and
// divides the federation's *total* edge capacity — rather than each site
// dividing its own — so a function's weight governs its aggregate share of
// edge capacity, the ROADMAP's "cross-site fair share".
//
// The allocator runs three passes:
//
//  1. Entitlement: capped water-filling over the federation's total edge
//     capacity on the site → user → function tree (Scratch.ValidateTree,
//     then Scratch.DivideTreeInto). A site's entitlement may exceed its
//     physical capacity — the excess is demand the federation owes it
//     somewhere else. The Allocator divides this tree in two levels: once
//     over the sites as stubs carrying their total desire, then each
//     site's own subtree against its stub's grant — only for sites whose
//     demand or grant changed since the previous epoch. The leaves come
//     out bit for bit as in the one-level division.
//  2. Feasibility: each site's enforceable grants are clamped to its
//     physical capacity by re-running the site's subtree against that
//     capacity, fair-sharing any shortfall with the same weights.
//  3. Spreading: entitlement displaced by the physical clamp is offered to
//     other sites that serve the same function and still have idle
//     capacity. Functions competing for the same spread pool are
//     arbitrated by a second weight-proportional water-filling (not name
//     order), and each function's share lands on its candidate hosts in
//     proportion to their spare. Those grants let peer sites pre-provision
//     containers for offloaded work before it arrives — capacity that
//     per-site-local allocation leaves stranded under skewed load (cf.
//     Das et al., dynamic edge–cloud task placement).
//
// The result also quantifies what global allocation bought: StrandedCPU is
// capacity still idle while demand elsewhere stays unmet (zero when the
// spread pass could move everything), and DriftCPU is the L1 distance
// between the global grants and the allocations each site would have
// computed on its own — the cross-site allocation drift reported by the
// federation-fairshare sweep.
package allocation

import (
	"fmt"
	"math"
	"strings"

	"lass/internal/fairshare"
)

// FunctionDemand is one function's demand at one site: the §4.1 inputs
// (desire and weights) the site's controller estimated for the next epoch.
type FunctionDemand struct {
	Name       string
	User       string  // namespace for hierarchical shares ("" = flat)
	Weight     float64 // function fair-share weight ω_i
	UserWeight float64 // weight of the User namespace (ignored when flat)
	DesiredCPU int64   // model-computed desire in CPU millicores
}

// SiteDemand is one edge site's demand report for a global epoch.
type SiteDemand struct {
	Site        string
	CapacityCPU int64 // the site's physical CPU capacity, millicores
	Functions   []FunctionDemand
}

// Grant is the allocator's decision for one function at one site.
type Grant struct {
	Site     string
	Function string
	// DesiredCPU is the site's own model-computed desire.
	DesiredCPU int64
	// EntitledCPU is the function-at-site's fair share of the federation's
	// total edge capacity (pass 1); it may exceed the site's capacity.
	EntitledCPU int64
	// GrantedCPU is the enforceable grant pushed down to the site's
	// controller: per site these sum to at most the site's capacity. It
	// exceeds DesiredCPU when the spread pass pre-provisions this site for
	// another site's displaced demand.
	GrantedCPU int64
	// DeservedCPU is the function-at-site's demand-independent quota under
	// a hierarchical federation: its weight share of the site's share of
	// the metro's share (and so on up the tree) of total edge capacity.
	// Zero for flat federations.
	DeservedCPU int64
	// BorrowedCPU is max(0, GrantedCPU − DeservedCPU) under a hierarchical
	// federation — the revocable over-quota portion cross-site reclaim may
	// preempt. Zero for flat federations.
	BorrowedCPU int64
}

// Result is one global allocation epoch's outcome.
type Result struct {
	// Grants has one row per function per site, grouped by site in the
	// order the sites were passed to Allocate; each site's rows follow its
	// SiteDemand.Functions order. A caller may therefore take a site's
	// grants as the next len(Functions) rows.
	Grants []Grant
	// TotalCapacityCPU and TotalDesiredCPU summarize the epoch's inputs.
	TotalCapacityCPU int64
	TotalDesiredCPU  int64
	// StrandedCPU is capacity left idle across the federation while
	// demand elsewhere remains unmet even after the spread pass — the
	// waste global allocation could not recover (typically because the
	// demanding function is not deployed at the idle sites).
	StrandedCPU int64
	// DriftCPU is the L1 distance between the global grants and the
	// allocations each site would have computed locally from the same
	// demands — how much capacity the global allocator actually moved.
	DriftCPU int64
	// ReclaimedCPU totals the capacity moved by cross-site reclaim this
	// epoch; Reclaims lists the individual transfers in the deterministic
	// order they were applied. Both are empty for flat federations and for
	// hierarchies with reclaim disabled.
	ReclaimedCPU int64
	Reclaims     []Reclaim
}

// ShareTree is one site's §5 user → function share tree: a node per user
// namespace, in order of first appearance — functions without one share
// the weight-1 "::default" — over a leaf per function. It divides by
// position: desires go in, and grants come out, indexed like the
// []FunctionDemand it was built from. Both the site controller's local
// fair share and the Allocator's per-site divisions run on it, so the
// allocation a site would compute locally is one division, not two.
type ShareTree struct {
	root   *fairshare.Node
	leaves []*fairshare.Node // by function position
	order  []int             // function position of each leaf, in preorder
	pre    []int64           // a division's grants, in leaf preorder
}

// NewShareTree builds fns' tree under a weight-1 root node with the given
// ID. Its other node IDs are id+"/user:"+user and id+"/"+name, so the
// trees of a whole federation can be checked for duplicates at once. A
// user weight that is not positive counts as 1.
//
// A tree takes a handful of allocations whatever its size: its nodes sit
// in one slab, their child lists and the leaves in one pointer slab, and
// every ID below the root is a substring of one string. Each child list is
// capped at its own length, so appending to one cannot overwrite another.
// Users are found by a linear scan, not a map: a site has few users.
func NewShareTree(id string, fns []FunctionDemand) *ShareTree {
	n := len(fns)
	// userOf[j] is function j's user index; first[u] is the position of
	// user u's first function, which fixes its name and weight. size is
	// the total length of the IDs below the root.
	ints := make([]int, 3*n)
	userOf, order, first := ints[:n:n], ints[n:n:2*n], ints[2*n:2*n]
	size := 0
	for j := range fns {
		user := userName(&fns[j])
		u := 0
		for u < len(first) && userName(&fns[first[u]]) != user {
			u++
		}
		if u == len(first) {
			first = append(first, j)
			size += len(id) + len("/user:") + len(user)
		}
		userOf[j] = u
		size += len(id) + len("/") + len(fns[j].Name)
	}
	users := len(first)

	var b strings.Builder
	b.Grow(size)
	for _, f := range first {
		b.WriteString(id)
		b.WriteString("/user:")
		b.WriteString(userName(&fns[f]))
	}
	for j := range fns {
		b.WriteString(id)
		b.WriteString("/")
		b.WriteString(fns[j].Name)
	}
	ids := b.String()
	cut := func(l int) string {
		s := ids[:l]
		ids = ids[l:]
		return s
	}

	// Slabs: the root, the users in order of appearance, then the leaves
	// in preorder; the root's children, the users' children (leaf
	// preorder), then the leaves by function position.
	nodes := make([]fairshare.Node, 1+users+n)
	ptrs := make([]*fairshare.Node, users+2*n)
	t := &ShareTree{root: &nodes[0], leaves: ptrs[users+n:]}
	t.root.ID, t.root.Weight = id, 1
	t.root.Children = ptrs[:users:users]
	leafNodes, kids := nodes[1+users:], ptrs[users:users+n]
	for u, f := range first {
		un := &nodes[1+u]
		un.ID = cut(len(id) + len("/user:") + len(userName(&fns[f])))
		un.Weight = fns[f].UserWeight
		if fns[f].User == "" || un.Weight <= 0 {
			un.Weight = 1
		}
		t.root.Children[u] = un
		from := len(order)
		for j := f; j < n; j++ { // preorder: users in turn, functions in position order
			if userOf[j] == u {
				order = append(order, j)
			}
		}
		for k := from; k < len(order); k++ {
			kids[k] = &leafNodes[k]
			t.leaves[order[k]] = &leafNodes[k]
		}
		un.Children = kids[from:len(order):len(order)]
	}
	for j := range fns {
		l := t.leaves[j]
		l.ID = cut(len(id) + len("/") + len(fns[j].Name))
		l.Weight = fns[j].Weight
	}
	t.order = order
	return t
}

// userName is the user node fd falls under: its User, or "::default".
func userName(fd *FunctionDemand) string {
	if fd.User == "" {
		return "::default"
	}
	return fd.User
}

// Divide divides capacity over the tree, in the caller's scratch s, with
// desire[j] at function j's leaf and writes function j's grant to out[j];
// both have one entry per function, and they may be the same slice.
// capped selects AdjustCapped (true) or the paper-faithful Adjust at every
// level. Node IDs are not checked (Scratch.ValidateTree does that); every
// other input check of Scratch.DivideTreeInto is.
func (t *ShareTree) Divide(s *fairshare.Scratch, desire []int64, capacity int64, capped bool, out []int64) error {
	for j, l := range t.leaves {
		l.Desired = desire[j]
	}
	var err error
	if t.pre, err = s.DivideTreeInto(t.root, capacity, capped, t.pre); err != nil {
		return err
	}
	for k, j := range t.order {
		out[j] = t.pre[k]
	}
	return nil
}

// cascade writes to out, by function position, the deserved quota of each
// leaf below n, whose first leaf is the k-th in preorder: share split by
// weight alone, ⌊ω/Σω_siblings · parent⌋ at every level. It returns the
// next leaf's preorder index.
func (t *ShareTree) cascade(n *fairshare.Node, share int64, k int, out []int64) int {
	if n.Leaf() {
		out[t.order[k]] = share
		return k + 1
	}
	var w float64
	for _, c := range n.Children {
		w += c.Weight
	}
	for _, c := range n.Children {
		k = t.cascade(c, int64(float64(share)*c.Weight/w), k, out)
	}
	return k
}

// finite reports whether w is neither NaN nor infinite.
func finite(w float64) bool { return !math.IsNaN(w) && !math.IsInf(w, 0) }

// treeWeight is a hierarchy group's weight in the fair-share tree: 0 means
// the default 1, the weight every site has.
func treeWeight(w float64) float64 {
	if w == 0 {
		return 1
	}
	return w
}

// validate checks the epoch's demand reports. seenSite and seenFn are
// caller-owned scratch sets, cleared here; on success seenSite holds every
// site name.
func validate(sites []SiteDemand, seenSite, seenFn map[string]bool) error {
	if len(sites) == 0 {
		return fmt.Errorf("allocation: no sites")
	}
	clear(seenSite)
	for i := range sites {
		s := &sites[i]
		if s.Site == "" {
			return fmt.Errorf("allocation: site with empty name")
		}
		if seenSite[s.Site] {
			return fmt.Errorf("allocation: duplicate site %q", s.Site)
		}
		seenSite[s.Site] = true
		if err := validateSite(s, seenFn); err != nil {
			return err
		}
	}
	return nil
}

// validateSite checks one report's capacity and functions —
// everything validate checks apart from the site names, which only the
// whole list can. seenFn is caller-owned scratch, cleared here.
func validateSite(s *SiteDemand, seenFn map[string]bool) error {
	if s.CapacityCPU < 0 {
		return fmt.Errorf("allocation: site %q has negative capacity %d", s.Site, s.CapacityCPU)
	}
	clear(seenFn)
	for _, fd := range s.Functions {
		if fd.Name == "" {
			return fmt.Errorf("allocation: site %q has a function with empty name", s.Site)
		}
		if seenFn[fd.Name] {
			return fmt.Errorf("allocation: site %q has duplicate function %q", s.Site, fd.Name)
		}
		seenFn[fd.Name] = true
		if fd.Weight <= 0 {
			return fmt.Errorf("allocation: site %q function %q has non-positive weight %v", s.Site, fd.Name, fd.Weight)
		}
		if !finite(fd.Weight) {
			return fmt.Errorf("allocation: site %q function %q has non-finite weight %v", s.Site, fd.Name, fd.Weight)
		}
		if !finite(fd.UserWeight) {
			return fmt.Errorf("allocation: site %q function %q has non-finite user weight %v", s.Site, fd.Name, fd.UserWeight)
		}
		if fd.DesiredCPU < 0 {
			return fmt.Errorf("allocation: site %q function %q has negative desire %d", s.Site, fd.Name, fd.DesiredCPU)
		}
	}
	return nil
}

// Allocate runs one global allocation epoch over the sites' demand
// reports. capped selects the water-filling AdjustCapped refinement (true,
// the controller default) or the paper-faithful Adjust at every tree
// level.
//
// Allocate is the one-shot form: it runs a fresh Allocator and drops it, so
// the caller owns the returned Result. Epoch loops should hold a single
// Allocator instead and let unchanged sites reuse their previous work.
func Allocate(sites []SiteDemand, capped bool) (*Result, error) {
	return NewAllocator().Allocate(sites, capped)
}
