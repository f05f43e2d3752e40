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
//     capacity on the site → user → function tree
//     (fairshare.AllocateTree). A site's entitlement may exceed its
//     physical capacity — the excess is demand the federation owes it
//     somewhere else.
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
	Weight      float64 // site weight at the tree root (0 → 1)
	CapacityCPU int64   // the site's physical CPU capacity, millicores
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

// subtree builds one site's user → function subtree. desire maps the leaf
// desire per function; when nil the raw demands are used.
func subtree(s SiteDemand, id string, weight float64, desire map[string]int64) *fairshare.Node {
	site := &fairshare.Node{ID: id, Weight: weight}
	userNodes := make(map[string]*fairshare.Node)
	for _, fd := range s.Functions {
		user, uw := fd.User, fd.UserWeight
		if user == "" {
			user, uw = "::default", 1
		}
		if uw <= 0 {
			uw = 1
		}
		un := userNodes[user]
		if un == nil {
			un = &fairshare.Node{ID: id + "/user:" + user, Weight: uw}
			userNodes[user] = un
			site.Children = append(site.Children, un)
		}
		d := fd.DesiredCPU
		if desire != nil {
			d = desire[fd.Name]
		}
		un.Children = append(un.Children, &fairshare.Node{
			ID:      id + "/" + fd.Name,
			Weight:  fd.Weight,
			Desired: d,
		})
	}
	return site
}

func validate(sites []SiteDemand) error {
	if len(sites) == 0 {
		return fmt.Errorf("allocation: no sites")
	}
	seenSite := make(map[string]bool, len(sites))
	for _, s := range sites {
		if s.Site == "" {
			return fmt.Errorf("allocation: site with empty name")
		}
		if seenSite[s.Site] {
			return fmt.Errorf("allocation: duplicate site %q", s.Site)
		}
		seenSite[s.Site] = true
		if s.CapacityCPU < 0 {
			return fmt.Errorf("allocation: site %q has negative capacity %d", s.Site, s.CapacityCPU)
		}
		if s.Weight < 0 {
			return fmt.Errorf("allocation: site %q has negative weight %v", s.Site, s.Weight)
		}
		seenFn := make(map[string]bool, len(s.Functions))
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
			if fd.DesiredCPU < 0 {
				return fmt.Errorf("allocation: site %q function %q has negative desire %d", s.Site, fd.Name, fd.DesiredCPU)
			}
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
