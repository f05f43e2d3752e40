package allocation

import (
	"fmt"
	"sort"

	"lass/internal/fairshare"
)

// Hierarchy arranges a federation's sites into an explicit capacity tree —
// region → metro → site in the common case, arbitrary depth in general.
// Interior Groups split their parent's capacity by weight exactly like
// sites do today; leaf Groups ("metros") list the member sites by name.
//
// Two quota semantics fall out of the tree (KAI-Scheduler's queue model):
//
//   - Deserved: every node's unconditional share of its parent's deserved
//     capacity, ⌊ω/Σω_siblings · parent⌋ cascaded from the federation's
//     total edge capacity down to each function leaf. A function is owed
//     its deserved quota regardless of what siblings demand.
//   - Borrowed: anything granted above deserved. Idle capacity below one
//     branch is borrowable by over-quota cousins, water-filled level by
//     level — first inside the metro, then the region, then globally.
//     Borrowed grants are revocable: cross-site reclaim (Allocator with
//     reclaim enabled) preempts them at a peer when a function's deserved
//     share is starved at its home site.
//
// A Hierarchy whose root is a single leaf Group over every site is
// depth-1 and reproduces the flat federation allocator bit for bit.
type Hierarchy struct {
	Root *Group
}

// Group is one vertex of the hierarchy: either an interior node
// (Children) or a leaf metro (Sites). Exactly one of the two must be
// non-empty. Weight 0 means the default weight 1, matching the site
// convention; negative weights are rejected.
type Group struct {
	ID       string
	Weight   float64
	Children []*Group
	Sites    []string
}

// Validate checks the tree's structure: a non-nil root, every group
// either interior or leaf (never both, never neither), unique group IDs,
// unique site assignment, and no negative weights — at any depth.
func (h *Hierarchy) Validate() error {
	if h == nil || h.Root == nil {
		return fmt.Errorf("allocation: hierarchy has no root group")
	}
	groups := make(map[string]bool)
	sites := make(map[string]bool)
	return h.Root.validate(groups, sites)
}

func (g *Group) validate(groups, sites map[string]bool) error {
	if g.Weight < 0 {
		return fmt.Errorf("allocation: hierarchy group %q has negative weight %v", g.ID, g.Weight)
	}
	if groups[g.ID] {
		return fmt.Errorf("allocation: duplicate hierarchy group id %q", g.ID)
	}
	groups[g.ID] = true
	if len(g.Children) > 0 && len(g.Sites) > 0 {
		return fmt.Errorf("allocation: hierarchy group %q has both children and sites", g.ID)
	}
	if len(g.Children) == 0 && len(g.Sites) == 0 {
		return fmt.Errorf("allocation: hierarchy group %q is empty", g.ID)
	}
	for _, s := range g.Sites {
		if sites[s] {
			return fmt.Errorf("allocation: site %q assigned to more than one hierarchy group", s)
		}
		sites[s] = true
	}
	for _, c := range g.Children {
		if err := c.validate(groups, sites); err != nil {
			return err
		}
	}
	return nil
}

// Levels reports, for each assigned site, its metro index (leaf groups in
// depth-first declaration order) and region index (the root's immediate
// branch the site falls under; 0 everywhere when the root is itself a
// leaf). Topology generators key RTT classes on these.
func (h *Hierarchy) Levels() map[string]Level {
	out := make(map[string]Level)
	if h == nil || h.Root == nil {
		return out
	}
	metro := 0
	if len(h.Root.Sites) > 0 {
		h.Root.levels(0, &metro, out)
		return out
	}
	for region, c := range h.Root.Children {
		c.levels(region, &metro, out)
	}
	return out
}

// Level locates one site in the hierarchy: which leaf group (metro) holds
// it and which top-level branch (region) that group sits under.
type Level struct {
	Metro  int
	Region int
}

func (g *Group) levels(region int, metro *int, out map[string]Level) {
	if len(g.Sites) > 0 {
		for _, s := range g.Sites {
			out[s] = Level{Metro: *metro, Region: region}
		}
		*metro++
		return
	}
	for _, c := range g.Children {
		c.levels(region, metro, out)
	}
}

// Covers verifies every named site is assigned to some leaf group — the
// per-epoch precondition for hierarchical allocation. Hierarchy entries
// naming sites absent from the list are permitted (and contribute
// nothing), so one hierarchy can describe a superset fleet.
func (h *Hierarchy) Covers(siteNames []string) error {
	assigned := h.Levels()
	for _, name := range siteNames {
		if _, ok := assigned[name]; !ok {
			return fmt.Errorf("allocation: site %q not assigned to any hierarchy group", name)
		}
	}
	return nil
}

// Reclaim records one cross-site reclamation inside a metro: borrowed
// (over-quota) capacity preempted from function From at peer Site and
// re-granted there to function To, whose deserved share was starved at
// HomeSite. The federation charges these transfers a reclaim latency on
// top of the grant round trip.
type Reclaim struct {
	Group    string // leaf group (metro) the transfer stayed inside
	Site     string // peer site where the borrowed capacity was preempted
	HomeSite string // starved function's home site
	From     string // preempted over-quota function at Site
	To       string // starved function granted the capacity at Site
	CPU      int64  // millicores moved
}

// mountHier builds the pass-1 fair-share tree for the hierarchy: group
// vertices become internal nodes (IDs prefixed "group:" so they can never
// collide with "site:..." subtree IDs) and each leaf group's member sites
// mount their cached subtrees as children. A root that is itself a leaf
// group mounts the site trees directly under the federation root —
// exactly the flat tree, which is what makes depth-1 bit-identical.
// Nodes are rebuilt per epoch; steady-state epochs never reach pass 1.
func (a *Allocator) mountHier(g *Group) *fairshare.Node {
	w := g.Weight
	if w == 0 {
		w = 1
	}
	n := &fairshare.Node{ID: "group:" + g.ID, Weight: w}
	a.mountHierChildren(g, n)
	return n
}

func (a *Allocator) mountHierChildren(g *Group, n *fairshare.Node) {
	for _, name := range g.Sites {
		if c, ok := a.caches[name]; ok {
			n.Children = append(n.Children, c.tree)
		}
	}
	for _, c := range g.Children {
		n.Children = append(n.Children, a.mountHier(c))
	}
}

// cascadeDeserved walks the mounted tree assigning every node its
// deserved quota — ⌊ω/Σω_siblings · parent's deserved⌋ — and records the
// per-leaf result. Unlike the entitlement pass this ignores demand
// entirely: deserved is what a queue is owed unconditionally.
func (a *Allocator) cascadeDeserved(n *fairshare.Node, share int64) {
	if n.Leaf() {
		a.deserved[n.ID] = share
		return
	}
	var w float64
	for _, c := range n.Children {
		w += c.Weight
	}
	for _, c := range n.Children {
		a.cascadeDeserved(c, int64(float64(share)*c.Weight/w))
	}
}

// metroScope is one leaf group resolved against this epoch's site list.
type metroScope struct {
	g    *Group
	idxs []int // member positions in the epoch's sites slice, ascending
}

// spreadHier runs the pass-3 overflow spread level by level, bottom-up:
// each leaf group spreads its members' displaced entitlement inside the
// metro first, parents re-spread whatever is still missing across the
// wider scope, and the root scope (every site) finishes globally. Misses
// are recomputed from want−grants at each scope, so capacity satisfied
// deeper down never escalates. Returns the subtree's member indices.
func (a *Allocator) spreadHier(sites []SiteDemand, g *Group, capped bool) ([]int, error) {
	var idxs []int
	if len(g.Sites) > 0 {
		for _, name := range g.Sites {
			if i, ok := a.sitePos[name]; ok {
				idxs = append(idxs, i)
			}
		}
		sort.Ints(idxs)
		a.metros = append(a.metros, metroScope{g: g, idxs: idxs})
	} else {
		for _, c := range g.Children {
			ci, err := a.spreadHier(sites, c, capped)
			if err != nil {
				return nil, err
			}
			idxs = append(idxs, ci...)
		}
		sort.Ints(idxs)
	}
	if err := a.spread(sites, idxs, capped); err != nil {
		return nil, err
	}
	return idxs, nil
}

// reclaimVictim is one over-quota (site, function) holding that metro's
// borrowed capacity, snapshotted before any transfer.
type reclaimVictim struct {
	site     int // position in the epoch's sites slice
	fn       int // position in that site's Functions
	borrowed int64
}

// runReclaim preempts borrowed capacity inside each metro for functions
// whose deserved share is starved at their home site. Victims are
// snapshotted per metro and drained largest-borrowed first (ties: site
// order, then function name); starved claims proceed in site order then
// function order, each taking min(shortfall, borrowed) from peers that
// also serve the starved function. The transfer re-grants the capacity to
// the starved function at the victim's site — the container runs there
// and the placer offloads the home site's traffic to it.
func (a *Allocator) runReclaim(sites []SiteDemand) {
	for _, m := range a.metros {
		if len(m.idxs) < 2 {
			continue // reclaim is cross-site; a one-site metro has no peers
		}
		a.victims = a.victims[:0]
		for _, i := range m.idxs {
			c := a.caches[sites[i].Site]
			for j := range c.prev.Functions {
				if b := c.grants[j] - a.deserved[c.leafIDs[j]]; b > 0 {
					a.victims = append(a.victims, reclaimVictim{site: i, fn: j, borrowed: b})
				}
			}
		}
		if len(a.victims) == 0 {
			continue
		}
		sort.Slice(a.victims, func(x, y int) bool {
			vx, vy := &a.victims[x], &a.victims[y]
			if vx.borrowed != vy.borrowed {
				return vx.borrowed > vy.borrowed
			}
			if vx.site != vy.site {
				return vx.site < vy.site
			}
			nx := a.caches[sites[vx.site].Site].prev.Functions[vx.fn].Name
			ny := a.caches[sites[vy.site].Site].prev.Functions[vy.fn].Name
			return nx < ny
		})
		for _, i := range m.idxs {
			c := a.caches[sites[i].Site]
			for j, fd := range c.prev.Functions {
				owed := a.deserved[c.leafIDs[j]]
				if fd.DesiredCPU < owed {
					owed = fd.DesiredCPU // never reclaim beyond actual demand
				}
				short := owed - c.grants[j]
				if short <= 0 {
					continue
				}
				// Net out compensation the function already holds at metro
				// peers beyond their own deserved-capped desire — the spread
				// pass (or an earlier reclaim) may have re-granted this
				// site's displaced share there already; claiming it again
				// would over-grant the function past its desire.
				for _, p := range m.idxs {
					if p == i {
						continue
					}
					pc := a.caches[sites[p].Site]
					pj, ok := pc.fnIndex[fd.Name]
					if !ok {
						continue
					}
					powed := a.deserved[pc.leafIDs[pj]]
					if d := pc.prev.Functions[pj].DesiredCPU; d < powed {
						powed = d
					}
					if extra := pc.grants[pj] - powed; extra > 0 {
						short -= extra
					}
				}
				if short <= 0 {
					continue
				}
				for k := range a.victims {
					v := &a.victims[k]
					if v.borrowed <= 0 || v.site == i {
						continue
					}
					vc := a.caches[sites[v.site].Site]
					if vc.prev.Functions[v.fn].Name == fd.Name {
						continue // moving a grant to itself is a no-op
					}
					tj, serves := vc.fnIndex[fd.Name]
					if !serves {
						continue // the peer cannot host the starved function
					}
					t := short
					if v.borrowed < t {
						t = v.borrowed
					}
					vc.grants[v.fn] -= t
					vc.grants[tj] += t
					v.borrowed -= t
					short -= t
					a.res.Reclaims = append(a.res.Reclaims, Reclaim{
						Group:    m.g.ID,
						Site:     sites[v.site].Site,
						HomeSite: sites[i].Site,
						From:     vc.prev.Functions[v.fn].Name,
						To:       fd.Name,
						CPU:      t,
					})
					a.res.ReclaimedCPU += t
					if short == 0 {
						break
					}
				}
			}
		}
	}
}
