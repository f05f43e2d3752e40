package allocation

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

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
// A flat federation *is* depth-1: the Allocator runs it as a single leaf
// group over every site, so an explicit Hierarchy of that shape gives the
// same grants.
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
	_, _, err := h.check()
	return err
}

// check validates h and returns its exact group and site counts.
func (h *Hierarchy) check() (groups, sites int, err error) {
	if h == nil || h.Root == nil {
		return 0, 0, fmt.Errorf("allocation: hierarchy has no root group")
	}
	ng, ns := h.Root.size()
	gs, ss := make(map[string]bool, ng), make(map[string]bool, ns)
	err = h.Root.validate(gs, ss)
	return len(gs), len(ss), err
}

// sizeWalkLimit bounds size's walk, so a Group graph with a cycle, which
// validate rejects as a duplicate ID, cannot stall it.
const sizeWalkLimit = 1 << 12

// size counts the groups at and below g and the sites they list, to size
// maps: exact for a valid tree of at most sizeWalkLimit groups, a lower
// bound otherwise.
func (g *Group) size() (groups, sites int) {
	stack := []*Group{g}
	for len(stack) > 0 && groups < sizeWalkLimit {
		g := stack[len(stack)-1]
		stack = append(stack[:len(stack)-1], g.Children...)
		groups++
		sites += len(g.Sites)
	}
	return groups, sites
}

func (g *Group) validate(groups, sites map[string]bool) error {
	if g.Weight < 0 {
		return fmt.Errorf("allocation: hierarchy group %q has negative weight %v", g.ID, g.Weight)
	}
	if !finite(g.Weight) {
		return fmt.Errorf("allocation: hierarchy group %q has non-finite weight %v", g.ID, g.Weight)
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
	if h == nil || h.Root == nil {
		return make(map[string]Level)
	}
	_, sites := h.Root.size()
	return h.levels(sites)
}

// levels is Levels for a non-empty h, with its map sized for sites.
func (h *Hierarchy) levels(sites int) map[string]Level {
	out := make(map[string]Level, sites)
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

// SetHierarchy switches the allocator between the flat federation (nil),
// one leaf group over every site in site order, and a region→metro→site
// capacity tree: pass 1 mounts the site stubs under the hierarchy's groups
// for its upper division, pass 3 water-fills displaced entitlement level
// by level (metro first, then outward), deserved quotas are cascaded down
// the tree, and — with reclaim enabled — a final pass preempts borrowed
// capacity at metro peers for functions starved of their deserved quota.
// The group vertices are built here, so h must not change until the next
// SetHierarchy call. It drops only the state indexed by site position:
// the next epoch therefore lays the sites out again, misses the
// steady-state fast path, checks the node IDs of the newly mounted tree
// and cascades deserved quotas. Per-site caches stay valid: the clamp and
// local allocation depend only on each site's own demand and want vector,
// and the entitlement on the site's subtree and its stub's grant, which a
// site re-divides for if the new tree moves it.
func (a *Allocator) SetHierarchy(h *Hierarchy, reclaim bool) error {
	groups, sites := 1, 0
	if h != nil {
		var err error
		if groups, sites, err = h.check(); err != nil {
			return err
		}
	}
	a.hier = h
	a.reclaim = reclaim && h != nil
	a.layout = false
	a.hierSites = nil
	if h != nil {
		a.hierSites = h.levels(sites)
	}
	a.buildGroups(h, groups)
	return nil
}

// hierGroup is one hierarchy group's vertex in the pass-1 tree and its
// member lists against the current site order (placeGroups).
type hierGroup struct {
	g        *Group // nil for the flat federation's one group
	node     *fairshare.Node
	children []*hierGroup // interior groups only
	leaf     bool         // a metro: lists sites, mounts its sites
	mount    []int        // leaf: present members' positions, in declaration order
	idxs     []int        // every member's position, ascending: the spread scope
}

// buildGroup builds g's vertex, node n, and everything below it, appending
// each group to a.groups after its children. Interior groups become
// internal nodes over their child groups' nodes, IDs prefixed "group:" so
// they can never collide with "site:..." subtree IDs; leaf groups mount
// their member sites' stubs each epoch (mountSites). The root group's node
// is the federation root itself, so a root that is a leaf group mounts the
// sites directly under it — exactly the flat tree, which is what makes
// depth-1 bit-identical.
func (a *Allocator) buildGroup(g *Group, n *fairshare.Node, s *groupSlabs) *hierGroup {
	hg := &s.groups[0]
	s.groups = s.groups[1:]
	*hg = hierGroup{g: g, node: n, leaf: len(g.Sites) > 0}
	k := len(g.Children)
	n.Children, s.ptrs = s.ptrs[:k:k], s.ptrs[k:]
	hg.children, s.kids = s.kids[:k:k], s.kids[k:]
	for i, c := range g.Children {
		l := len("group:") + len(c.ID)
		cn := &s.nodes[0]
		s.nodes = s.nodes[1:]
		*cn = fairshare.Node{ID: s.ids[:l], Weight: treeWeight(c.Weight)}
		s.ids = s.ids[l:]
		n.Children[i] = cn
		hg.children[i] = a.buildGroup(c, cn, s)
	}
	a.groups = append(a.groups, hg)
	return hg
}

// groupSlabs backs a hierarchy's vertices: buildGroup takes each group's
// vertex, child nodes, child lists and node IDs off the front of these.
type groupSlabs struct {
	groups []hierGroup
	nodes  []fairshare.Node  // every group's node but the root's
	ptrs   []*fairshare.Node // interior nodes' Children
	kids   []*hierGroup      // interior groups' children
	ids    string            // "group:"+ID of every non-root group, in preorder
}

// buildGroups builds the vertices of h's valid tree of n groups, its root's
// node being the federation root, from one slab of each kind. A nil h is
// the flat federation's one leaf group, with no Group.
func (a *Allocator) buildGroups(h *Hierarchy, n int) {
	a.groups = slices.Grow(a.groups[:0], n)
	if h == nil {
		a.groups = append(a.groups, &hierGroup{node: &a.root, leaf: true})
		return
	}
	root := h.Root
	var b strings.Builder
	b.Grow(root.idBytes())
	root.writeIDs(&b)
	a.buildGroup(root, &a.root, &groupSlabs{
		groups: make([]hierGroup, n),
		nodes:  make([]fairshare.Node, n-1),
		ptrs:   make([]*fairshare.Node, n-1),
		kids:   make([]*hierGroup, n-1),
		ids:    b.String(),
	})
}

// idBytes is the length of the node IDs writeIDs writes.
func (g *Group) idBytes() int {
	n := 0
	for _, c := range g.Children {
		n += len("group:") + len(c.ID) + c.idBytes()
	}
	return n
}

// writeIDs writes the node ID of every group below g, in preorder.
func (g *Group) writeIDs(b *strings.Builder) {
	for _, c := range g.Children {
		b.WriteString("group:")
		b.WriteString(c.ID)
		c.writeIDs(b)
	}
}

// placeGroups resolves every group's members against the epoch's site
// order: leaf groups' present members in declaration order (their mount
// order), and each group's member positions ascending (its spread scope).
// The flat federation's one group has every site, in site order; under a
// hierarchy, a site no group lists is an error.
func (a *Allocator) placeGroups(sites []SiteDemand) error {
	if a.hier == nil {
		g := a.groups[0]
		g.mount = slices.Grow(g.mount[:0], len(sites))
		for i := range sites {
			g.mount = append(g.mount, i)
		}
		g.idxs = g.mount
		return nil
	}
	clear(a.sitePos)
	for i := range sites {
		if _, ok := a.hierSites[sites[i].Site]; !ok {
			return fmt.Errorf("allocation: site %q not assigned to any hierarchy group", sites[i].Site)
		}
		a.sitePos[sites[i].Site] = i
	}
	for _, hg := range a.groups { // children before parents
		hg.mount = slices.Grow(hg.mount[:0], len(hg.g.Sites))
		for _, name := range hg.g.Sites {
			if i, ok := a.sitePos[name]; ok {
				hg.mount = append(hg.mount, i)
			}
		}
		n := len(hg.mount)
		for _, c := range hg.children {
			n += len(c.idxs)
		}
		hg.idxs = append(slices.Grow(hg.idxs[:0], n), hg.mount...)
		for _, c := range hg.children {
			hg.idxs = append(hg.idxs, c.idxs...)
		}
		slices.Sort(hg.idxs)
	}
	return nil
}

// indexStubs appends to upperSite, in preorder, the site position of each
// leaf of pass 1's upper division below g: a metro's mounted stubs in
// mount order, or -1 for a metro with no site present, which the division
// sees as a zero-desire leaf.
func (a *Allocator) indexStubs(g *hierGroup) {
	switch {
	case !g.leaf:
		for _, c := range g.children {
			a.indexStubs(c)
		}
	case len(g.mount) == 0:
		a.upperSite = append(a.upperSite, -1)
	default:
		a.upperSite = append(a.upperSite, g.mount...)
	}
}

// cascadeDeserved walks the group vertices, through the mounted site
// stubs into each site's subtree, assigning every node its deserved quota
// — ⌊ω/Σω_siblings · parent's deserved⌋ — and records the per-function
// result on each site's cache. Unlike the entitlement pass
// this ignores demand entirely: deserved is what a queue is owed
// unconditionally.
func (a *Allocator) cascadeDeserved(g *hierGroup, share int64) {
	n := g.node
	if n.Leaf() {
		return // a group with no site present: nothing below reads its quota
	}
	var w float64
	for _, c := range n.Children {
		w += c.Weight
	}
	for i, c := range n.Children {
		s := int64(float64(share) * c.Weight / w)
		if g.leaf {
			if sc := a.sc[g.mount[i]]; len(sc.deserved) > 0 {
				sc.tree.cascade(sc.tree.root, s, 0, sc.deserved)
			}
		} else {
			a.cascadeDeserved(g.children[i], s)
		}
	}
}

// reclaimVictim is one over-quota (site, function) holding that metro's
// borrowed capacity, snapshotted before any transfer.
type reclaimVictim struct {
	site     int    // position in the epoch's sites slice
	fn       int    // position in that site's Functions
	name     string // the function's name
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
//
// The snapshot is taken when the metro's first starved claim survives
// netting: no transfer has happened before it, so it is the snapshot taken
// before any, and a metro without such a claim never lists its victims.
func (a *Allocator) runReclaim() {
	for _, m := range a.groups {
		if !m.leaf || len(m.idxs) < 2 {
			continue // reclaim is cross-site; a one-site metro has no peers
		}
		snapped := false
		for _, i := range m.idxs {
			c := a.sc[i]
			for j, fd := range c.prev.Functions {
				// Never reclaim beyond actual demand.
				short := min(c.deserved[j], fd.DesiredCPU) - c.grants[j]
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
					pc := a.sc[p]
					pj := slices.Index(pc.fnIDs, c.fnIDs[j])
					if pj < 0 {
						continue
					}
					powed := min(pc.deserved[pj], pc.prev.Functions[pj].DesiredCPU)
					if extra := pc.grants[pj] - powed; extra > 0 {
						short -= extra
					}
				}
				if short <= 0 {
					continue
				}
				if !snapped {
					a.snapshotVictims(m)
					snapped = true
				}
				for k := range a.victims {
					v := &a.victims[k]
					if v.borrowed <= 0 || v.site == i {
						continue
					}
					if v.name == fd.Name {
						continue // moving a grant to itself is a no-op
					}
					vc := a.sc[v.site]
					tj := slices.Index(vc.fnIDs, c.fnIDs[j])
					if tj < 0 {
						continue // the peer cannot host the starved function
					}
					t := min(short, v.borrowed)
					vc.grants[v.fn] -= t
					vc.grants[tj] += t
					v.borrowed -= t
					short -= t
					a.res.Reclaims = append(a.res.Reclaims, Reclaim{
						Group:    m.g.ID,
						Site:     vc.prev.Site,
						HomeSite: c.prev.Site,
						From:     v.name,
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

// snapshotVictims lists metro m's over-quota (site, function) pairs in
// a.victims, in drain order.
func (a *Allocator) snapshotVictims(m *hierGroup) {
	a.snapshotted = append(a.snapshotted, m.g.ID)
	a.victims = a.victims[:0]
	for _, i := range m.idxs {
		c := a.sc[i]
		for j, fd := range c.prev.Functions {
			if b := c.grants[j] - c.deserved[j]; b > 0 {
				a.victims = append(a.victims, reclaimVictim{site: i, fn: j, name: fd.Name, borrowed: b})
			}
		}
	}
	// A total order: names are unique within a site.
	slices.SortFunc(a.victims, func(x, y reclaimVictim) int {
		if c := cmp.Compare(y.borrowed, x.borrowed); c != 0 {
			return c
		}
		if c := cmp.Compare(x.site, y.site); c != 0 {
			return c
		}
		return strings.Compare(x.name, y.name)
	})
}
