package allocation

import (
	"fmt"
	"sort"

	"lass/internal/fairshare"
)

// Allocator runs global allocation epochs incrementally. It produces results
// bit-identical to the one-shot Allocate — the differential fuzz in
// allocator_test.go replays randomized epoch sequences against a frozen copy
// of the original implementation — while reusing everything an epoch shares
// with the previous one:
//
//   - Sites whose SiteDemand is unchanged keep their cached pass-1 subtree,
//     their drift-pass local allocation, and — when their pass-2 clamp input
//     (the per-function min(entitlement, desire) vector) is also unchanged —
//     their pass-2 feasibility clamp.
//   - Scratch buffers (result slice, entitlement map, spare/overflow/host
//     scratch) persist across epochs, so an epoch whose inputs are entirely
//     unchanged — the steady state between demand shifts — performs zero
//     heap allocations and returns the previous result.
//
// An Allocator is not safe for concurrent use. The returned Result is owned
// by the Allocator and valid until the next Allocate call.
type Allocator struct {
	havePrev bool
	capped   bool
	order    []*siteCache // last epoch's caches in site order, for the fast path

	caches map[string]*siteCache
	res    Result

	root     *fairshare.Node
	entitled map[string]int64
	spare    map[string]int64

	dirty []bool

	overflow   []spreadDemand
	overflowOf map[string]int
	hosts      []host
	demands    []fairshare.Demand
	inPool     map[string]bool

	perFnDesired map[string]int64
	perFnGranted map[string]int64
	nameSet      map[string]bool

	// Hierarchical mode (SetHierarchy): the capacity tree, the per-leaf
	// deserved quotas cascaded from it, and the reclaim scratch. All nil /
	// unused for flat federations, whose code path is unchanged.
	hier      *Hierarchy
	reclaim   bool
	deserved  map[string]int64
	sitePos   map[string]int
	allIdx    []int
	metros    []metroScope
	victims   []reclaimVictim
	hierSites map[string]Level
}

// siteCache holds everything one site's epoch work that can survive to the
// next epoch, keyed by site name so sites may reorder without invalidation.
type siteCache struct {
	// prev is a deep copy of the site's last demand report (the Functions
	// backing array is owned by the cache), compared against the incoming
	// report to decide dirtiness.
	prev SiteDemand

	// tree is the site's scheduling subtree with raw desires at the leaves.
	// Pass 1 mounts it under the federation root (its weight is the site
	// weight) and the drift pass re-divides it against the site's own
	// capacity — AllocateTree never reads the root node's weight, so one
	// tree serves both, exactly as two separately built subtrees would.
	tree     *fairshare.Node
	wantTree *fairshare.Node   // same shape; leaves carry the clamp input
	leaves   []*fairshare.Node // wantTree leaves, in Functions order
	leafIDs  []string          // "site:<name>/<fn>", in Functions order
	fnIndex  map[string]int    // function name → Functions index

	want     []int64 // last clamp input: min(entitled, desired) per function
	wantNext []int64 // this epoch's clamp input, swapped into want
	haveWant bool

	clamp    []int64 // pass-2 clamp result per function — the reusable value
	sum      int64   // Σ clamp
	grants   []int64 // working grants this epoch: clamp plus pass-3 spread
	clampMap map[string]int64

	localMap  map[string]int64 // drift pass: the site's own local allocation
	haveLocal bool
}

type spreadDemand struct {
	fn     string
	need   int64
	weight float64
}

type host struct {
	site  string
	spare int64
	order int
}

// NewAllocator returns an empty Allocator; the first Allocate call behaves
// exactly like the one-shot Allocate and primes the caches.
func NewAllocator() *Allocator {
	return &Allocator{
		caches:       make(map[string]*siteCache),
		entitled:     make(map[string]int64),
		spare:        make(map[string]int64),
		overflowOf:   make(map[string]int),
		inPool:       make(map[string]bool),
		perFnDesired: make(map[string]int64),
		perFnGranted: make(map[string]int64),
		nameSet:      make(map[string]bool),
		root:         &fairshare.Node{ID: "::federation"},
	}
}

// SetHierarchy switches the allocator between the flat federation (nil)
// and a region→metro→site capacity tree: pass 1 mounts site subtrees
// under the hierarchy's groups, pass 3 water-fills displaced entitlement
// level by level (metro first, then outward), and — with reclaim enabled —
// a final pass preempts borrowed capacity at metro peers for functions
// starved of their deserved quota. The previous result is invalidated so
// the steady-state fast path can never serve an answer computed under a
// different tree; per-site clamp and local-allocation caches stay valid
// (they depend only on each site's own demand and want vector).
func (a *Allocator) SetHierarchy(h *Hierarchy, reclaim bool) error {
	if h != nil {
		if err := h.Validate(); err != nil {
			return err
		}
	}
	a.hier = h
	a.reclaim = reclaim && h != nil
	a.havePrev = false
	if h != nil {
		a.hierSites = h.Levels()
		if a.deserved == nil {
			a.deserved = make(map[string]int64)
		}
		if a.sitePos == nil {
			a.sitePos = make(map[string]int)
		}
	} else {
		a.hierSites = nil
	}
	return nil
}

func siteEqual(a *SiteDemand, b *SiteDemand) bool {
	if a.Site != b.Site || a.Weight != b.Weight ||
		a.CapacityCPU != b.CapacityCPU || len(a.Functions) != len(b.Functions) {
		return false
	}
	for i := range a.Functions {
		if a.Functions[i] != b.Functions[i] {
			return false
		}
	}
	return true
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fail invalidates every cached intermediate before surfacing err: an epoch
// abandoned partway may have swapped want vectors or rebuilt trees without
// committing matching grants, so nothing may be reused afterwards.
func (a *Allocator) fail(err error) (*Result, error) {
	a.havePrev = false
	for _, c := range a.caches {
		c.haveWant = false
		c.haveLocal = false
	}
	return nil, err
}

// rebuild refreshes c from s: deep-copies the demand report and rebuilds the
// subtrees, leaf index, and per-function scratch. Called only for new or
// dirty sites — clean sites reuse everything.
func (c *siteCache) rebuild(s *SiteDemand) {
	c.prev.Site = s.Site
	c.prev.Weight = s.Weight
	c.prev.CapacityCPU = s.CapacityCPU
	c.prev.Functions = append(c.prev.Functions[:0], s.Functions...)

	id := "site:" + s.Site
	w := s.Weight
	if w == 0 {
		w = 1
	}
	c.tree = subtree(c.prev, id, w, nil)
	c.wantTree = subtree(c.prev, id, 1, nil)

	c.leafIDs = c.leafIDs[:0]
	for _, fd := range c.prev.Functions {
		c.leafIDs = append(c.leafIDs, id+"/"+fd.Name)
	}
	c.leaves = c.leaves[:0]
	if c.fnIndex == nil {
		c.fnIndex = make(map[string]int, len(c.prev.Functions))
	}
	clear(c.fnIndex)
	byID := make(map[string]*fairshare.Node, len(c.prev.Functions))
	collectLeaves(c.wantTree, byID)
	for j, fd := range c.prev.Functions {
		c.leaves = append(c.leaves, byID[c.leafIDs[j]])
		c.fnIndex[fd.Name] = j
	}
	if c.clampMap == nil {
		c.clampMap = make(map[string]int64, len(c.prev.Functions))
	}
	if c.localMap == nil {
		c.localMap = make(map[string]int64, len(c.prev.Functions))
	}
	c.haveWant = false
	c.haveLocal = false
}

func collectLeaves(n *fairshare.Node, byID map[string]*fairshare.Node) {
	if n.Leaf() {
		byID[n.ID] = n
		return
	}
	for _, child := range n.Children {
		collectLeaves(child, byID)
	}
}

// clampSite runs one site's pass-2 feasibility clamp: the site subtree with
// desires capped at the entitlement, divided over the site's physical
// capacity. Sites are independent subproblems: it writes only its own
// site's cache.
//
//lass:bitexact
func (c *siteCache) clampSite(capped bool) error {
	for j := range c.leaves {
		c.leaves[j].Desired = c.want[j]
	}
	if err := fairshare.AllocateTreeInto(c.wantTree, c.prev.CapacityCPU, capped, c.clampMap); err != nil {
		return err
	}
	c.clamp = c.clamp[:0]
	c.sum = 0
	for j := range c.leafIDs {
		g := c.clampMap[c.leafIDs[j]]
		c.clamp = append(c.clamp, g)
		c.sum += g
	}
	return nil
}

// Allocate runs one global allocation epoch, reusing whatever the previous
// epoch already established. The semantics — and the bits of the result —
// are exactly Allocate's; see the package comment for the three passes.
func (a *Allocator) Allocate(sites []SiteDemand, capped bool) (*Result, error) {
	// Fast path: inputs identical to the previous successful epoch — the
	// steady state between demand shifts. The cached result is that epoch's
	// answer, which is the answer for these inputs too; nothing allocates.
	if a.havePrev && capped == a.capped && len(sites) == len(a.order) {
		same := true
		for i := range sites {
			if !siteEqual(&a.order[i].prev, &sites[i]) {
				same = false
				break
			}
		}
		if same {
			return &a.res, nil
		}
	}

	if err := validate(sites); err != nil {
		return a.fail(err)
	}
	if a.hier != nil {
		for i := range sites {
			if _, ok := a.hierSites[sites[i].Site]; !ok {
				return a.fail(fmt.Errorf("allocation: site %q not assigned to any hierarchy group", sites[i].Site))
			}
		}
	}
	if capped != a.capped {
		// The water-filling refinement changes every division; nothing
		// cached under the other flag may be reused.
		for _, c := range a.caches {
			c.haveWant = false
			c.haveLocal = false
		}
		a.capped = capped
	}

	// Refresh per-site caches and mark dirty sites.
	a.dirty = a.dirty[:0]
	for i := range sites {
		s := &sites[i]
		c := a.caches[s.Site]
		d := false
		if c == nil {
			c = &siteCache{}
			a.caches[s.Site] = c
			c.rebuild(s)
			d = true
		} else if !siteEqual(&c.prev, s) {
			c.rebuild(s)
			d = true
		}
		a.dirty = append(a.dirty, d)
	}
	if len(a.caches) > len(sites) {
		clear(a.nameSet)
		for i := range sites {
			a.nameSet[sites[i].Site] = true
		}
		for name := range a.caches {
			if !a.nameSet[name] {
				delete(a.caches, name)
			}
		}
	}

	a.res.Grants = a.res.Grants[:0]
	a.res.TotalCapacityCPU = 0
	a.res.TotalDesiredCPU = 0
	a.res.StrandedCPU = 0
	a.res.DriftCPU = 0
	a.res.ReclaimedCPU = 0
	a.res.Reclaims = a.res.Reclaims[:0]
	for i := range sites {
		a.res.TotalCapacityCPU += sites[i].CapacityCPU
		for _, fd := range sites[i].Functions {
			a.res.TotalDesiredCPU += fd.DesiredCPU
		}
	}

	// Pass 1 — entitlement: capped water-filling over the federation's
	// total edge capacity, site → user → function. Clean sites mount their
	// cached subtree unchanged; only the root's child list is rebuilt (the
	// site order may have changed even when no site's content did). In
	// hierarchical mode the site trees mount under their group vertices
	// instead — a depth-1 hierarchy (one leaf group over every site)
	// collapses to the identical flat tree, which is what keeps it
	// bit-for-bit with the flat allocator.
	a.root.Children = a.root.Children[:0]
	if a.hier == nil {
		for i := range sites {
			a.root.Children = append(a.root.Children, a.caches[sites[i].Site].tree)
		}
	} else {
		a.mountHierChildren(a.hier.Root, a.root)
	}
	if err := fairshare.AllocateTreeInto(a.root, a.res.TotalCapacityCPU, capped, a.entitled); err != nil {
		return a.fail(err)
	}
	if a.hier != nil {
		// Deserved quotas: demand-independent guaranteed shares cascaded
		// down the same tree the entitlement pass just divided.
		clear(a.deserved)
		a.cascadeDeserved(a.root, a.res.TotalCapacityCPU)
	}

	// Pass 2 — feasibility: clamp each site's enforceable grants to its
	// physical capacity. The clamp input is the per-function
	// min(entitlement, desire) vector; a clean site whose vector is
	// unchanged — entitlements depend on every site, so dirtiness elsewhere
	// can shift it — reuses last epoch's clamp verbatim.
	for i := range sites {
		c := a.caches[sites[i].Site]
		c.wantNext = c.wantNext[:0]
		for j, fd := range c.prev.Functions {
			e := a.entitled[c.leafIDs[j]]
			if e > fd.DesiredCPU {
				e = fd.DesiredCPU
			}
			c.wantNext = append(c.wantNext, e)
		}
		stale := a.dirty[i] || !c.haveWant || !int64sEqual(c.wantNext, c.want)
		c.want, c.wantNext = c.wantNext, c.want
		c.haveWant = true
		if stale {
			if err := c.clampSite(capped); err != nil {
				return a.fail(err)
			}
		}
	}
	clear(a.spare)
	for i := range sites {
		c := a.caches[sites[i].Site]
		// The pass-3 spread mutates the working grants in place; the pure
		// clamp result stays in c.clamp so clean sites can reuse it next
		// epoch.
		c.grants = append(c.grants[:0], c.clamp...)
		a.spare[sites[i].Site] = sites[i].CapacityCPU - c.sum
	}

	// Pass 3 — spreading: entitlement displaced by the physical clamp is
	// granted at other sites that serve the same function and have idle
	// capacity, arbitrated by a second weight-proportional water-filling.
	// Flat federations spread over every site at once; hierarchies spread
	// level by level, metro scopes first (spreadHier), and reclaim — when
	// enabled — then preempts borrowed capacity for starved deserved
	// quotas before stranded/drift accounting sees the grants.
	if a.hier == nil {
		a.allIdx = a.allIdx[:0]
		for i := range sites {
			a.allIdx = append(a.allIdx, i)
		}
		if err := a.spread(sites, a.allIdx, capped); err != nil {
			return a.fail(err)
		}
	} else {
		clear(a.sitePos)
		for i := range sites {
			a.sitePos[sites[i].Site] = i
		}
		a.metros = a.metros[:0]
		if _, err := a.spreadHier(sites, a.hier.Root, capped); err != nil {
			return a.fail(err)
		}
		if a.reclaim {
			a.runReclaim(sites)
		}
	}

	return a.finish(sites, capped)
}

// spread runs one scope of the pass-3 overflow water-filling over the
// sites at positions idxs (ascending): identical round structure and
// orderings to the one-shot allocator — overflow heaviest-first (ties by
// name), hosts most-spare-first (ties by site order). The flat federation
// is a single scope over every site.
func (a *Allocator) spread(sites []SiteDemand, idxs []int, capped bool) error {
	a.overflow = a.overflow[:0]
	clear(a.overflowOf)
	for _, i := range idxs {
		c := a.caches[sites[i].Site]
		for j, fd := range c.prev.Functions {
			if miss := c.want[j] - c.grants[j]; miss > 0 {
				k, ok := a.overflowOf[fd.Name]
				if !ok {
					k = len(a.overflow)
					a.overflowOf[fd.Name] = k
					a.overflow = append(a.overflow, spreadDemand{fn: fd.Name, weight: fd.Weight})
				}
				a.overflow[k].need += miss
				if fd.Weight > a.overflow[k].weight {
					// Sites may weight the same function differently; the
					// heaviest overflowing claim arbitrates for all of them.
					a.overflow[k].weight = fd.Weight
				}
			}
		}
	}
	sort.Slice(a.overflow, func(i, j int) bool {
		if a.overflow[i].weight != a.overflow[j].weight {
			return a.overflow[i].weight > a.overflow[j].weight
		}
		return a.overflow[i].fn < a.overflow[j].fn
	})
	// The sort moved elements; rebuild the name index before placement
	// rounds look functions up by ID.
	for k := range a.overflow {
		a.overflowOf[a.overflow[k].fn] = k
	}
	hostsOf := func(fn string) ([]host, int64) {
		a.hosts = a.hosts[:0]
		var total int64
		for _, i := range idxs {
			if a.spare[sites[i].Site] <= 0 {
				continue
			}
			c := a.caches[sites[i].Site]
			if _, serves := c.fnIndex[fn]; serves {
				a.hosts = append(a.hosts, host{sites[i].Site, a.spare[sites[i].Site], i})
				total += a.spare[sites[i].Site]
			}
		}
		sort.Slice(a.hosts, func(i, j int) bool {
			if a.hosts[i].spare != a.hosts[j].spare {
				return a.hosts[i].spare > a.hosts[j].spare
			}
			return a.hosts[i].order < a.hosts[j].order
		})
		return a.hosts, total
	}
	for {
		a.demands = a.demands[:0]
		var pool int64
		clear(a.inPool)
		for k := range a.overflow {
			d := &a.overflow[k]
			if d.need <= 0 {
				continue
			}
			hosts, hostSpare := hostsOf(d.fn)
			if hostSpare == 0 {
				continue
			}
			want := d.need
			if want > hostSpare {
				want = hostSpare
			}
			a.demands = append(a.demands, fairshare.Demand{ID: d.fn, Weight: d.weight, Desired: want})
			for _, h := range hosts {
				if !a.inPool[h.site] {
					a.inPool[h.site] = true
					pool += a.spare[h.site]
				}
			}
		}
		if len(a.demands) == 0 {
			break
		}
		allocs, err := fairshare.AdjustCapped(a.demands, pool)
		if err != nil {
			return err
		}
		progress := false
		for _, al := range allocs {
			hosts, hostSpare := hostsOf(al.ID)
			amount := al.Adjusted
			if amount > hostSpare {
				amount = hostSpare
			}
			if amount <= 0 {
				continue
			}
			rem := amount
			for _, h := range hosts {
				take := amount * h.spare / hostSpare
				hc := a.caches[h.site]
				hc.grants[hc.fnIndex[al.ID]] += take
				a.spare[h.site] -= take
				rem -= take
			}
			for _, h := range hosts {
				if rem == 0 {
					break
				}
				take := a.spare[h.site]
				if take > rem {
					take = rem
				}
				if take > 0 {
					hc := a.caches[h.site]
					hc.grants[hc.fnIndex[al.ID]] += take
					a.spare[h.site] -= take
					rem -= take
				}
			}
			a.overflow[a.overflowOf[al.ID]].need -= amount
			progress = true
		}
		if !progress {
			break
		}
	}
	return nil
}

// finish computes the stranded/drift accounting and materializes the
// result rows from the per-site working grants — common to flat and
// hierarchical epochs, always over the final (post-spread, post-reclaim)
// grants.
func (a *Allocator) finish(sites []SiteDemand, capped bool) (*Result, error) {
	// Stranded capacity: idle CPU that even spreading could not pair with
	// the demand still unmet federation-wide.
	var totalSpare, totalUnmet int64
	clear(a.perFnDesired)
	clear(a.perFnGranted)
	for i := range sites {
		totalSpare += a.spare[sites[i].Site]
		c := a.caches[sites[i].Site]
		for j, fd := range c.prev.Functions {
			a.perFnDesired[fd.Name] += fd.DesiredCPU
			a.perFnGranted[fd.Name] += c.grants[j]
		}
	}
	for fn, d := range a.perFnDesired {
		if miss := d - a.perFnGranted[fn]; miss > 0 {
			totalUnmet += miss
		}
	}
	a.res.StrandedCPU = totalSpare
	if totalUnmet < totalSpare {
		a.res.StrandedCPU = totalUnmet
	}

	// Drift: L1 distance to the allocation each site would have computed
	// locally from the same demands. The local division depends only on the
	// site's own demand report, so clean sites reuse last epoch's.
	for i := range sites {
		c := a.caches[sites[i].Site]
		if !c.haveLocal {
			if err := fairshare.AllocateTreeInto(c.tree, c.prev.CapacityCPU, capped, c.localMap); err != nil {
				return a.fail(err)
			}
			c.haveLocal = true
		}
		for j := range c.leafIDs {
			d := c.grants[j] - c.localMap[c.leafIDs[j]]
			if d < 0 {
				d = -d
			}
			a.res.DriftCPU += d
		}
	}

	for i := range sites {
		c := a.caches[sites[i].Site]
		for j, fd := range c.prev.Functions {
			g := Grant{
				Site:        sites[i].Site,
				Function:    fd.Name,
				DesiredCPU:  fd.DesiredCPU,
				EntitledCPU: a.entitled[c.leafIDs[j]],
				GrantedCPU:  c.grants[j],
			}
			if a.hier != nil {
				// Deserved is the demand-independent quota; anything
				// granted above it is borrowed (and revocable by reclaim).
				// Flat federations leave both fields zero.
				g.DeservedCPU = a.deserved[c.leafIDs[j]]
				if b := g.GrantedCPU - g.DeservedCPU; b > 0 {
					g.BorrowedCPU = b
				}
			}
			a.res.Grants = append(a.res.Grants, g)
		}
	}

	a.order = a.order[:0]
	for i := range sites {
		a.order = append(a.order, a.caches[sites[i].Site])
	}
	a.havePrev = true
	return &a.res, nil
}
