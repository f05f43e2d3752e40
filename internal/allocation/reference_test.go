package allocation

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"lass/internal/fairshare"
	"lass/internal/xrand"
)

// subtree builds one site's user → function subtree, frozen from before
// ShareTree replaced it, so the references below share no tree code with
// the Allocator; only its root weight, now always 1, has changed since.
// desire maps the leaf desire per function; when nil the raw demands are
// used.
func subtree(s SiteDemand, id string, desire map[string]int64) *fairshare.Node {
	site := &fairshare.Node{ID: id, Weight: 1}
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

// allocateTree validates and divides root and keys the grants by leaf ID,
// the one-shot tree division the references were written against.
func allocateTree(root *fairshare.Node, capacity int64, capped bool) (map[string]int64, error) {
	var s fairshare.Scratch
	if err := s.ValidateTree(root); err != nil {
		return nil, err
	}
	grants, err := s.DivideTreeInto(root, capacity, capped, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(grants))
	var key func(n *fairshare.Node)
	key = func(n *fairshare.Node) {
		if n.Leaf() {
			out[n.ID], grants = grants[0], grants[1:]
			return
		}
		for _, c := range n.Children {
			key(c)
		}
	}
	key(root)
	return out, nil
}

// refHier is the hierarchical allocation path frozen as a one-shot oracle:
// pass 1 over the mounted group tree, cascadeDeserved, the pass-2 clamp,
// spreadHier/spread and runReclaim exactly as the name-keyed Allocator ran
// them before it went index-keyed, with every map, subtree and sorted slice
// rebuilt from scratch on each call. The incremental Allocator must match
// it bit for bit, results and error strings alike.
type refHier struct {
	sites    []SiteDemand
	entitled map[string]int64
	deserved map[string]int64
	want     map[string][]int64 // per site: min(entitled, desired) per function
	grants   map[string][]int64 // per site: working grants per function
	fnIndex  map[string]map[string]int
	spare    map[string]int64
	sitePos  map[string]int
	metros   []refMetro
	res      Result
}

type refMetro struct {
	g    *Group
	idxs []int
}

// referenceAllocateHierarchical runs one hierarchical epoch from scratch
// with the frozen oracle.
func referenceAllocateHierarchical(h *Hierarchy, sites []SiteDemand, capped, reclaim bool) (*Result, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if err := validate(sites, map[string]bool{}, map[string]bool{}); err != nil {
		return nil, err
	}
	levels := h.Levels()
	for i := range sites {
		if _, ok := levels[sites[i].Site]; !ok {
			return nil, fmt.Errorf("allocation: site %q not assigned to any hierarchy group", sites[i].Site)
		}
	}
	r := &refHier{
		sites:    sites,
		deserved: make(map[string]int64),
		want:     make(map[string][]int64),
		grants:   make(map[string][]int64),
		fnIndex:  make(map[string]map[string]int),
		spare:    make(map[string]int64),
		sitePos:  make(map[string]int),
	}
	for _, s := range sites {
		r.res.TotalCapacityCPU += s.CapacityCPU
		for _, fd := range s.Functions {
			r.res.TotalDesiredCPU += fd.DesiredCPU
		}
	}

	// Pass 1 — entitlement over the mounted hierarchy, then the deserved
	// cascade down the same tree.
	trees := make(map[string]*fairshare.Node, len(sites))
	for _, s := range sites {
		trees[s.Site] = subtree(s, "site:"+s.Site, nil)
	}
	root := &fairshare.Node{ID: "::federation"}
	refMountChildren(h.Root, root, trees)
	entitled, err := allocateTree(root, r.res.TotalCapacityCPU, capped)
	if err != nil {
		return nil, err
	}
	r.entitled = entitled
	r.cascadeDeserved(root, r.res.TotalCapacityCPU)

	// Pass 2 — feasibility clamp per site.
	for i, s := range sites {
		id := "site:" + s.Site
		want := make([]int64, len(s.Functions))
		wantMap := make(map[string]int64, len(s.Functions))
		idx := make(map[string]int, len(s.Functions))
		for j, fd := range s.Functions {
			e := entitled[id+"/"+fd.Name]
			if e > fd.DesiredCPU {
				e = fd.DesiredCPU
			}
			want[j] = e
			wantMap[fd.Name] = e
			idx[fd.Name] = j
		}
		g, err := allocateTree(subtree(s, id, wantMap), s.CapacityCPU, capped)
		if err != nil {
			return nil, err
		}
		grants := make([]int64, len(s.Functions))
		var sum int64
		for j, fd := range s.Functions {
			grants[j] = g[id+"/"+fd.Name]
			sum += grants[j]
		}
		r.want[s.Site] = want
		r.grants[s.Site] = grants
		r.fnIndex[s.Site] = idx
		r.spare[s.Site] = s.CapacityCPU - sum
		r.sitePos[s.Site] = i
	}

	// Pass 3 — level-by-level spreading, then reclaim.
	if _, err := r.spreadHier(h.Root); err != nil {
		return nil, err
	}
	if reclaim {
		r.runReclaim()
	}
	return r.finish(capped)
}

func refMountHier(g *Group, trees map[string]*fairshare.Node) *fairshare.Node {
	w := g.Weight
	if w == 0 {
		w = 1
	}
	n := &fairshare.Node{ID: "group:" + g.ID, Weight: w}
	refMountChildren(g, n, trees)
	return n
}

func refMountChildren(g *Group, n *fairshare.Node, trees map[string]*fairshare.Node) {
	for _, name := range g.Sites {
		if t, ok := trees[name]; ok {
			n.Children = append(n.Children, t)
		}
	}
	for _, c := range g.Children {
		n.Children = append(n.Children, refMountHier(c, trees))
	}
}

func (r *refHier) cascadeDeserved(n *fairshare.Node, share int64) {
	if n.Leaf() {
		r.deserved[n.ID] = share
		return
	}
	var w float64
	for _, c := range n.Children {
		w += c.Weight
	}
	for _, c := range n.Children {
		r.cascadeDeserved(c, int64(float64(share)*c.Weight/w))
	}
}

func (r *refHier) spreadHier(g *Group) ([]int, error) {
	var idxs []int
	if len(g.Sites) > 0 {
		for _, name := range g.Sites {
			if i, ok := r.sitePos[name]; ok {
				idxs = append(idxs, i)
			}
		}
		sort.Ints(idxs)
		r.metros = append(r.metros, refMetro{g: g, idxs: idxs})
	} else {
		for _, c := range g.Children {
			ci, err := r.spreadHier(c)
			if err != nil {
				return nil, err
			}
			idxs = append(idxs, ci...)
		}
		sort.Ints(idxs)
	}
	if err := r.spread(idxs); err != nil {
		return nil, err
	}
	return idxs, nil
}

func (r *refHier) spread(idxs []int) error {
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
	var overflow []spreadDemand
	overflowOf := make(map[string]int)
	for _, i := range idxs {
		s := r.sites[i]
		for j, fd := range s.Functions {
			if miss := r.want[s.Site][j] - r.grants[s.Site][j]; miss > 0 {
				k, ok := overflowOf[fd.Name]
				if !ok {
					k = len(overflow)
					overflowOf[fd.Name] = k
					overflow = append(overflow, spreadDemand{fn: fd.Name, weight: fd.Weight})
				}
				overflow[k].need += miss
				if fd.Weight > overflow[k].weight {
					overflow[k].weight = fd.Weight
				}
			}
		}
	}
	sort.Slice(overflow, func(i, j int) bool {
		if overflow[i].weight != overflow[j].weight {
			return overflow[i].weight > overflow[j].weight
		}
		return overflow[i].fn < overflow[j].fn
	})
	for k := range overflow {
		overflowOf[overflow[k].fn] = k
	}
	hostsOf := func(fn string) ([]host, int64) {
		var hosts []host
		var total int64
		for _, i := range idxs {
			name := r.sites[i].Site
			if r.spare[name] <= 0 {
				continue
			}
			if _, serves := r.fnIndex[name][fn]; serves {
				hosts = append(hosts, host{name, r.spare[name], i})
				total += r.spare[name]
			}
		}
		sort.Slice(hosts, func(i, j int) bool {
			if hosts[i].spare != hosts[j].spare {
				return hosts[i].spare > hosts[j].spare
			}
			return hosts[i].order < hosts[j].order
		})
		return hosts, total
	}
	for {
		var demands []fairshare.Demand
		var pool int64
		inPool := make(map[string]bool)
		for k := range overflow {
			d := &overflow[k]
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
			demands = append(demands, fairshare.Demand{ID: d.fn, Weight: d.weight, Desired: want})
			for _, h := range hosts {
				if !inPool[h.site] {
					inPool[h.site] = true
					pool += r.spare[h.site]
				}
			}
		}
		if len(demands) == 0 {
			break
		}
		allocs, err := fairshare.AdjustCapped(demands, pool)
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
				r.grants[h.site][r.fnIndex[h.site][al.ID]] += take
				r.spare[h.site] -= take
				rem -= take
			}
			for _, h := range hosts {
				if rem == 0 {
					break
				}
				take := r.spare[h.site]
				if take > rem {
					take = rem
				}
				if take > 0 {
					r.grants[h.site][r.fnIndex[h.site][al.ID]] += take
					r.spare[h.site] -= take
					rem -= take
				}
			}
			overflow[overflowOf[al.ID]].need -= amount
			progress = true
		}
		if !progress {
			break
		}
	}
	return nil
}

func (r *refHier) runReclaim() {
	type victim struct {
		site     int
		fn       int
		borrowed int64
	}
	leaf := func(i, j int) string { return "site:" + r.sites[i].Site + "/" + r.sites[i].Functions[j].Name }
	for _, m := range r.metros {
		if len(m.idxs) < 2 {
			continue
		}
		var victims []victim
		for _, i := range m.idxs {
			g := r.grants[r.sites[i].Site]
			for j := range r.sites[i].Functions {
				if b := g[j] - r.deserved[leaf(i, j)]; b > 0 {
					victims = append(victims, victim{site: i, fn: j, borrowed: b})
				}
			}
		}
		if len(victims) == 0 {
			continue
		}
		sort.Slice(victims, func(x, y int) bool {
			vx, vy := &victims[x], &victims[y]
			if vx.borrowed != vy.borrowed {
				return vx.borrowed > vy.borrowed
			}
			if vx.site != vy.site {
				return vx.site < vy.site
			}
			return r.sites[vx.site].Functions[vx.fn].Name < r.sites[vy.site].Functions[vy.fn].Name
		})
		for _, i := range m.idxs {
			home := r.sites[i]
			for j, fd := range home.Functions {
				owed := r.deserved[leaf(i, j)]
				if fd.DesiredCPU < owed {
					owed = fd.DesiredCPU
				}
				short := owed - r.grants[home.Site][j]
				if short <= 0 {
					continue
				}
				for _, p := range m.idxs {
					if p == i {
						continue
					}
					peer := r.sites[p]
					pj, ok := r.fnIndex[peer.Site][fd.Name]
					if !ok {
						continue
					}
					powed := r.deserved[leaf(p, pj)]
					if d := peer.Functions[pj].DesiredCPU; d < powed {
						powed = d
					}
					if extra := r.grants[peer.Site][pj] - powed; extra > 0 {
						short -= extra
					}
				}
				if short <= 0 {
					continue
				}
				for k := range victims {
					v := &victims[k]
					if v.borrowed <= 0 || v.site == i {
						continue
					}
					vs := r.sites[v.site]
					if vs.Functions[v.fn].Name == fd.Name {
						continue
					}
					tj, serves := r.fnIndex[vs.Site][fd.Name]
					if !serves {
						continue
					}
					t := short
					if v.borrowed < t {
						t = v.borrowed
					}
					r.grants[vs.Site][v.fn] -= t
					r.grants[vs.Site][tj] += t
					v.borrowed -= t
					short -= t
					r.res.Reclaims = append(r.res.Reclaims, Reclaim{
						Group:    m.g.ID,
						Site:     vs.Site,
						HomeSite: home.Site,
						From:     vs.Functions[v.fn].Name,
						To:       fd.Name,
						CPU:      t,
					})
					r.res.ReclaimedCPU += t
					if short == 0 {
						break
					}
				}
			}
		}
	}
}

func (r *refHier) finish(capped bool) (*Result, error) {
	var totalSpare, totalUnmet int64
	perFnDesired := make(map[string]int64)
	perFnGranted := make(map[string]int64)
	for _, s := range r.sites {
		totalSpare += r.spare[s.Site]
		for j, fd := range s.Functions {
			perFnDesired[fd.Name] += fd.DesiredCPU
			perFnGranted[fd.Name] += r.grants[s.Site][j]
		}
	}
	for fn, d := range perFnDesired {
		if miss := d - perFnGranted[fn]; miss > 0 {
			totalUnmet += miss
		}
	}
	r.res.StrandedCPU = totalSpare
	if totalUnmet < totalSpare {
		r.res.StrandedCPU = totalUnmet
	}
	for _, s := range r.sites {
		id := "site:" + s.Site
		local, err := allocateTree(subtree(s, id, nil), s.CapacityCPU, capped)
		if err != nil {
			return nil, err
		}
		for j, fd := range s.Functions {
			d := r.grants[s.Site][j] - local[id+"/"+fd.Name]
			if d < 0 {
				d = -d
			}
			r.res.DriftCPU += d
		}
	}
	for _, s := range r.sites {
		id := "site:" + s.Site
		for j, fd := range s.Functions {
			g := Grant{
				Site:        s.Site,
				Function:    fd.Name,
				DesiredCPU:  fd.DesiredCPU,
				EntitledCPU: r.entitled[id+"/"+fd.Name],
				GrantedCPU:  r.grants[s.Site][j],
				DeservedCPU: r.deserved[id+"/"+fd.Name],
			}
			if b := g.GrantedCPU - g.DeservedCPU; b > 0 {
				g.BorrowedCPU = b
			}
			r.res.Grants = append(r.res.Grants, g)
		}
	}
	return &r.res, nil
}

// TestHierarchicalAllocatorMatchesReferenceFuzz replays randomized epoch
// sequences over random hierarchies — demand shifts, structural churn
// (function weights, users, added and retired functions), site drops,
// reorders, capacity moves, capped-flag flips, invalid inputs and mid-run
// SetHierarchy swaps — and requires the incremental Allocator to match the
// frozen one-shot oracle exactly, with reclaim on and off.
func TestHierarchicalAllocatorMatchesReferenceFuzz(t *testing.T) {
	var reclaimed int64
	for seed := uint64(1); seed <= 12; seed++ {
		rng := xrand.New(0x5eed ^ seed)
		reclaim := seed%2 == 0
		h := fuzzHierarchy(rng)
		incr := NewAllocator()
		if err := incr.SetHierarchy(h, reclaim); err != nil {
			t.Fatal(err)
		}
		sites := fuzzFederation(rng)
		capped := true
		for epoch := 0; epoch < 40; epoch++ {
			sites = mutate(rng, sites)
			if rng.Intn(12) == 0 {
				capped = !capped
			}
			if rng.Intn(15) == 0 {
				h = fuzzHierarchy(rng)
				if err := incr.SetHierarchy(h, reclaim); err != nil {
					t.Fatal(err)
				}
			}
			want, wantErr := referenceAllocateHierarchical(h, cloneSites(sites), capped, reclaim)
			got, err := incr.Allocate(cloneSites(sites), capped)
			if (wantErr == nil) != (err == nil) {
				t.Fatalf("seed %d epoch %d: error %v, reference error %v", seed, epoch, err, wantErr)
			}
			if wantErr != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("seed %d epoch %d: error %q, reference %q", seed, epoch, err, wantErr)
				}
				sites = fuzzFederation(rng)
				continue
			}
			if d := diffHierResults(want, got); d != "" {
				t.Fatalf("seed %d epoch %d: %s", seed, epoch, d)
			}
			reclaimed += got.ReclaimedCPU
		}
	}
	if reclaimed == 0 {
		t.Fatal("reclaim never fired: the differential did not exercise runReclaim")
	}
}

// FuzzAllocatorEpochs decodes its input into an epoch sequence over a small
// hierarchical federation and checks every epoch of one incremental
// Allocator against the frozen one-shot oracle. The first byte seeds the
// hierarchy, the starting fleet and whether reclaim is on; every later
// byte pair (op, x) mutates the fleet and runs an epoch:
//
//	op%12  0 nothing (the fast path)   6 deploy a function
//	       1 one function's desire     7 retire a function
//	       2 a site's capacity         8 swap two sites
//	       3 rename a site to collide  9 drop a site, or add one back
//	       4 a function's weight      10 flip capped
//	       5 a function's user        11 a negative desire (an error epoch)
//
// x picks the site, the function and the new value. Op 3 renames one site
// to "<another site>/<one of its functions>": the renamed site's root node
// ID is then the other site's leaf ID, an error epoch that repeats until
// the collision goes.
func FuzzAllocatorEpochs(f *testing.F) {
	f.Add([]byte{3, 1, 40, 1, 77, 0, 0, 2, 9, 1, 200})
	f.Add([]byte{8, 6, 13, 4, 90, 5, 31, 7, 2, 1, 150, 0, 0})
	f.Add([]byte{21, 8, 17, 9, 4, 9, 5, 11, 60, 1, 3, 10, 0, 3, 2})
	// Capacity-only epochs: the total moves, so deserved quotas are
	// cascaded again, around a demand-only epoch that keeps them.
	f.Add([]byte{7, 0, 0, 2, 17, 1, 33, 2, 40})
	// A cross-site ID collision, then epochs that leave it in place: each
	// must fail again, though the site order holds and no site is rebuilt.
	f.Add([]byte{8, 0, 0, 3, 5, 1, 21, 0, 0, 2, 6})
	// A site retires its only function and stays mounted as a zero-function
	// stub through demand and capacity epochs elsewhere: its subtree is a
	// single leaf with no function behind it.
	f.Add([]byte{9, 0, 0, 7, 0, 1, 5, 2, 13, 1, 26})
	// With reclaim on, a starved claim appears in metro m0 on the third
	// epoch and is gone on the fourth: the victim snapshot is taken only
	// while it lasts.
	f.Add([]byte{13, 0, 0, 1, 98, 1, 244, 1, 172})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rng := xrand.New(uint64(data[0]))
		h := fuzzHierarchy(rng)
		reclaim := data[0]&1 == 1
		sites := fuzzFederation(rng)
		a := NewAllocator()
		if err := a.SetHierarchy(h, reclaim); err != nil {
			t.Fatal(err)
		}
		capped := true
		for epoch := 0; len(data) >= 3 && epoch < 64; epoch++ {
			op, x := data[1]%12, int(data[2])
			data = data[2:]
			if op == 10 {
				capped = !capped
			} else {
				sites = fuzzMutate(sites, op, x)
			}
			want, wantErr := referenceAllocateHierarchical(h, cloneSites(sites), capped, reclaim)
			got, err := a.Allocate(cloneSites(sites), capped)
			if (wantErr == nil) != (err == nil) {
				t.Fatalf("epoch %d (op %d): error %v, reference error %v", epoch, op, err, wantErr)
			}
			if wantErr != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("epoch %d (op %d): error %q, reference %q", epoch, op, err, wantErr)
				}
				for i := range sites {
					for j := range sites[i].Functions {
						sites[i].Functions[j].DesiredCPU = max(0, sites[i].Functions[j].DesiredCPU)
					}
				}
				continue
			}
			if d := diffHierResults(want, got); d != "" {
				t.Fatalf("epoch %d (op %d): %s", epoch, op, d)
			}
		}
	})
}

// fuzzMutate applies one FuzzAllocatorEpochs op other than the capped flip.
func fuzzMutate(sites []SiteDemand, op byte, x int) []SiteDemand {
	n := len(sites)
	s := &sites[x%n]
	var fd *FunctionDemand
	if len(s.Functions) > 0 {
		fd = &s.Functions[(x/n)%len(s.Functions)]
	}
	switch op {
	case 1:
		if fd != nil {
			fd.DesiredCPU = int64(x%7) * 500
		}
	case 2:
		s.CapacityCPU = int64(x%6) * 1000
	case 3:
		if o := &sites[(x/n)%n]; o != s && len(o.Functions) > 0 {
			s.Site = o.Site + "/" + o.Functions[x%len(o.Functions)].Name
		}
	case 4:
		if fd != nil {
			fd.Weight = 0.5 + float64(x%8)/2
		}
	case 5:
		if fd != nil {
			if x%3 == 0 {
				fd.User, fd.UserWeight = "", 0
			} else {
				fd.User, fd.UserWeight = fmt.Sprintf("u%d", x%2), float64(x%3)
			}
		}
	case 6:
		for k := range fuzzFnPool {
			name := fuzzFnPool[(x+k)%len(fuzzFnPool)]
			if !slices.ContainsFunc(s.Functions, func(fd FunctionDemand) bool { return fd.Name == name }) {
				s.Functions = append(s.Functions, FunctionDemand{Name: name, Weight: 1 + float64(x%3), DesiredCPU: int64(x%5) * 700})
				break
			}
		}
	case 7:
		if fd != nil {
			j := (x / n) % len(s.Functions)
			s.Functions = append(s.Functions[:j], s.Functions[j+1:]...)
		}
	case 8:
		j := (x / n) % n
		sites[x%n], sites[j] = sites[j], sites[x%n]
	case 9:
		if x%2 == 0 && n > 1 {
			return append(sites[:x%n], sites[x%n+1:]...)
		}
		// fuzzHierarchy covers s00–s11; bring back the first one missing.
		for k := 0; k < 12; k++ {
			name := fmt.Sprintf("s%02d", (x+k)%12)
			if !slices.ContainsFunc(sites, func(s SiteDemand) bool { return s.Site == name }) {
				return append(sites, SiteDemand{Site: name, CapacityCPU: int64(x%4) * 1000, Functions: []FunctionDemand{
					{Name: fuzzFnPool[x%len(fuzzFnPool)], Weight: 1, DesiredCPU: int64(x%6) * 400},
				}})
			}
		}
	case 11:
		if fd != nil {
			fd.DesiredCPU = -1
		}
	}
	return sites
}

// diffHierResults extends diffResults with the hierarchy-only outputs:
// the reclaim total and every directive, in order.
func diffHierResults(want, got *Result) string {
	if d := diffResults(want, got); d != "" {
		return d
	}
	if want.ReclaimedCPU != got.ReclaimedCPU || len(want.Reclaims) != len(got.Reclaims) {
		return fmt.Sprintf("reclaim mismatch: want %d mC in %d directives, got %d mC in %d",
			want.ReclaimedCPU, len(want.Reclaims), got.ReclaimedCPU, len(got.Reclaims))
	}
	for i := range want.Reclaims {
		if want.Reclaims[i] != got.Reclaims[i] {
			return fmt.Sprintf("reclaim %d mismatch: want %+v, got %+v", i, want.Reclaims[i], got.Reclaims[i])
		}
	}
	return ""
}
