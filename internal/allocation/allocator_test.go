package allocation

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"lass/internal/fairshare"
	"lass/internal/xrand"
)

// referenceAllocate is the pre-Allocator one-shot implementation, frozen
// verbatim: every epoch rebuilds every map, subtree, and sorted slice from
// scratch. The incremental Allocator must reproduce its output bit-for-bit
// across arbitrary epoch sequences — that is the contract the differential
// fuzz below enforces.
func referenceAllocate(sites []SiteDemand, capped bool) (*Result, error) {
	if err := validate(sites, map[string]bool{}, map[string]bool{}); err != nil {
		return nil, err
	}
	res := &Result{}
	for _, s := range sites {
		res.TotalCapacityCPU += s.CapacityCPU
		for _, fd := range s.Functions {
			res.TotalDesiredCPU += fd.DesiredCPU
		}
	}

	// Pass 1 — entitlement: capped water-filling over the federation's
	// total edge capacity, site → user → function.
	root := &fairshare.Node{ID: "::federation"}
	for _, s := range sites {
		root.Children = append(root.Children, subtree(s, "site:"+s.Site, nil))
	}
	entitled, err := allocateTree(root, res.TotalCapacityCPU, capped)
	if err != nil {
		return nil, err
	}

	// Pass 2 — feasibility: clamp each site's enforceable grants to its
	// physical capacity.
	granted := make(map[string]map[string]int64, len(sites))
	spare := make(map[string]int64, len(sites))
	for _, s := range sites {
		id := "site:" + s.Site
		want := make(map[string]int64, len(s.Functions))
		for _, fd := range s.Functions {
			e := entitled[id+"/"+fd.Name]
			if e > fd.DesiredCPU {
				e = fd.DesiredCPU
			}
			want[fd.Name] = e
		}
		g, err := allocateTree(subtree(s, id, want), s.CapacityCPU, capped)
		if err != nil {
			return nil, err
		}
		siteGrant := make(map[string]int64, len(s.Functions))
		var sum int64
		for _, fd := range s.Functions {
			siteGrant[fd.Name] = g[id+"/"+fd.Name]
			sum += siteGrant[fd.Name]
		}
		granted[s.Site] = siteGrant
		spare[s.Site] = s.CapacityCPU - sum
	}

	// Pass 3 — spreading.
	type spreadDemand struct {
		fn     string
		need   int64
		weight float64
	}
	overflowOf := make(map[string]*spreadDemand)
	var overflow []*spreadDemand
	for _, s := range sites {
		id := "site:" + s.Site
		for _, fd := range s.Functions {
			e := entitled[id+"/"+fd.Name]
			if e > fd.DesiredCPU {
				e = fd.DesiredCPU
			}
			if miss := e - granted[s.Site][fd.Name]; miss > 0 {
				d := overflowOf[fd.Name]
				if d == nil {
					d = &spreadDemand{fn: fd.Name, weight: fd.Weight}
					overflowOf[fd.Name] = d
					overflow = append(overflow, d)
				}
				d.need += miss
				if fd.Weight > d.weight {
					d.weight = fd.Weight
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
	type host struct {
		site  string
		spare int64
		order int
	}
	hostsOf := func(fn string) ([]host, int64) {
		var hosts []host
		var total int64
		for i, s := range sites {
			if spare[s.Site] <= 0 {
				continue
			}
			for _, fd := range s.Functions {
				if fd.Name == fn {
					hosts = append(hosts, host{s.Site, spare[s.Site], i})
					total += spare[s.Site]
					break
				}
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
		for _, d := range overflow {
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
					pool += spare[h.site]
				}
			}
		}
		if len(demands) == 0 {
			break
		}
		allocs, err := fairshare.AdjustCapped(demands, pool)
		if err != nil {
			return nil, err
		}
		progress := false
		for _, a := range allocs {
			hosts, hostSpare := hostsOf(a.ID)
			amount := a.Adjusted
			if amount > hostSpare {
				amount = hostSpare
			}
			if amount <= 0 {
				continue
			}
			rem := amount
			for _, h := range hosts {
				take := amount * h.spare / hostSpare
				granted[h.site][a.ID] += take
				spare[h.site] -= take
				rem -= take
			}
			for _, h := range hosts {
				if rem == 0 {
					break
				}
				take := spare[h.site]
				if take > rem {
					take = rem
				}
				if take > 0 {
					granted[h.site][a.ID] += take
					spare[h.site] -= take
					rem -= take
				}
			}
			overflowOf[a.ID].need -= amount
			progress = true
		}
		if !progress {
			break
		}
	}

	var totalSpare, totalUnmet int64
	perFnDesired := make(map[string]int64)
	perFnGranted := make(map[string]int64)
	for _, s := range sites {
		totalSpare += spare[s.Site]
		for _, fd := range s.Functions {
			perFnDesired[fd.Name] += fd.DesiredCPU
			perFnGranted[fd.Name] += granted[s.Site][fd.Name]
		}
	}
	for fn, d := range perFnDesired {
		if miss := d - perFnGranted[fn]; miss > 0 {
			totalUnmet += miss
		}
	}
	res.StrandedCPU = totalSpare
	if totalUnmet < totalSpare {
		res.StrandedCPU = totalUnmet
	}

	for _, s := range sites {
		id := "site:" + s.Site
		local, err := allocateTree(subtree(s, id, nil), s.CapacityCPU, capped)
		if err != nil {
			return nil, err
		}
		for _, fd := range s.Functions {
			d := granted[s.Site][fd.Name] - local[id+"/"+fd.Name]
			if d < 0 {
				d = -d
			}
			res.DriftCPU += d
		}
	}

	for _, s := range sites {
		id := "site:" + s.Site
		for _, fd := range s.Functions {
			res.Grants = append(res.Grants, Grant{
				Site:        s.Site,
				Function:    fd.Name,
				DesiredCPU:  fd.DesiredCPU,
				EntitledCPU: entitled[id+"/"+fd.Name],
				GrantedCPU:  granted[s.Site][fd.Name],
			})
		}
	}
	return res, nil
}

func diffResults(want, got *Result) string {
	if want.TotalCapacityCPU != got.TotalCapacityCPU || want.TotalDesiredCPU != got.TotalDesiredCPU ||
		want.StrandedCPU != got.StrandedCPU || want.DriftCPU != got.DriftCPU {
		return fmt.Sprintf("summary mismatch: want cap=%d des=%d stranded=%d drift=%d, got cap=%d des=%d stranded=%d drift=%d",
			want.TotalCapacityCPU, want.TotalDesiredCPU, want.StrandedCPU, want.DriftCPU,
			got.TotalCapacityCPU, got.TotalDesiredCPU, got.StrandedCPU, got.DriftCPU)
	}
	if len(want.Grants) != len(got.Grants) {
		return fmt.Sprintf("grant count mismatch: want %d, got %d", len(want.Grants), len(got.Grants))
	}
	for i := range want.Grants {
		if want.Grants[i] != got.Grants[i] {
			return fmt.Sprintf("grant %d mismatch: want %+v, got %+v", i, want.Grants[i], got.Grants[i])
		}
	}
	return ""
}

// TestShareTreeMatchesSubtree holds ShareTree's positional division to the
// frozen subtree's keyed one, on random sites and desires, capped and not,
// and checks that a site with no functions divides to nothing.
func TestShareTreeMatchesSubtree(t *testing.T) {
	rng := xrand.New(47)
	var scratch fairshare.Scratch
	for trial := 0; trial < 200; trial++ {
		for _, s := range fuzzFederation(rng) {
			id := "site:" + s.Site
			tree := NewShareTree(id, s.Functions)
			desire := make([]int64, len(s.Functions))
			byName := make(map[string]int64, len(s.Functions))
			for j, fd := range s.Functions {
				desire[j] = int64(rng.Intn(9)) * 250
				byName[fd.Name] = desire[j]
			}
			capacity := int64(rng.Intn(8)) * 500
			for _, capped := range []bool{false, true} {
				want, err := allocateTree(subtree(s, id, byName), capacity, capped)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]int64, len(s.Functions))
				if err := tree.Divide(&scratch, desire, capacity, capped, got); err != nil {
					t.Fatal(err)
				}
				for j, fd := range s.Functions {
					if got[j] != want[id+"/"+fd.Name] {
						t.Fatalf("trial %d, %s capped=%v: %s got %d, subtree %d", trial, s.Site, capped, fd.Name, got[j], want[id+"/"+fd.Name])
					}
				}
			}
		}
	}
	if err := NewShareTree("site:empty", nil).Divide(&scratch, nil, 1000, true, nil); err != nil {
		t.Errorf("empty site: %v", err)
	}
}

// fuzzFnPool is the function-name pool fuzzed sites draw from.
var fuzzFnPool = []string{"auth", "encode", "infer", "ocr", "resize", "translate"}

// fuzzFederation generates a random valid federation: sites drawing
// functions from a shared pool (so the spread pass has cross-site hosts),
// occasional user namespaces, per-site function-weight disagreements, zero
// desires, and zero-capacity sites.
func fuzzFederation(rng *xrand.Rand) []SiteDemand {
	fnPool := fuzzFnPool
	n := 2 + rng.Intn(9)
	sites := make([]SiteDemand, 0, n)
	for i := 0; i < n; i++ {
		s := SiteDemand{
			Site:        fmt.Sprintf("s%02d", i),
			CapacityCPU: int64(rng.Intn(6)) * 1000,
		}
		k := 1 + rng.Intn(len(fnPool))
		for f := 0; f < k; f++ {
			fd := FunctionDemand{
				Name:       fnPool[f],
				Weight:     0.5 + float64(rng.Intn(8))/2,
				DesiredCPU: int64(rng.Intn(7)) * 500,
			}
			if rng.Intn(3) == 0 {
				fd.User = fmt.Sprintf("u%d", rng.Intn(2))
				fd.UserWeight = float64(rng.Intn(3))
			}
			s.Functions = append(s.Functions, fd)
		}
		sites = append(sites, s)
	}
	return sites
}

// mutate evolves the federation between epochs: often nothing changes (the
// steady state the fast path serves), otherwise a random subset of sites
// shifts demand, sites appear/disappear/reorder, a site's function list
// changes shape (weights, users, functions added or removed), or the input
// is made invalid to exercise error parity and cache invalidation.
func mutate(rng *xrand.Rand, sites []SiteDemand) []SiteDemand {
	switch rng.Intn(14) {
	case 10: // reweight one function
		s := &sites[rng.Intn(len(sites))]
		if len(s.Functions) > 0 {
			s.Functions[rng.Intn(len(s.Functions))].Weight = 0.5 + float64(rng.Intn(8))/2
		}
		return sites
	case 11: // move one function to another user namespace, or to none
		s := &sites[rng.Intn(len(sites))]
		if len(s.Functions) > 0 {
			fd := &s.Functions[rng.Intn(len(s.Functions))]
			if rng.Intn(3) == 0 {
				fd.User, fd.UserWeight = "", 0
			} else {
				fd.User, fd.UserWeight = fmt.Sprintf("u%d", rng.Intn(2)), float64(rng.Intn(3))
			}
		}
		return sites
	case 12: // deploy one more function from the pool
		s := &sites[rng.Intn(len(sites))]
		for _, name := range fuzzFnPool[rng.Intn(len(fuzzFnPool)):] {
			if !slices.ContainsFunc(s.Functions, func(fd FunctionDemand) bool { return fd.Name == name }) {
				s.Functions = append(s.Functions, FunctionDemand{
					Name:       name,
					Weight:     0.5 + float64(rng.Intn(8))/2,
					DesiredCPU: int64(rng.Intn(7)) * 500,
				})
				break
			}
		}
		return sites
	case 13: // retire one function
		s := &sites[rng.Intn(len(sites))]
		if len(s.Functions) > 0 {
			j := rng.Intn(len(s.Functions))
			s.Functions = append(s.Functions[:j], s.Functions[j+1:]...)
		}
		return sites
	case 0, 1, 2: // steady state: nothing changes
		return sites
	case 3: // full regeneration
		return fuzzFederation(rng)
	case 4: // reorder sites without touching content
		if len(sites) > 1 {
			i, j := rng.Intn(len(sites)), rng.Intn(len(sites))
			sites[i], sites[j] = sites[j], sites[i]
		}
		return sites
	case 5: // drop a site
		if len(sites) > 1 {
			i := rng.Intn(len(sites))
			sites = append(sites[:i], sites[i+1:]...)
		}
		return sites
	case 6: // invalid input: negative desire on a random function
		i := rng.Intn(len(sites))
		if len(sites[i].Functions) > 0 {
			sites[i].Functions[rng.Intn(len(sites[i].Functions))].DesiredCPU = -1
		}
		return sites
	default: // shift demand at a random subset of sites
		k := 1 + rng.Intn(len(sites))
		for m := 0; m < k; m++ {
			i := rng.Intn(len(sites))
			s := &sites[i]
			if len(s.Functions) == 0 {
				continue
			}
			j := rng.Intn(len(s.Functions))
			s.Functions[j].DesiredCPU = int64(rng.Intn(7)) * 500
			if rng.Intn(4) == 0 {
				s.CapacityCPU = int64(rng.Intn(6)) * 1000
			}
		}
		return sites
	}
}

func cloneSites(sites []SiteDemand) []SiteDemand {
	out := make([]SiteDemand, len(sites))
	for i, s := range sites {
		out[i] = s
		out[i].Functions = append([]FunctionDemand(nil), s.Functions...)
	}
	return out
}

// TestAllocatorMatchesReferenceFuzz replays randomized epoch sequences —
// steady states, partial demand shifts, site churn, reorders, capped-flag
// flips, and invalid inputs — through three implementations that must agree
// exactly: the frozen reference, the one-shot Allocate, and an incremental
// Allocator.
func TestAllocatorMatchesReferenceFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		sites := fuzzFederation(rng)
		incr := NewAllocator()
		capped := true
		for epoch := 0; epoch < 40; epoch++ {
			sites = mutate(rng, sites)
			if rng.Intn(12) == 0 {
				capped = !capped
			}
			// The Allocator may retain references into its own copies but
			// must never depend on the caller's backing arrays staying
			// alive or unchanged; hand each implementation the same values
			// through an independent clone to prove it.
			want, wantErr := referenceAllocate(cloneSites(sites), capped)
			oneshot, oneErr := Allocate(cloneSites(sites), capped)
			got, incrErr := incr.Allocate(cloneSites(sites), capped)
			for _, impl := range []struct {
				name string
				err  error
			}{{"oneshot", oneErr}, {"incremental", incrErr}} {
				if (wantErr == nil) != (impl.err == nil) {
					t.Fatalf("seed %d epoch %d: %s error %v, reference error %v", seed, epoch, impl.name, impl.err, wantErr)
				}
				if wantErr != nil && impl.err.Error() != wantErr.Error() {
					t.Fatalf("seed %d epoch %d: %s error %q, reference %q", seed, epoch, impl.name, impl.err, wantErr)
				}
			}
			if wantErr != nil {
				// The invalid epoch invalidated every cache; restart from a
				// fresh valid federation so later epochs stay interesting.
				sites = fuzzFederation(rng)
				continue
			}
			if d := diffResults(want, oneshot); d != "" {
				t.Fatalf("seed %d epoch %d: one-shot diverged: %s", seed, epoch, d)
			}
			if d := diffResults(want, got); d != "" {
				t.Fatalf("seed %d epoch %d: incremental diverged: %s", seed, epoch, d)
			}
		}
	}
}

// churnFederation builds a 100-site fleet shaped like the control_churn
// benchmark: 2 regions × 5 metros × 10 sites, 8 functions per site drawn
// from a 12-name pool at a site-specific offset, four users, the first
// metro of each region hot (three times the desire, so its sites overflow
// and borrow) with one 2000 mC site in it whose deserved shares only
// reclaim can recover, and the quota tree over them.
func churnFederation() (*Hierarchy, []SiteDemand) {
	rng := xrand.New(7)
	root := &Group{ID: "::root"}
	var sites []SiteDemand
	for r := 0; r < 2; r++ {
		region := &Group{ID: fmt.Sprintf("region-%d", r)}
		for m := 0; m < 5; m++ {
			metro := &Group{ID: fmt.Sprintf("metro-%d-%d", r, m)}
			for k := 0; k < 10; k++ {
				i := len(sites)
				s := SiteDemand{Site: fmt.Sprintf("site-%03d", i), CapacityCPU: 16_000}
				if m == 0 && k == 3 {
					s.CapacityCPU = 2_000
				}
				for j := 0; j < 8; j++ {
					fn := (i + j) % 12
					d := int64(250 * (1 + rng.Intn(8)))
					if m == 0 {
						d *= 3
					}
					s.Functions = append(s.Functions, FunctionDemand{
						Name:       fmt.Sprintf("f%02d", fn),
						User:       fmt.Sprintf("u%d", fn%4),
						UserWeight: float64(fn%4 + 1),
						Weight:     float64(rng.Intn(4) + 1),
						DesiredCPU: d,
					})
				}
				metro.Sites = append(metro.Sites, s.Site)
				sites = append(sites, s)
			}
			region.Children = append(region.Children, metro)
		}
		root.Children = append(root.Children, region)
	}
	return &Hierarchy{Root: root}, sites
}

// TestAllocatorAllocsScaleWithDirtySites is the churn-proportional contract
// (ROADMAP item 1): on a control_churn-shaped federation with reclaim, an
// epoch in which k sites change only their desires allocates nothing when
// k = 0 and at most allocsPerDirtySite·k + allocsPerEpoch otherwise. The
// spread pass arbitrates in a reused one-level tree, so what remains is
// the amortized growth of reused lists, such as the reclaim list.
func TestAllocatorAllocsScaleWithDirtySites(t *testing.T) {
	const allocsPerDirtySite, allocsPerEpoch = 1, 0
	h, sites := churnFederation()
	a := NewAllocator()
	if err := a.SetHierarchy(h, true); err != nil {
		t.Fatal(err)
	}
	res, err := a.Allocate(sites, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedCPU == 0 {
		t.Fatal("test premise broken: reclaim does not fire on the churn federation")
	}
	epoch := 0
	for _, k := range []int{0, 1, 5, 20} {
		got := testing.AllocsPerRun(50, func() {
			// A hot spot rolling through the fleet, like control_churn's:
			// k distinct sites per epoch move one function's desire.
			epoch++
			for d := 0; d < k; d++ {
				s := &sites[(epoch*k+d)%len(sites)]
				s.Functions[epoch%len(s.Functions)].DesiredCPU ^= 256
			}
			if _, err := a.Allocate(sites, true); err != nil {
				panic(err)
			}
		})
		limit := 0.0
		if k > 0 {
			limit = float64(allocsPerDirtySite*k + allocsPerEpoch)
		}
		t.Logf("k=%d dirty sites: %.1f allocations per epoch (limit %.0f)", k, got, limit)
		if got > limit {
			t.Errorf("k=%d dirty sites: %.1f allocations per epoch, want ≤ %.0f", k, got, limit)
		}
	}
}

// coldEpoch is a coordinator taking over cold: a fresh Allocator, its
// hierarchy with reclaim, and its first epoch.
func coldEpoch(h *Hierarchy, sites []SiteDemand) (*Result, error) {
	a := NewAllocator()
	if err := a.SetHierarchy(h, true); err != nil {
		return nil, err
	}
	return a.Allocate(sites, true)
}

// TestColdEpochAllocs holds a cold epoch on the control_churn-shaped
// federation to coldEpochAllocs heap allocations — about ten per site,
// not per tree node and node ID: each share tree is a few slabs and one
// ID string, each site's vectors one slice, the caches one slice, the
// hierarchy's vertices and the spread's server lists one slab each, and
// the maps and result rows are sized once. The count includes the
// Allocator's own fairshare.Scratch, sized once from the first tree's node
// count: 1,135 measured (1,187 under -race); the limit adds a small margin.
func TestColdEpochAllocs(t *testing.T) {
	const coldEpochAllocs = 1200
	h, sites := churnFederation()
	got := testing.AllocsPerRun(20, func() {
		if _, err := coldEpoch(h, sites); err != nil {
			panic(err)
		}
	})
	t.Logf("%.0f allocations per cold epoch on %d sites (limit %d)", got, len(sites), coldEpochAllocs)
	if got > coldEpochAllocs {
		t.Errorf("cold epoch: %.0f allocations, want ≤ %d", got, coldEpochAllocs)
	}
}

// BenchmarkColdAllocate times a coordinator's cold takeover on the
// control_churn-shaped federation: NewAllocator, SetHierarchy with
// reclaim, and the first Allocate.
func BenchmarkColdAllocate(b *testing.B) {
	h, sites := churnFederation()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := coldEpoch(h, sites); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCapacityThatNeverBindsLeavesGrants is the no-pressure exit stated as
// a relation: when every site's total desire fits its own capacity,
// scaling every capacity by an integer k ≥ 1 leaves each row's GrantedCPU
// and EntitledCPU unchanged — flat and hierarchical (reclaim off and on),
// capped and not, on a cold epoch and on the warm one after it. Deserved
// and borrowed quotas follow capacity and may move. Each seed redraws the
// control_churn-shaped federation's desires and gives every site its total
// desire plus 0–3 × 250 mC, so some sites fit exactly; the warm epoch
// lowers one desire at a tenth of the sites.
func TestCapacityThatNeverBindsLeavesGrants(t *testing.T) {
	h, base := churnFederation()
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		cold := cloneSites(base)
		for i := range cold {
			s := &cold[i]
			for j := range s.Functions {
				s.Functions[j].DesiredCPU = int64(250 * rng.Intn(9))
			}
			s.CapacityCPU = totalDesire(s) + int64(250*rng.Intn(4))
		}
		warm := cloneSites(cold)
		for i := 0; i < len(warm); i += 10 {
			fd := &warm[i+rng.Intn(10)].Functions[rng.Intn(8)]
			fd.DesiredCPU = int64(rng.Intn(int(fd.DesiredCPU) + 1))
		}
		for _, mode := range []string{"flat", "hierarchical", "reclaim"} {
			for _, capped := range []bool{false, true} {
				for _, k := range []int64{2, 3, 10} {
					one, scaled := NewAllocator(), NewAllocator()
					if mode != "flat" {
						for _, a := range []*Allocator{one, scaled} {
							if err := a.SetHierarchy(h, mode == "reclaim"); err != nil {
								t.Fatal(err)
							}
						}
					}
					for e, epoch := range [][]SiteDemand{cold, warm} {
						want, err := one.Allocate(cloneSites(epoch), capped)
						if err != nil {
							t.Fatal(err)
						}
						bigger := cloneSites(epoch)
						for i := range bigger {
							bigger[i].CapacityCPU *= k
						}
						got, err := scaled.Allocate(bigger, capped)
						if err != nil {
							t.Fatal(err)
						}
						for r, w := range want.Grants {
							g := got.Grants[r]
							if g.GrantedCPU != w.GrantedCPU || g.EntitledCPU != w.EntitledCPU {
								t.Fatalf("seed %d %s capped=%v epoch %d, capacity ×%d: %s/%s granted %d entitled %d, want %d and %d",
									seed, mode, capped, e, k, g.Site, g.Function, g.GrantedCPU, g.EntitledCPU, w.GrantedCPU, w.EntitledCPU)
							}
						}
					}
				}
			}
		}
	}
}

// TestPass1RedividesInProportionToChurn counts the site subtrees pass 1
// re-divides on the control_churn-shaped federation while k sites change
// one desire per epoch. Under capacity no level of the tree is overloaded,
// every stub is granted its total, and exactly the k dirty sites
// re-divide. Over capacity a moved desire shifts grants elsewhere too, so
// the count is logged and only bounded by the fleet. Every epoch must
// match the one-shot allocation.
func TestPass1RedividesInProportionToChurn(t *testing.T) {
	for _, over := range []bool{false, true} {
		h, sites := churnFederation()
		var capacity, desire int64
		for i := range sites {
			if over {
				sites[i].CapacityCPU /= 2
			}
			capacity += sites[i].CapacityCPU
			desire += totalDesire(&sites[i])
		}
		if over != (desire > capacity) {
			t.Fatalf("test premise broken: over=%v with %d mC desired of %d mC", over, desire, capacity)
		}
		a := NewAllocator()
		if err := a.SetHierarchy(h, true); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Allocate(sites, true); err != nil {
			t.Fatal(err)
		}
		epoch := 0
		for _, k := range []int{0, 1, 5, 20} {
			total := 0
			for range 10 {
				epoch++
				for d := 0; d < k; d++ {
					s := &sites[(epoch*k+d)%len(sites)]
					s.Functions[epoch%len(s.Functions)].DesiredCPU ^= 256
				}
				got, err := a.Allocate(sites, true)
				if err != nil {
					t.Fatal(err)
				}
				want, err := allocateHierarchical(h, sites, true, true)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffHierResults(want, got); d != "" {
					t.Fatalf("over=%v k=%d epoch %d: %s", over, k, epoch, d)
				}
				n := a.redivided
				total += n
				if !over && n != k {
					t.Errorf("under capacity, k=%d dirty sites: %d subtrees re-divided, want %d", k, n, k)
				}
				if over && n >= len(sites) {
					t.Errorf("over capacity, k=%d dirty sites: every one of %d subtrees re-divided", k, n)
				}
			}
			t.Logf("over=%v k=%d dirty sites: %.1f of %d site subtrees re-divided per epoch", over, k, float64(total)/10, len(sites))
		}
	}
}

// TestAllocatorSteadyStateZeroAllocs is the perf contract the federation
// epoch loop relies on: when no site's demand report changed since the last
// epoch, Allocate performs zero heap allocations.
func TestAllocatorSteadyStateZeroAllocs(t *testing.T) {
	rng := xrand.New(7)
	sites := fuzzFederation(rng)
	a := NewAllocator()
	if _, err := a.Allocate(sites, true); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		res, err := a.Allocate(sites, true)
		if err != nil {
			panic(err)
		}
		if res == nil {
			panic("nil result")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Allocate allocated %.1f times per epoch; want 0", allocs)
	}
}

// starvedMetros lists, in declaration order, the leaf groups of h with at
// least two sites present where some function's deserved-capped desire
// still exceeds its grant after netting what it holds at metro peers
// beyond their own deserved-capped desire — the claims reclaim acts on.
// pre is the epoch's result with reclaim off: the grants reclaim starts
// from, since reclaim is the last pass.
func starvedMetros(h *Hierarchy, sites []SiteDemand, pre *Result) []string {
	rows := map[string]map[string]Grant{}
	for _, g := range pre.Grants {
		if rows[g.Site] == nil {
			rows[g.Site] = map[string]Grant{}
		}
		rows[g.Site][g.Function] = g
	}
	owed := func(g Grant) int64 { return min(g.DeservedCPU, g.DesiredCPU) }
	var out []string
	var walk func(g *Group)
	walk = func(g *Group) {
		for _, c := range g.Children {
			walk(c)
		}
		var present []SiteDemand
		for _, s := range sites {
			if slices.Contains(g.Sites, s.Site) {
				present = append(present, s)
			}
		}
		if len(present) < 2 {
			return
		}
		for _, home := range present {
			for _, fd := range home.Functions {
				gr := rows[home.Site][fd.Name]
				short := owed(gr) - gr.GrantedCPU
				for _, peer := range present {
					if p, ok := rows[peer.Site][fd.Name]; ok && peer.Site != home.Site {
						short -= max(0, p.GrantedCPU-owed(p))
					}
				}
				if short > 0 {
					out = append(out, g.ID)
					return
				}
			}
		}
	}
	walk(h.Root)
	return out
}

// TestWarmEpochWorkScalesWithChurn counts what a warm epoch does on the
// control_churn-shaped federation. With k sites changing desires, exactly
// k reports are validated and no deserved cascade runs — deserved quotas
// depend on no demand — while a capacity change, SetHierarchy and a
// failed epoch each cost exactly one cascade on the next epoch. Reclaim snapshots its victims in exactly the metros with a
// starved claim that survives netting; an unchanged epoch returns the last
// result and runs nothing. Every epoch matches the one-shot allocation.
func TestWarmEpochWorkScalesWithChurn(t *testing.T) {
	h, sites := churnFederation()
	a := NewAllocator()
	if err := a.SetHierarchy(h, true); err != nil {
		t.Fatal(err)
	}
	var snapshots, metroEpochs int
	run := func(what string, validated, cascades int) {
		t.Helper()
		steady := validated == 0
		got, err := a.Allocate(sites, true)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := allocateHierarchical(h, sites, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffHierResults(want, got); d != "" {
			t.Fatalf("%s: %s", what, d)
		}
		if a.validated != validated {
			t.Errorf("%s: %d reports validated, want %d", what, a.validated, validated)
		}
		if a.cascades != cascades {
			t.Errorf("%s: %d deserved cascades, want %d", what, a.cascades, cascades)
		}
		pre, err := allocateHierarchical(h, sites, true, false)
		if err != nil {
			t.Fatal(err)
		}
		var starved []string
		if !steady {
			starved = starvedMetros(h, sites, pre)
			metroEpochs += 10
		}
		if !slices.Equal(a.snapshotted, starved) {
			t.Errorf("%s: reclaim snapshotted %v, want %v", what, a.snapshotted, starved)
		}
		snapshots += len(a.snapshotted)
	}
	run("cold epoch", len(sites), 1)
	epoch := 0
	for _, k := range []int{0, 1, 5, 20} {
		for range 5 {
			epoch++
			for d := 0; d < k; d++ {
				s := &sites[(epoch*k+d)%len(sites)]
				s.Functions[epoch%len(s.Functions)].DesiredCPU ^= 256
			}
			run(fmt.Sprintf("k=%d epoch %d", k, epoch), k, 0)
		}
	}
	sites[7].CapacityCPU += 1000
	run("capacity change", 1, 1)
	sites[12].Functions[0].DesiredCPU += 250
	run("demand after the capacity change", 1, 0)
	if err := a.SetHierarchy(h, true); err != nil {
		t.Fatal(err)
	}
	run("after SetHierarchy", len(sites), 1)
	sites[30].Functions[2].DesiredCPU = -1
	if _, err := a.Allocate(sites, true); err == nil {
		t.Fatal("negative desire accepted")
	}
	sites[30].Functions[2].DesiredCPU = 500
	run("after a failed epoch", 1, 1)
	t.Logf("reclaim snapshotted %d of %d metro-epochs", snapshots, metroEpochs)
	if snapshots == 0 || snapshots >= metroEpochs/2 {
		t.Errorf("test premise broken: %d snapshots in %d metro-epochs", snapshots, metroEpochs)
	}

	// A starved claim that netting cancels takes no snapshot: tiny is owed
	// 1000 mC of f but holds 100, and the metro spread already granted the
	// other 900 to f at big, beyond big's own deserved-capped desire of 0.
	netted := []SiteDemand{
		{Site: "tiny", CapacityCPU: 100, Functions: []FunctionDemand{{Name: "f", Weight: 1, DesiredCPU: 1000}}},
		{Site: "big", CapacityCPU: 1900, Functions: []FunctionDemand{{Name: "f", Weight: 1, DesiredCPU: 0}}},
	}
	m := &Hierarchy{Root: &Group{ID: "m", Sites: []string{"tiny", "big"}}}
	b := NewAllocator()
	if err := b.SetHierarchy(m, true); err != nil {
		t.Fatal(err)
	}
	res, err := b.Allocate(netted, true)
	if err != nil {
		t.Fatal(err)
	}
	if g := grantOf(t, res, "tiny", "f"); g.GrantedCPU >= min(g.DeservedCPU, g.DesiredCPU) {
		t.Fatalf("test premise broken: f at tiny is not starved: %+v", g)
	}
	if g := grantOf(t, res, "big", "f"); g.GrantedCPU != 900 {
		t.Fatalf("test premise broken: spread granted f %d mC at big, want 900", g.GrantedCPU)
	}
	if len(b.snapshotted) != 0 || len(res.Reclaims) != 0 {
		t.Errorf("netted-out claim: snapshotted %v, reclaims %v; want none", b.snapshotted, res.Reclaims)
	}
}

// TestAllocatorInvalidationTable walks a warm Allocator, flat and on the
// control_churn-shaped hierarchy with reclaim, through one input class per
// row and pins the work the next epoch does: site subtrees pass 1
// re-divides, reports validated, deserved cascades run and metros whose
// reclaim victims are snapshotted. Every row's result must equal a fresh
// Allocator's on the same input.
func TestAllocatorInvalidationTable(t *testing.T) {
	type work struct{ redivided, validated, cascades, snapshotted int }
	const hot = 3 // a site of region 0's hot metro, so its changes reach reclaim
	var removed SiteDemand
	rows := []struct {
		name      string
		capped    bool
		change    func(t *testing.T, a *Allocator, h *Hierarchy, sites []SiteDemand) []SiteDemand
		flat, hie work
	}{
		{"unchanged", true, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			return s
		}, work{0, 0, 0, 0}, work{0, 0, 0, 0}},
		{"one site's demand", true, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			s[hot].Functions[2].DesiredCPU += 500
			return s
		}, work{1, 1, 0, 0}, work{1, 1, 0, 2}},
		{"capacity", true, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			s[hot].CapacityCPU += 1000
			return s
		}, work{1, 1, 0, 0}, work{1, 1, 1, 2}},
		{"function added", true, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			fns := s[hot].Functions
			s[hot].Functions = append(fns[:len(fns):len(fns)], FunctionDemand{Name: "f99", User: "u0", UserWeight: 1, Weight: 2, DesiredCPU: 750})
			return s
		}, work{1, 1, 0, 0}, work{1, 1, 1, 2}},
		{"function removed", true, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			s[hot].Functions = s[hot].Functions[:len(s[hot].Functions)-1]
			return s
		}, work{1, 1, 0, 0}, work{1, 1, 1, 2}},
		{"site reorder", true, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			s[10], s[60] = s[60], s[10]
			return s
		}, work{0, 100, 0, 0}, work{0, 100, 1, 2}},
		{"site removed", true, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			removed = s[55]
			return slices.Delete(slices.Clone(s), 55, 56)
		}, work{0, 99, 0, 0}, work{0, 99, 1, 2}},
		{"site added", true, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			return slices.Insert(slices.Clone(s), 55, removed)
		}, work{1, 100, 0, 0}, work{1, 100, 1, 2}},
		{"SetHierarchy with the same tree", true, func(t *testing.T, a *Allocator, h *Hierarchy, s []SiteDemand) []SiteDemand {
			if err := a.SetHierarchy(h, true); err != nil {
				t.Fatal(err)
			}
			return s
		}, work{0, 100, 0, 0}, work{0, 100, 1, 2}},
		{"failed epoch, then recovery", true, func(t *testing.T, a *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			d := s[30].Functions[2].DesiredCPU
			s[30].Functions[2].DesiredCPU = -1
			if _, err := a.Allocate(s, true); err == nil {
				t.Fatal("negative desire accepted")
			}
			s[30].Functions[2].DesiredCPU = d
			return s
		}, work{100, 0, 0, 0}, work{100, 0, 1, 2}},
		{"capped flip", false, func(_ *testing.T, _ *Allocator, _ *Hierarchy, s []SiteDemand) []SiteDemand {
			return s
		}, work{100, 0, 0, 0}, work{100, 0, 1, 2}},
	}
	h, base := churnFederation()
	for _, tree := range []*Hierarchy{nil, h} {
		sites := cloneSites(base)
		a := NewAllocator()
		if err := a.SetHierarchy(tree, true); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Allocate(sites, true); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			name := fmt.Sprintf("hierarchy=%v %s", tree != nil, r.name)
			sites = r.change(t, a, tree, sites)
			res, err := a.Allocate(sites, r.capped)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := work{a.redivided, a.validated, a.cascades, len(a.snapshotted)}
			want := r.flat
			if tree != nil {
				want = r.hie
			}
			if got != want {
				t.Errorf("%s: work %+v, want %+v", name, got, want)
			}
			fresh, err := allocateHierarchical(tree, cloneSites(sites), r.capped, true)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffHierResults(fresh, res); d != "" {
				t.Errorf("%s: %s", name, d)
			}
		}
	}
}

// TestWarmValidationMatchesOneShot feeds a warm Allocator, flat and
// hierarchical, every rejection class validate knows, with the site order
// unchanged (only the broken sites are validated) and changed (every site
// is). The error text must be the one-shot allocation's, and the next
// valid epoch must equal a fresh Allocator's.
func TestWarmValidationMatchesOneShot(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	classes := []struct {
		name   string
		rename bool // changes a site name, so the order always changes
		breaks func(s []SiteDemand)
	}{
		{"empty site name", true, func(s []SiteDemand) { s[len(s)-1].Site = "" }},
		{"duplicate site name", true, func(s []SiteDemand) { s[len(s)-1].Site = s[0].Site }},
		{"negative capacity", false, func(s []SiteDemand) { s[len(s)-1].CapacityCPU = -1 }},
		{"empty function name", false, func(s []SiteDemand) { s[len(s)-1].Functions[0].Name = "" }},
		{"duplicate function name", false, func(s []SiteDemand) {
			fns := s[len(s)-1].Functions
			s[len(s)-1].Functions = append(fns, fns[0])
		}},
		{"zero function weight", false, func(s []SiteDemand) { s[len(s)-1].Functions[0].Weight = 0 }},
		{"negative function weight", false, func(s []SiteDemand) { s[len(s)-1].Functions[0].Weight = -2 }},
		{"NaN function weight", false, func(s []SiteDemand) { s[len(s)-1].Functions[0].Weight = nan }},
		{"infinite function weight", false, func(s []SiteDemand) { s[len(s)-1].Functions[0].Weight = inf }},
		{"NaN user weight", false, func(s []SiteDemand) { s[len(s)-1].Functions[0].UserWeight = nan }},
		{"infinite user weight", false, func(s []SiteDemand) { s[len(s)-1].Functions[0].UserWeight = -inf }},
		{"negative desire", false, func(s []SiteDemand) { s[len(s)-1].Functions[0].DesiredCPU = -1 }},
		{"two broken sites", false, func(s []SiteDemand) {
			s[1].Functions[0].DesiredCPU = -1
			s[len(s)-1].CapacityCPU = -1
		}},
	}
	for _, h := range []*Hierarchy{nil, fuzzHierarchy(xrand.New(3))} {
		for _, tc := range classes {
			for _, reorder := range []bool{false, true} {
				if tc.rename && !reorder {
					continue
				}
				name := fmt.Sprintf("hierarchy=%v %s reorder=%v", h != nil, tc.name, reorder)
				rng := xrand.New(11)
				sites := fuzzFederation(rng)
				a := NewAllocator()
				if err := a.SetHierarchy(h, true); err != nil {
					t.Fatal(err)
				}
				for range 3 {
					s := &sites[rng.Intn(len(sites))]
					s.Functions[rng.Intn(len(s.Functions))].DesiredCPU = int64(rng.Intn(7)) * 500
					if _, err := a.Allocate(sites, true); err != nil {
						t.Fatalf("%s: warm-up: %v", name, err)
					}
				}
				bad := cloneSites(sites)
				if reorder {
					bad[0], bad[1] = bad[1], bad[0]
				}
				tc.breaks(bad)
				_, err := a.Allocate(cloneSites(bad), true)
				_, want := allocateHierarchical(h, cloneSites(bad), true, true)
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Errorf("%s: warm error %v, one-shot %v", name, err, want)
				}
				got, err := a.Allocate(sites, true)
				if err != nil {
					t.Fatalf("%s: recovery: %v", name, err)
				}
				fresh, err := allocateHierarchical(h, cloneSites(sites), true, true)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffHierResults(fresh, got); d != "" {
					t.Errorf("%s: recovery epoch: %s", name, d)
				}
			}
		}
	}
}
