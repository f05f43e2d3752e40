package allocation

import (
	"fmt"
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
	if err := validate(sites); err != nil {
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
		w := s.Weight
		if w == 0 {
			w = 1
		}
		root.Children = append(root.Children, subtree(s, "site:"+s.Site, w, nil))
	}
	entitled, err := fairshare.AllocateTree(root, res.TotalCapacityCPU, capped)
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
		g, err := fairshare.AllocateTree(subtree(s, id, 1, want), s.CapacityCPU, capped)
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
		local, err := fairshare.AllocateTree(subtree(s, id, 1, nil), s.CapacityCPU, capped)
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

// fuzzFederation generates a random valid federation: sites drawing
// functions from a shared pool (so the spread pass has cross-site hosts),
// occasional user namespaces, per-site weight disagreements, zero desires,
// and zero-capacity sites.
func fuzzFederation(rng *xrand.Rand) []SiteDemand {
	fnPool := []string{"auth", "encode", "infer", "ocr", "resize", "translate"}
	n := 2 + rng.Intn(9)
	sites := make([]SiteDemand, 0, n)
	for i := 0; i < n; i++ {
		s := SiteDemand{
			Site:        fmt.Sprintf("s%02d", i),
			Weight:      float64(rng.Intn(4)), // 0 means "default 1"
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
// shifts demand, sites appear/disappear/reorder, or the input is made
// invalid to exercise error parity and cache invalidation.
func mutate(rng *xrand.Rand, sites []SiteDemand) []SiteDemand {
	switch rng.Intn(10) {
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
