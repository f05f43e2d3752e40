package allocation

import (
	"fmt"
	"testing"

	"lass/internal/xrand"
)

func TestHierarchyValidate(t *testing.T) {
	cases := []struct {
		name string
		h    *Hierarchy
	}{
		{"nil root", &Hierarchy{}},
		{"empty group", &Hierarchy{Root: &Group{ID: "r"}}},
		{"both children and sites", &Hierarchy{Root: &Group{ID: "r",
			Children: []*Group{{ID: "m", Sites: []string{"a"}}}, Sites: []string{"b"}}}},
		{"duplicate group id", &Hierarchy{Root: &Group{ID: "r", Children: []*Group{
			{ID: "m", Sites: []string{"a"}},
			{ID: "m", Sites: []string{"b"}},
		}}}},
		{"duplicate site assignment", &Hierarchy{Root: &Group{ID: "r", Children: []*Group{
			{ID: "m1", Sites: []string{"a"}},
			{ID: "m2", Sites: []string{"a"}},
		}}}},
		{"negative weight deep", &Hierarchy{Root: &Group{ID: "r", Children: []*Group{
			{ID: "g", Children: []*Group{{ID: "m", Weight: -1, Sites: []string{"a"}}}},
		}}}},
	}
	for _, tc := range cases {
		if err := tc.h.Validate(); err == nil {
			t.Errorf("%s: want validation error", tc.name)
		}
	}
	ok := &Hierarchy{Root: &Group{ID: "r", Children: []*Group{
		{ID: "west", Children: []*Group{
			{ID: "sea", Sites: []string{"a", "b"}},
			{ID: "pdx", Sites: []string{"c"}},
		}},
		{ID: "east", Sites: []string{"d"}},
	}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	lv := ok.Levels()
	want := map[string]Level{
		"a": {Metro: 0, Region: 0}, "b": {Metro: 0, Region: 0},
		"c": {Metro: 1, Region: 0}, "d": {Metro: 2, Region: 1},
	}
	for site, w := range want {
		if lv[site] != w {
			t.Errorf("Levels()[%q] = %+v, want %+v", site, lv[site], w)
		}
	}
	if err := ok.Covers([]string{"a", "d"}); err != nil {
		t.Errorf("Covers subset: %v", err)
	}
	if err := ok.Covers([]string{"a", "zz"}); err == nil {
		t.Error("Covers must reject an unassigned site")
	}
}

// depth1 builds the degenerate hierarchy — one leaf group over every site
// name the fuzz can generate — which must reproduce the flat allocator
// bit for bit on everything the flat allocator computes.
func depth1() *Hierarchy {
	g := &Group{ID: "all"}
	for i := 0; i < 12; i++ {
		g.Sites = append(g.Sites, fmt.Sprintf("s%02d", i))
	}
	return &Hierarchy{Root: g}
}

// diffFlatFields compares the fields the flat allocator produces; the
// hierarchy additionally fills DeservedCPU/BorrowedCPU, which flat mode
// leaves zero, so the comparison masks them.
func diffFlatFields(want, got *Result) string {
	if want.TotalCapacityCPU != got.TotalCapacityCPU ||
		want.TotalDesiredCPU != got.TotalDesiredCPU ||
		want.StrandedCPU != got.StrandedCPU ||
		want.DriftCPU != got.DriftCPU {
		return fmt.Sprintf("summary: want %+v got %+v",
			[4]int64{want.TotalCapacityCPU, want.TotalDesiredCPU, want.StrandedCPU, want.DriftCPU},
			[4]int64{got.TotalCapacityCPU, got.TotalDesiredCPU, got.StrandedCPU, got.DriftCPU})
	}
	if len(want.Grants) != len(got.Grants) {
		return fmt.Sprintf("grant count: want %d got %d", len(want.Grants), len(got.Grants))
	}
	for i := range want.Grants {
		w, g := want.Grants[i], got.Grants[i]
		if w.Site != g.Site || w.Function != g.Function || w.DesiredCPU != g.DesiredCPU ||
			w.EntitledCPU != g.EntitledCPU || w.GrantedCPU != g.GrantedCPU {
			return fmt.Sprintf("grant %d: want %+v got %+v", i, w, g)
		}
	}
	return ""
}

// TestDepth1HierarchyMatchesFlatFuzz is the PR's differential guard: a
// depth-1 hierarchy (one leaf group over every site, reclaim off) mounts
// the identical pass-1 tree and runs a single spread scope, so its output
// must match the flat incremental allocator — which the flat fuzz in turn
// pins to the frozen one-shot reference — on every flat field, across
// randomized epoch sequences, including error parity.
func TestDepth1HierarchyMatchesFlatFuzz(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := xrand.New(uint64(seed))
		flat := NewAllocator()
		hier := NewAllocator()
		if err := hier.SetHierarchy(depth1(), false); err != nil {
			t.Fatal(err)
		}
		sites := fuzzFederation(rng)
		for epoch := 0; epoch < 40; epoch++ {
			capped := rng.Intn(4) != 0
			fres, ferr := flat.Allocate(sites, capped)
			hres, herr := hier.Allocate(cloneSites(sites), capped)
			if (ferr == nil) != (herr == nil) {
				t.Fatalf("seed %d epoch %d: error divergence flat=%v hier=%v", seed, epoch, ferr, herr)
			}
			if ferr != nil {
				if ferr.Error() != herr.Error() {
					t.Fatalf("seed %d epoch %d: error text flat=%q hier=%q", seed, epoch, ferr, herr)
				}
			} else {
				if d := diffFlatFields(fres, hres); d != "" {
					t.Fatalf("seed %d epoch %d: %s", seed, epoch, d)
				}
				if len(hres.Reclaims) != 0 || hres.ReclaimedCPU != 0 {
					t.Fatalf("seed %d epoch %d: reclaim-off epoch recorded reclaims", seed, epoch)
				}
				for _, g := range hres.Grants {
					if g.DeservedCPU < 0 {
						t.Fatalf("seed %d epoch %d: negative deserved %+v", seed, epoch, g)
					}
					wantB := g.GrantedCPU - g.DeservedCPU
					if wantB < 0 {
						wantB = 0
					}
					if g.BorrowedCPU != wantB {
						t.Fatalf("seed %d epoch %d: borrowed %+v", seed, epoch, g)
					}
				}
			}
			sites = mutate(rng, sites)
		}
	}
}

// hierReclaimSites is the canonical starvation scenario: site tiny's
// deserved share dwarfs its physical capacity, peer big is saturated with
// over-quota grants for bulk, and the idle site's spare cannot host f —
// so the spread pass strands f's displaced share and only reclaim (which
// revokes granted, not idle, capacity) can recover it.
func hierReclaimSites() []SiteDemand {
	return []SiteDemand{
		{Site: "tiny", Weight: 1, CapacityCPU: 100, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 1000},
		}},
		{Site: "big", Weight: 1, CapacityCPU: 1000, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 0},
			{Name: "bulk", Weight: 1, DesiredCPU: 2000},
		}},
		{Site: "idle", Weight: 1, CapacityCPU: 1000, Functions: []FunctionDemand{
			{Name: "other", Weight: 1, DesiredCPU: 100},
		}},
	}
}

func hierOneMetro() *Hierarchy {
	return &Hierarchy{Root: &Group{ID: "metro", Sites: []string{"tiny", "big", "idle"}}}
}

func TestHierarchyReclaimMovesBorrowed(t *testing.T) {
	sites := hierReclaimSites()
	borrow, err := AllocateHierarchical(hierOneMetro(), cloneSites(sites), true, false)
	if err != nil {
		t.Fatal(err)
	}
	// Borrow-only: f's displaced share is stranded (idle doesn't serve f,
	// big has no spare) and bulk holds big's capacity above its deserved.
	if g := grantOf(t, borrow, "big", "bulk"); g.BorrowedCPU == 0 {
		t.Fatalf("bulk at big should be over quota, got %+v", g)
	}
	borrowF := grantOf(t, borrow, "tiny", "f").GrantedCPU + grantOf(t, borrow, "big", "f").GrantedCPU

	reclaim, err := AllocateHierarchical(hierOneMetro(), cloneSites(sites), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reclaim.Reclaims) == 0 || reclaim.ReclaimedCPU == 0 {
		t.Fatalf("want reclaims, got %+v", reclaim.Reclaims)
	}
	r := reclaim.Reclaims[0]
	if r.Group != "metro" || r.Site != "big" || r.HomeSite != "tiny" || r.From != "bulk" || r.To != "f" {
		t.Fatalf("unexpected reclaim directive %+v", r)
	}
	reclaimF := grantOf(t, reclaim, "tiny", "f").GrantedCPU + grantOf(t, reclaim, "big", "f").GrantedCPU
	if reclaimF <= borrowF {
		t.Fatalf("reclaim must strictly raise f's granted capacity: borrow-only %d, reclaim %d", borrowF, reclaimF)
	}
	// The starved function never ends above its deserved-capped desire,
	// and the transfer is zero-sum per site.
	deservedF := grantOf(t, reclaim, "tiny", "f").DeservedCPU
	if reclaimF > deservedF {
		t.Fatalf("f granted %d across the metro, above its home deserved %d", reclaimF, deservedF)
	}
	for _, s := range sites {
		var sum int64
		for _, g := range reclaim.Grants {
			if g.Site == s.Site {
				sum += g.GrantedCPU
			}
		}
		if sum > s.CapacityCPU {
			t.Fatalf("site %s granted %d above capacity %d after reclaim", s.Site, sum, s.CapacityCPU)
		}
	}
	// Running the same epoch again through the incremental fast path must
	// return the identical reclaim result.
	a := NewAllocator()
	if err := a.SetHierarchy(hierOneMetro(), true); err != nil {
		t.Fatal(err)
	}
	first, err := a.Allocate(cloneSites(sites), true)
	if err != nil {
		t.Fatal(err)
	}
	n := len(first.Reclaims)
	again, err := a.Allocate(cloneSites(sites), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Reclaims) != n {
		t.Fatalf("fast-path epoch changed reclaims: %d → %d", n, len(again.Reclaims))
	}
}

// fuzzHierarchy partitions the fuzz site-name space into 1–3 metros under
// 1–2 regions.
func fuzzHierarchy(rng *xrand.Rand) *Hierarchy {
	metros := 1 + rng.Intn(3)
	groups := make([]*Group, metros)
	for m := range groups {
		groups[m] = &Group{ID: fmt.Sprintf("m%d", m), Weight: float64(1 + rng.Intn(3))}
	}
	for i := 0; i < 12; i++ {
		m := rng.Intn(metros)
		groups[m].Sites = append(groups[m].Sites, fmt.Sprintf("s%02d", i))
	}
	if metros == 1 {
		return &Hierarchy{Root: groups[0]}
	}
	if rng.Intn(2) == 0 {
		return &Hierarchy{Root: &Group{ID: "root", Children: groups}}
	}
	return &Hierarchy{Root: &Group{ID: "root", Children: []*Group{
		{ID: "r0", Weight: 2, Children: groups[:1]},
		{ID: "r1", Weight: 1, Children: groups[1:]},
	}}}
}

// TestHierarchyFuzzInvariants drives random hierarchies over random epoch
// sequences and asserts the structural invariants reclaim must preserve:
// grants stay non-negative, per-site totals never exceed capacity,
// borrowed is exactly the over-deserved excess, and reclaim totals match
// the directives.
func TestHierarchyFuzzInvariants(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := xrand.New(0x41e ^ uint64(seed))
		h := fuzzHierarchy(rng)
		a := NewAllocator()
		if err := a.SetHierarchy(h, seed%2 == 0); err != nil {
			t.Fatal(err)
		}
		sites := fuzzFederation(rng)
		for epoch := 0; epoch < 30; epoch++ {
			if res, err := a.Allocate(sites, true); err == nil {
				checkHierInvariants(t, seed, epoch, sites, res)
			}
			sites = mutate(rng, sites)
		}
	}
}

func checkHierInvariants(t *testing.T, seed int64, epoch int, sites []SiteDemand, res *Result) {
	t.Helper()
	siteCap := map[string]int64{}
	siteSum := map[string]int64{}
	for _, s := range sites {
		siteCap[s.Site] = s.CapacityCPU
	}
	for _, g := range res.Grants {
		if g.GrantedCPU < 0 || g.DeservedCPU < 0 {
			t.Fatalf("seed %d epoch %d: negative grant %+v", seed, epoch, g)
		}
		wantB := g.GrantedCPU - g.DeservedCPU
		if wantB < 0 {
			wantB = 0
		}
		if g.BorrowedCPU != wantB {
			t.Fatalf("seed %d epoch %d: borrowed mismatch %+v", seed, epoch, g)
		}
		siteSum[g.Site] += g.GrantedCPU
	}
	for _, s := range sites {
		if siteSum[s.Site] > siteCap[s.Site] {
			t.Fatalf("seed %d epoch %d: site %s granted %d over capacity %d",
				seed, epoch, s.Site, siteSum[s.Site], siteCap[s.Site])
		}
	}
	var moved int64
	for _, r := range res.Reclaims {
		if r.CPU <= 0 || r.Site == r.HomeSite || r.From == r.To {
			t.Fatalf("seed %d epoch %d: malformed reclaim %+v", seed, epoch, r)
		}
		moved += r.CPU
	}
	if moved != res.ReclaimedCPU {
		t.Fatalf("seed %d epoch %d: ReclaimedCPU %d != sum of directives %d",
			seed, epoch, res.ReclaimedCPU, moved)
	}
}

func TestHierarchyUnassignedSiteRejected(t *testing.T) {
	a := NewAllocator()
	h := &Hierarchy{Root: &Group{ID: "m", Sites: []string{"a"}}}
	if err := a.SetHierarchy(h, false); err != nil {
		t.Fatal(err)
	}
	sites := []SiteDemand{
		{Site: "a", CapacityCPU: 100, Functions: []FunctionDemand{{Name: "f", Weight: 1, DesiredCPU: 10}}},
		{Site: "b", CapacityCPU: 100, Functions: []FunctionDemand{{Name: "f", Weight: 1, DesiredCPU: 10}}},
	}
	if _, err := a.Allocate(sites, true); err == nil {
		t.Fatal("want error for a site missing from the hierarchy")
	}
}

// TestHierarchySteadyStateZeroAllocs: the unchanged-input fast path is
// mode-independent, so hierarchical steady-state epochs stay allocation
// free exactly like flat ones.
func TestHierarchySteadyStateZeroAllocs(t *testing.T) {
	a := NewAllocator()
	if err := a.SetHierarchy(hierOneMetro(), true); err != nil {
		t.Fatal(err)
	}
	sites := hierReclaimSites()
	if _, err := a.Allocate(sites, true); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := a.Allocate(sites, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hierarchical steady-state epochs allocated %.1f times, want 0", allocs)
	}
}

// BenchmarkHierarchicalAllocator measures all-dirty hierarchical epochs
// (the expensive end: every pass runs, including metro-scoped spreading
// and reclaim) on a 32-site, 4-metro federation.
func BenchmarkHierarchicalAllocator(b *testing.B) {
	const nsites, nmetros = 32, 4
	h := &Hierarchy{Root: &Group{ID: "root"}}
	for m := 0; m < nmetros; m++ {
		h.Root.Children = append(h.Root.Children, &Group{ID: fmt.Sprintf("m%d", m)})
	}
	var sites []SiteDemand
	for i := 0; i < nsites; i++ {
		g := h.Root.Children[i%nmetros]
		name := fmt.Sprintf("s%02d", i)
		g.Sites = append(g.Sites, name)
		sites = append(sites, SiteDemand{
			Site: name, Weight: 1, CapacityCPU: int64(1000 + 100*(i%7)),
			Functions: []FunctionDemand{
				{Name: "auth", Weight: 2, DesiredCPU: int64(400 * (i % 5))},
				{Name: "encode", Weight: 1, DesiredCPU: int64(300 * ((i + 2) % 4))},
				{Name: "infer", Weight: 3, DesiredCPU: int64(250 * ((i + 1) % 6))},
			},
		})
	}
	a := NewAllocator()
	if err := a.SetHierarchy(h, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Shift one site's demand every iteration so no epoch takes the
		// unchanged fast path.
		sites[i%nsites].Functions[0].DesiredCPU += int64(1 + i%3)
		if _, err := a.Allocate(sites, true); err != nil {
			b.Fatal(err)
		}
	}
}
