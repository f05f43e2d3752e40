package allocation

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func grantOf(t *testing.T, res *Result, site, fn string) Grant {
	t.Helper()
	for _, g := range res.Grants {
		if g.Site == site && g.Function == fn {
			return g
		}
	}
	t.Fatalf("no grant for %s/%s", site, fn)
	return Grant{}
}

// A federation with no pressure anywhere grants every desire, drifts
// nothing, and strands nothing.
func TestAllocateNoPressure(t *testing.T) {
	sites := []SiteDemand{
		{Site: "a", CapacityCPU: 4000, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 2000},
			{Name: "g", Weight: 1, DesiredCPU: 1000},
		}},
		{Site: "b", CapacityCPU: 4000, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 500},
		}},
	}
	res, err := Allocate(sites, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Grants {
		if g.GrantedCPU != g.DesiredCPU {
			t.Errorf("%s/%s granted %d want desire %d", g.Site, g.Function, g.GrantedCPU, g.DesiredCPU)
		}
	}
	if res.DriftCPU != 0 {
		t.Errorf("drift %d want 0", res.DriftCPU)
	}
	if res.StrandedCPU != 0 {
		t.Errorf("stranded %d want 0", res.StrandedCPU)
	}
}

// A site overloaded beyond its physical capacity has its enforceable
// grants clamped to capacity, and the displaced entitlement is spread to a
// peer that serves the same function and has idle capacity — the peer's
// grant exceeds its own desire (pre-provisioning for offloads).
func TestAllocateSpreadsDisplacedDemand(t *testing.T) {
	sites := []SiteDemand{
		{Site: "hot", CapacityCPU: 4000, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 7000},
		}},
		{Site: "cold", CapacityCPU: 4000, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 1000},
		}},
	}
	res, err := Allocate(sites, true)
	if err != nil {
		t.Fatal(err)
	}
	hot := grantOf(t, res, "hot", "f")
	if hot.GrantedCPU != 4000 {
		t.Errorf("hot granted %d want clamp at capacity 4000", hot.GrantedCPU)
	}
	if hot.EntitledCPU <= 4000 {
		t.Errorf("hot entitled %d want > capacity (federation owes it elsewhere)", hot.EntitledCPU)
	}
	cold := grantOf(t, res, "cold", "f")
	if cold.GrantedCPU <= cold.DesiredCPU {
		t.Errorf("cold granted %d want > its own desire %d (spread)", cold.GrantedCPU, cold.DesiredCPU)
	}
	// Total demand 8000 = total capacity 8000: everything should be
	// granted somewhere, nothing stranded.
	if res.StrandedCPU != 0 {
		t.Errorf("stranded %d want 0", res.StrandedCPU)
	}
	if res.DriftCPU == 0 {
		t.Error("drift 0: global allocation should differ from local here")
	}
	var grantedF int64
	for _, g := range res.Grants {
		grantedF += g.GrantedCPU
	}
	if grantedF != 8000 {
		t.Errorf("total granted %d want 8000", grantedF)
	}
}

// Capacity is stranded when the displaced function is not deployed at the
// idle site.
func TestAllocateStrandedWhenFunctionAbsent(t *testing.T) {
	sites := []SiteDemand{
		{Site: "hot", CapacityCPU: 2000, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 5000},
		}},
		{Site: "other", CapacityCPU: 4000, Functions: []FunctionDemand{
			{Name: "g", Weight: 1, DesiredCPU: 1000},
		}},
	}
	res, err := Allocate(sites, true)
	if err != nil {
		t.Fatal(err)
	}
	// f misses 3000, "other" has 3000 idle, but does not serve f.
	if res.StrandedCPU != 3000 {
		t.Errorf("stranded %d want 3000", res.StrandedCPU)
	}
	if g := grantOf(t, res, "other", "g"); g.GrantedCPU != 1000 {
		t.Errorf("other/g granted %d want 1000", g.GrantedCPU)
	}
}

// Zero-demand sites donate their whole capacity via spreading.
func TestAllocateZeroDemandSite(t *testing.T) {
	sites := []SiteDemand{
		{Site: "hot", CapacityCPU: 2000, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 6000},
		}},
		{Site: "idle", CapacityCPU: 4000, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: 0},
		}},
		{Site: "empty", CapacityCPU: 1000}, // registers no functions at all
	}
	res, err := Allocate(sites, true)
	if err != nil {
		t.Fatal(err)
	}
	idle := grantOf(t, res, "idle", "f")
	if idle.GrantedCPU != 4000 {
		t.Errorf("idle granted %d want its full 4000 via spread", idle.GrantedCPU)
	}
	// 6000 desired ≤ 2000 + 4000 granted; the functionless site's 1000 is
	// idle but no demand remains unmet by a deployable function.
	if res.StrandedCPU != 0 {
		t.Errorf("stranded %d want 0", res.StrandedCPU)
	}
}

// User namespaces arbitrate inside each site exactly as the §5 two-level
// tree does.
func TestAllocateUserHierarchy(t *testing.T) {
	sites := []SiteDemand{
		{Site: "a", CapacityCPU: 3000, Functions: []FunctionDemand{
			{Name: "f", User: "u1", UserWeight: 2, Weight: 1, DesiredCPU: 3000},
			{Name: "g", User: "u2", UserWeight: 1, Weight: 1, DesiredCPU: 3000},
		}},
	}
	res, err := Allocate(sites, true)
	if err != nil {
		t.Fatal(err)
	}
	f := grantOf(t, res, "a", "f").GrantedCPU
	g := grantOf(t, res, "a", "g").GrantedCPU
	if f != 2000 || g != 1000 {
		t.Errorf("grants f=%d g=%d want 2000/1000 (2:1 user weights)", f, g)
	}
}

// Two equal-demand functions of unequal weight overflow the same hot site
// and compete for one undersized spread host: the spread pass must divide
// the pool weight-proportionally (a second water-filling), not hand it to
// whichever function sorts first by name. The scenario pins the numbers:
// the hot site (1000 mC) grants 750/250 locally (3:1 weights), the spread
// host has 500 mC spare against 562+187 of overflow, and the third site's
// spare is unreachable (it does not serve either function).
func TestAllocateSpreadWeightProportional(t *testing.T) {
	sites := []SiteDemand{
		{Site: "hot", CapacityCPU: 1000, Functions: []FunctionDemand{
			{Name: "f-heavy", Weight: 3, DesiredCPU: 4000},
			{Name: "f-light", Weight: 1, DesiredCPU: 4000},
		}},
		{Site: "host", CapacityCPU: 500, Functions: []FunctionDemand{
			{Name: "f-heavy", Weight: 3, DesiredCPU: 0},
			{Name: "f-light", Weight: 1, DesiredCPU: 0},
		}},
		{Site: "other", CapacityCPU: 2000, Functions: []FunctionDemand{
			{Name: "f-other", Weight: 1, DesiredCPU: 2000},
		}},
	}
	res, err := Allocate(sites, true)
	if err != nil {
		t.Fatal(err)
	}
	heavy := grantOf(t, res, "host", "f-heavy").GrantedCPU
	light := grantOf(t, res, "host", "f-light").GrantedCPU
	if light == 0 {
		t.Fatal("f-light spread grant is 0: name-order arbitration starved the lighter function")
	}
	if heavy != 375 || light != 125 {
		t.Errorf("spread grants heavy=%d light=%d want 375/125 (3:1 water-filling over the 500 mC pool)",
			heavy, light)
	}
	if heavy+light != 500 {
		t.Errorf("spread used %d of the 500 mC host", heavy+light)
	}
}

func TestAllocateValidation(t *testing.T) {
	cases := []struct {
		name  string
		sites []SiteDemand
	}{
		{"no sites", nil},
		{"dup site", []SiteDemand{{Site: "a"}, {Site: "a"}}},
		{"negative capacity", []SiteDemand{{Site: "a", CapacityCPU: -1}}},
		{"dup function", []SiteDemand{{Site: "a", CapacityCPU: 1, Functions: []FunctionDemand{
			{Name: "f", Weight: 1}, {Name: "f", Weight: 1}}}}},
		{"bad weight", []SiteDemand{{Site: "a", CapacityCPU: 1, Functions: []FunctionDemand{
			{Name: "f", Weight: 0}}}}},
		{"negative desire", []SiteDemand{{Site: "a", CapacityCPU: 1, Functions: []FunctionDemand{
			{Name: "f", Weight: 1, DesiredCPU: -5}}}}},
	}
	for _, c := range cases {
		if _, err := Allocate(c.sites, true); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// TestAllocateRejectsNonFiniteWeights: a NaN or infinite function weight
// used to come out as a MinInt64 grant with a nil error, and a NaN or
// infinite user weight failed only deep inside the division, blaming a
// negative capacity. Each is now rejected up front, naming the weight.
func TestAllocateRejectsNonFiniteWeights(t *testing.T) {
	site := func(fw, uw float64) []SiteDemand {
		return []SiteDemand{
			{Site: "a", CapacityCPU: 1000, Functions: []FunctionDemand{
				{Name: "f", User: "u", UserWeight: uw, Weight: fw, DesiredCPU: 400},
				{Name: "g", Weight: 1, DesiredCPU: 900},
			}},
			{Site: "b", CapacityCPU: 1000, Functions: []FunctionDemand{{Name: "f", Weight: 1, DesiredCPU: 100}}},
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases := []struct {
			name, want string
			sites      []SiteDemand
		}{
			{"function weight", "weight", site(bad, 1)},
			{"user weight", "user weight", site(1, bad)},
		}
		for _, c := range cases {
			res, err := Allocate(c.sites, true)
			if err == nil {
				t.Errorf("%s %v: accepted, grants %+v", c.name, bad, res.Grants)
				continue
			}
			if !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "capacity") {
				t.Errorf("%s %v: error %q should name the %s", c.name, bad, err, c.want)
			}
		}
	}
}

// TestCrossSiteIDCollisionFails: site "a" serving function "b" has a leaf
// "site:a/b", which is also the ID of site "a/b". The fair-share tree must
// reject the collision — one-shot, and on every repeat of the same input
// to a warm Allocator, flat or under a two-metro hierarchy, because a
// failed epoch must not leave the ID check behind it. Once the colliding
// site leaves, the warm Allocator must answer like a fresh one: the
// failed epochs updated site "a" in place without committing its
// entitlement, while its grant stayed at its full capacity.
func TestCrossSiteIDCollisionFails(t *testing.T) {
	const want = `fairshare: duplicate node id "site:a/b"`
	siteA := func(c int64) SiteDemand {
		return SiteDemand{Site: "a", CapacityCPU: 1000, Functions: []FunctionDemand{
			{Name: "b", Weight: 1, DesiredCPU: 1500},
			{Name: "c", Weight: 1, DesiredCPU: c},
		}}
	}
	colliding := func() []SiteDemand {
		return []SiteDemand{
			siteA(300),
			{Site: "a/b", CapacityCPU: 1000, Functions: []FunctionDemand{{Name: "c", Weight: 1, DesiredCPU: 300}}},
		}
	}
	check := func(what string, err error) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", what, err, want)
		}
	}
	_, err := Allocate(colliding(), true)
	check("one-shot", err)

	twoMetros := &Hierarchy{Root: &Group{ID: "root", Children: []*Group{
		{ID: "m1", Sites: []string{"a"}},
		{ID: "m2", Sites: []string{"a/b"}},
	}}}
	for _, h := range []*Hierarchy{nil, twoMetros} {
		a := NewAllocator()
		if err := a.SetHierarchy(h, false); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Allocate([]SiteDemand{siteA(400)}, true); err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 3; epoch++ {
			_, err := a.Allocate(colliding(), true)
			check(fmt.Sprintf("hierarchy %v, epoch %d", h != nil, epoch), err)
		}
		alone := []SiteDemand{siteA(300)}
		got, err := a.Allocate(alone, true)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := allocateHierarchical(h, alone, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffHierResults(fresh, got); d != "" {
			t.Errorf("hierarchy %v, after the collision: %s", h != nil, d)
		}
	}
}
