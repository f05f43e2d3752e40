package fairshare

import (
	"testing"
	"testing/quick"

	"lass/internal/xrand"
)

func TestNoOverloadEveryoneGetsDesired(t *testing.T) {
	demands := []Demand{
		{ID: "a", Weight: 1, Desired: 300},
		{ID: "b", Weight: 2, Desired: 500},
	}
	allocs, err := Adjust(demands, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range allocs {
		if a.Adjusted != demands[i].Desired {
			t.Errorf("%s: adjusted %d want %d", a.ID, a.Adjusted, demands[i].Desired)
		}
		if a.Overloaded {
			t.Errorf("%s marked overloaded without pressure", a.ID)
		}
	}
}

func TestGuaranteedSharesEq7(t *testing.T) {
	demands := []Demand{
		{ID: "a", Weight: 1, Desired: 0},
		{ID: "b", Weight: 2, Desired: 0},
	}
	allocs, err := Adjust(demands, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if allocs[0].Guaranteed != 333 || allocs[1].Guaranteed != 666 {
		t.Errorf("shares a=%d b=%d want a=333 b=666", allocs[0].Guaranteed, allocs[1].Guaranteed)
	}
}

func TestLemma1AllOverloadedGetExactGuarantee(t *testing.T) {
	// Lemma 1: when every function is overloaded, each receives exactly
	// its guaranteed share.
	demands := []Demand{
		{ID: "a", Weight: 1, Desired: 900},
		{ID: "b", Weight: 1, Desired: 800},
		{ID: "c", Weight: 2, Desired: 2000},
	}
	allocs, err := Adjust(demands, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range allocs {
		if !a.Overloaded {
			t.Errorf("%s should be overloaded", a.ID)
		}
		if a.Adjusted != a.Guaranteed {
			t.Errorf("%s: adjusted %d != guaranteed %d", a.ID, a.Adjusted, a.Guaranteed)
		}
	}
}

func TestLemma2OverloadedGetAtLeastGuarantee(t *testing.T) {
	demands := []Demand{
		{ID: "small", Weight: 1, Desired: 50}, // well-behaved (guar = 333)
		{ID: "big1", Weight: 1, Desired: 600}, // overloaded
		{ID: "big2", Weight: 1, Desired: 900}, // overloaded
	}
	allocs, err := Adjust(demands, 1000)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Allocation{}
	for _, a := range allocs {
		byID[a.ID] = a
	}
	if byID["small"].Adjusted != 50 {
		t.Errorf("well-behaved got %d want 50", byID["small"].Adjusted)
	}
	for _, id := range []string{"big1", "big2"} {
		a := byID[id]
		if a.Adjusted < a.Guaranteed {
			t.Errorf("%s: adjusted %d < guaranteed %d", id, a.Adjusted, a.Guaranteed)
		}
	}
	// Remaining 950 split evenly: 475 each.
	if byID["big1"].Adjusted != 475 || byID["big2"].Adjusted != 475 {
		t.Errorf("split %d/%d want 475/475", byID["big1"].Adjusted, byID["big2"].Adjusted)
	}
}

func TestAdjustNeverExceedsCapacity(t *testing.T) {
	rng := xrand.New(99)
	f := func(n uint8, capRaw uint16) bool {
		k := int(n%6) + 1
		capacity := int64(capRaw%5000) + 100
		demands := make([]Demand, k)
		for i := range demands {
			demands[i] = Demand{
				ID:      string(rune('a' + i)),
				Weight:  float64(rng.Intn(5) + 1),
				Desired: int64(rng.Intn(3000)),
			}
		}
		allocs, err := Adjust(demands, capacity)
		if err != nil {
			return false
		}
		var sumDesired, sumAdjusted int64
		for i, a := range allocs {
			sumDesired += demands[i].Desired
			sumAdjusted += a.Adjusted
			if a.Adjusted < 0 {
				return false
			}
		}
		if sumDesired <= capacity {
			return sumAdjusted == sumDesired
		}
		return sumAdjusted <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickLemma2Property(t *testing.T) {
	rng := xrand.New(7)
	f := func(n uint8, capRaw uint16) bool {
		k := int(n%6) + 2
		capacity := int64(capRaw%5000) + 500
		demands := make([]Demand, k)
		for i := range demands {
			demands[i] = Demand{
				ID:      string(rune('a' + i)),
				Weight:  float64(rng.Intn(4) + 1),
				Desired: int64(rng.Intn(4000)),
			}
		}
		allocs, err := Adjust(demands, capacity)
		if err != nil {
			return false
		}
		var sumDesired int64
		for _, d := range demands {
			sumDesired += d.Desired
		}
		if sumDesired <= capacity {
			return true // no overload: lemma not in play
		}
		for _, a := range allocs {
			if a.Overloaded && a.Adjusted < a.Guaranteed {
				return false
			}
			if !a.Overloaded && a.Adjusted != a.Desired {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAdjustCappedNeverExceedsDesire(t *testing.T) {
	// One well-behaved function frees most of the cluster; Eq 8 would give
	// the barely-overloaded function more than it wants.
	demands := []Demand{
		{ID: "tiny", Weight: 1, Desired: 20},      // guar 333
		{ID: "justover", Weight: 1, Desired: 340}, // guar 333, overloaded
		{ID: "huge", Weight: 1, Desired: 5000},    // overloaded
	}
	capacity := int64(1000)
	raw, err := Adjust(demands, capacity)
	if err != nil {
		t.Fatal(err)
	}
	// Confirm the pathology exists in the faithful algorithm: Ĉ = 980,
	// justover's Eq 8 share is 490 > desired 340.
	for _, a := range raw {
		if a.ID == "justover" && a.Adjusted <= a.Desired {
			t.Fatalf("test premise broken: raw adjusted %d", a.Adjusted)
		}
	}
	capped, err := AdjustCapped(demands, capacity)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Allocation{}
	var total int64
	for _, a := range capped {
		byID[a.ID] = a
		total += a.Adjusted
		if a.Adjusted > a.Desired {
			t.Errorf("%s: capped alloc %d exceeds desire %d", a.ID, a.Adjusted, a.Desired)
		}
		if a.Overloaded && a.Adjusted < a.Guaranteed {
			t.Errorf("%s: capped alloc %d below guarantee %d", a.ID, a.Adjusted, a.Guaranteed)
		}
	}
	if total > capacity {
		t.Errorf("capped total %d exceeds capacity", total)
	}
	// The surplus (490-340=150) must flow to the unsatisfied function.
	if byID["huge"].Adjusted <= byID["justover"].Guaranteed {
		t.Errorf("surplus not redistributed: huge=%d", byID["huge"].Adjusted)
	}
	if byID["huge"].Adjusted != 490+150 {
		t.Errorf("huge got %d want 640", byID["huge"].Adjusted)
	}
}

func TestQuickAdjustCappedDominatesForUtilization(t *testing.T) {
	// Capped allocation never leaves more capacity unused than the
	// faithful algorithm when demand exceeds supply, and never allocates
	// above desire.
	rng := xrand.New(13)
	f := func(n uint8, capRaw uint16) bool {
		k := int(n%5) + 2
		capacity := int64(capRaw%4000) + 500
		demands := make([]Demand, k)
		for i := range demands {
			demands[i] = Demand{
				ID:      string(rune('a' + i)),
				Weight:  float64(rng.Intn(4) + 1),
				Desired: int64(rng.Intn(3000)),
			}
		}
		raw, err1 := Adjust(demands, capacity)
		capped, err2 := AdjustCapped(demands, capacity)
		if err1 != nil || err2 != nil {
			return false
		}
		var rawUseful, cappedUsed int64
		for i := range raw {
			u := raw[i].Adjusted
			if u > raw[i].Desired {
				u = raw[i].Desired // over-allocation is not useful capacity
			}
			rawUseful += u
			cappedUsed += capped[i].Adjusted
			if capped[i].Adjusted > capped[i].Desired {
				return false
			}
		}
		return cappedUsed >= rawUseful
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Adjust([]Demand{{ID: "a", Weight: 0, Desired: 1}}, 10); err == nil {
		t.Error("want error for zero weight")
	}
	if _, err := Adjust([]Demand{{ID: "a", Weight: 1, Desired: -1}}, 10); err == nil {
		t.Error("want error for negative desire")
	}
	if _, err := Adjust([]Demand{{ID: "a", Weight: 1}, {ID: "a", Weight: 1}}, 10); err == nil {
		t.Error("want error for duplicate ids")
	}
	if _, err := Adjust(nil, -1); err == nil {
		t.Error("want error for negative capacity")
	}
}

func TestAllocateTreeTwoLevels(t *testing.T) {
	// The paper's experiment (§6.7): two users, user2 weight twice user1.
	// Under full overload user1's functions share ~1/3 of the cluster and
	// user2's share ~2/3.
	root := &Node{ID: "cluster", Weight: 1, Children: []*Node{
		{ID: "user1", Weight: 1, Children: []*Node{
			{ID: "f1", Weight: 1, Desired: 4000},
			{ID: "f2", Weight: 1, Desired: 4000},
		}},
		{ID: "user2", Weight: 2, Children: []*Node{
			{ID: "f3", Weight: 1, Desired: 4000},
			{ID: "f4", Weight: 1, Desired: 4000},
		}},
	}}
	got, err := AllocateTree(root, 3000, false)
	if err != nil {
		t.Fatal(err)
	}
	u1 := got["f1"] + got["f2"]
	u2 := got["f3"] + got["f4"]
	if u1 < 900 || u1 > 1000 {
		t.Errorf("user1 total %d want ~1000", u1)
	}
	if u2 < 1900 || u2 > 2000 {
		t.Errorf("user2 total %d want ~2000", u2)
	}
}

func TestAllocateTreeLeafRespectsDesire(t *testing.T) {
	root := &Node{ID: "cluster", Weight: 1, Children: []*Node{
		{ID: "idle", Weight: 1, Desired: 10},
		{ID: "busy", Weight: 1, Desired: 900},
	}}
	got, err := AllocateTree(root, 1000, true)
	if err != nil {
		t.Fatal(err)
	}
	if got["idle"] != 10 {
		t.Errorf("idle leaf granted %d want 10", got["idle"])
	}
	if got["busy"] != 900 {
		t.Errorf("busy leaf granted %d want 900", got["busy"])
	}
}

func TestAllocateTreeThreeLevels(t *testing.T) {
	// Arbitrary-depth support (§5 "can be extended to ... arbitrary levels").
	root := &Node{ID: "root", Weight: 1, Children: []*Node{
		{ID: "org1", Weight: 1, Children: []*Node{
			{ID: "team1", Weight: 3, Children: []*Node{
				{ID: "g1", Weight: 1, Desired: 10000},
			}},
			{ID: "team2", Weight: 1, Children: []*Node{
				{ID: "g2", Weight: 1, Desired: 10000},
			}},
		}},
		{ID: "org2", Weight: 1, Children: []*Node{
			{ID: "g3", Weight: 1, Desired: 10000},
		}},
	}}
	got, err := AllocateTree(root, 4000, false)
	if err != nil {
		t.Fatal(err)
	}
	if got["g3"] != 2000 {
		t.Errorf("g3=%d want 2000", got["g3"])
	}
	if got["g1"] != 1500 || got["g2"] != 500 {
		t.Errorf("g1=%d g2=%d want 1500/500", got["g1"], got["g2"])
	}
}

func TestAllocateTreeErrors(t *testing.T) {
	if _, err := AllocateTree(nil, 100, false); err == nil {
		t.Error("want error for nil tree")
	}
	dup := &Node{ID: "r", Weight: 1, Children: []*Node{
		{ID: "x", Weight: 1, Desired: 1},
		{ID: "x", Weight: 1, Desired: 1},
	}}
	if _, err := AllocateTree(dup, 100, false); err == nil {
		t.Error("want error for duplicate child ids")
	}
	leafDup := &Node{ID: "r", Weight: 1, Children: []*Node{
		{ID: "a", Weight: 1, Children: []*Node{{ID: "x", Weight: 1, Desired: 1}}},
		{ID: "b", Weight: 1, Children: []*Node{{ID: "x", Weight: 1, Desired: 1}}},
	}}
	if _, err := AllocateTree(leafDup, 100, false); err == nil {
		t.Error("want error for duplicate leaf ids across subtrees")
	}
}

// TestAllocateTreeDeepValidation pins the upfront whole-tree validation:
// duplicate node IDs, negative weights, and negative leaf desires are
// rejected at any depth — including cases the per-level Adjust validation
// used to miss (internal-node duplicates across branches, a negative
// desire on a single-leaf root, a negative weight below the first level).
func TestAllocateTreeDeepValidation(t *testing.T) {
	internalDup := &Node{ID: "r", Weight: 1, Children: []*Node{
		{ID: "m", Weight: 1, Children: []*Node{{ID: "a", Weight: 1, Desired: 1}}},
		{ID: "n", Weight: 1, Children: []*Node{
			{ID: "m", Weight: 1, Children: []*Node{{ID: "b", Weight: 1, Desired: 1}}},
		}},
	}}
	if _, err := AllocateTree(internalDup, 100, true); err == nil {
		t.Error("want error for duplicate internal node ids across branches")
	}
	internalLeafDup := &Node{ID: "r", Weight: 1, Children: []*Node{
		{ID: "m", Weight: 1, Children: []*Node{{ID: "a", Weight: 1, Desired: 1}}},
		{ID: "b", Weight: 1, Children: []*Node{{ID: "m", Weight: 1, Desired: 1}}},
	}}
	if _, err := AllocateTree(internalLeafDup, 100, true); err == nil {
		t.Error("want error for a leaf reusing an internal node's id")
	}
	negLeaf := &Node{ID: "solo", Weight: 1, Desired: -5}
	if _, err := AllocateTree(negLeaf, 100, true); err == nil {
		t.Error("want error for negative desire on a single-leaf root")
	}
	negDeep := &Node{ID: "r", Weight: 1, Children: []*Node{
		{ID: "m", Weight: 1, Children: []*Node{
			{ID: "u", Weight: 2, Children: []*Node{{ID: "f", Weight: -1, Desired: 1}}},
		}},
	}}
	if _, err := AllocateTree(negDeep, 100, true); err == nil {
		t.Error("want error for negative weight three levels down")
	}
	// Errors surface before any division: the caller-owned map is left
	// untouched on failure.
	out := map[string]int64{"stale": 7}
	if err := AllocateTreeInto(negDeep, 100, true, out); err == nil {
		t.Error("want error from AllocateTreeInto")
	} else if out["stale"] != 7 {
		t.Error("failed validation must not clear the caller's map")
	}
	// Weight 0 stays legal on roots (the federation allocator mounts site
	// trees under a weight-0 synthetic root); zero-weight members of a
	// divided sibling group are still rejected by Adjust.
	zeroRoot := &Node{ID: "::root", Children: []*Node{{ID: "x", Weight: 1, Desired: 3}}}
	got, err := AllocateTree(zeroRoot, 100, true)
	if err != nil {
		t.Fatalf("weight-0 root must stay valid: %v", err)
	}
	if got["x"] != 3 {
		t.Errorf("x = %d, want 3", got["x"])
	}
	zeroChild := &Node{ID: "r", Weight: 1, Children: []*Node{
		{ID: "a", Weight: 0, Desired: 1},
		{ID: "b", Weight: 1, Desired: 1},
	}}
	if _, err := AllocateTree(zeroChild, 100, true); err == nil {
		t.Error("want error for zero-weight sibling (Adjust validation)")
	}
}

func TestQuickTreeConservation(t *testing.T) {
	// Total granted never exceeds capacity; leaves never exceed desires.
	rng := xrand.New(31)
	f := func(capRaw uint16, k uint8) bool {
		capacity := int64(capRaw%8000) + 100
		users := int(k%3) + 1
		root := &Node{ID: "root", Weight: 1}
		leafID := 0
		for u := 0; u < users; u++ {
			user := &Node{ID: string(rune('A' + u)), Weight: float64(rng.Intn(3) + 1)}
			for f := 0; f < rng.Intn(3)+1; f++ {
				leafID++
				user.Children = append(user.Children, &Node{
					ID:      string(rune('a' + leafID)),
					Weight:  float64(rng.Intn(3) + 1),
					Desired: int64(rng.Intn(4000)),
				})
			}
			root.Children = append(root.Children, user)
		}
		grants, err := AllocateTree(root, capacity, true)
		if err != nil {
			return false
		}
		var total int64
		for _, g := range grants {
			if g < 0 {
				return false
			}
			total += g
		}
		return total <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- site → user → function trees (the federation-wide allocator's shape) ---

// TestAllocateTreeSiteUserFunction exercises the three-level hierarchy the
// global allocator builds: federation root → site → user → function, with
// uneven site capacities expressed as uneven site weights and desires.
func TestAllocateTreeSiteUserFunction(t *testing.T) {
	root := &Node{ID: "fed", Children: []*Node{
		{ID: "site:a", Weight: 1, Children: []*Node{
			{ID: "site:a/user:u1", Weight: 1, Children: []*Node{
				{ID: "site:a/f", Weight: 1, Desired: 6000},
				{ID: "site:a/g", Weight: 3, Desired: 6000},
			}},
		}},
		{ID: "site:b", Weight: 1, Children: []*Node{
			{ID: "site:b/user:u1", Weight: 1, Children: []*Node{
				{ID: "site:b/f", Weight: 1, Desired: 2000},
			}},
		}},
	}}
	got, err := AllocateTree(root, 8000, true)
	if err != nil {
		t.Fatal(err)
	}
	// Root overload (14000 desired over 8000): site b is well behaved
	// (2000 <= guaranteed 4000) and keeps its desire; site a gets the
	// remaining 6000, split 1:3 between its functions.
	if got["site:b/f"] != 2000 {
		t.Errorf("site:b/f = %d want 2000", got["site:b/f"])
	}
	if a := got["site:a/f"] + got["site:a/g"]; a != 6000 {
		t.Errorf("site a total = %d want 6000", a)
	}
	if got["site:a/g"] <= got["site:a/f"] {
		t.Errorf("weights ignored inside site a: f=%d g=%d", got["site:a/f"], got["site:a/g"])
	}
}

// TestAllocateTreeZeroDemandSites: sites with zero desire (or no function
// children at all) receive nothing and poison nothing.
func TestAllocateTreeZeroDemandSites(t *testing.T) {
	root := &Node{ID: "fed", Children: []*Node{
		{ID: "site:busy", Weight: 1, Children: []*Node{
			{ID: "site:busy/f", Weight: 1, Desired: 3000},
		}},
		{ID: "site:idle", Weight: 1, Children: []*Node{
			{ID: "site:idle/f", Weight: 1, Desired: 0},
		}},
		{ID: "site:bare", Weight: 1}, // no functions registered: a zero-desire leaf
	}}
	got, err := AllocateTree(root, 2000, true)
	if err != nil {
		t.Fatal(err)
	}
	if got["site:idle/f"] != 0 {
		t.Errorf("idle site granted %d want 0", got["site:idle/f"])
	}
	if got["site:bare"] != 0 {
		t.Errorf("functionless site granted %d want 0", got["site:bare"])
	}
	if got["site:busy/f"] != 2000 {
		t.Errorf("busy site granted %d want the full 2000", got["site:busy/f"])
	}
}

// TestAllocateTreeWeightsSumAcrossSites: the same function deployed at two
// sites with equal site weights splits a federation-level overload evenly,
// and tripling one site's weight shifts the split accordingly — the
// "global weight governs aggregate capacity" property.
func TestAllocateTreeWeightsSumAcrossSites(t *testing.T) {
	build := func(wa float64) *Node {
		return &Node{ID: "fed", Children: []*Node{
			{ID: "site:a", Weight: wa, Children: []*Node{
				{ID: "site:a/f", Weight: 1, Desired: 8000},
			}},
			{ID: "site:b", Weight: 1, Children: []*Node{
				{ID: "site:b/f", Weight: 1, Desired: 8000},
			}},
		}}
	}
	even, err := AllocateTree(build(1), 8000, true)
	if err != nil {
		t.Fatal(err)
	}
	if even["site:a/f"] != 4000 || even["site:b/f"] != 4000 {
		t.Errorf("even weights: a=%d b=%d want 4000/4000", even["site:a/f"], even["site:b/f"])
	}
	skew, err := AllocateTree(build(3), 8000, true)
	if err != nil {
		t.Fatal(err)
	}
	if skew["site:a/f"] != 6000 || skew["site:b/f"] != 2000 {
		t.Errorf("3:1 weights: a=%d b=%d want 6000/2000", skew["site:a/f"], skew["site:b/f"])
	}
}

// TestAllocateTreeSingleSiteEqualsAdjustCapped pins the regression the
// refactor promises: a one-site tree allocates exactly what the flat
// AdjustCapped adjustment gives the same demands, so lifting the allocator
// into the tree changes nothing for a standalone cluster.
func TestAllocateTreeSingleSiteEqualsAdjustCapped(t *testing.T) {
	demands := []Demand{
		{ID: "f1", Weight: 1, Desired: 5000},
		{ID: "f2", Weight: 2, Desired: 3000},
		{ID: "f3", Weight: 1, Desired: 200},
		{ID: "f4", Weight: 4, Desired: 9000},
	}
	for _, capacity := range []int64{1000, 6000, 17000, 20000} {
		want, err := AdjustCapped(demands, capacity)
		if err != nil {
			t.Fatal(err)
		}
		site := &Node{ID: "site"}
		for _, d := range demands {
			site.Children = append(site.Children, &Node{ID: d.ID, Weight: d.Weight, Desired: d.Desired})
		}
		got, err := AllocateTree(site, capacity, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if got[w.ID] != w.Adjusted {
				t.Errorf("capacity %d: %s tree=%d AdjustCapped=%d",
					capacity, w.ID, got[w.ID], w.Adjusted)
			}
		}
	}
}
