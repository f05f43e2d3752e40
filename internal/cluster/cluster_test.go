package cluster

import (
	"errors"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lass/internal/xrand"
)

func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	cl, err := New(PaperCluster())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestPaperClusterShape(t *testing.T) {
	cl := newTestCluster(t)
	if len(cl.Nodes()) != 3 {
		t.Fatalf("nodes=%d", len(cl.Nodes()))
	}
	if cl.TotalCPU() != 12000 {
		t.Errorf("total CPU=%d want 12000", cl.TotalCPU())
	}
	if cl.TotalMem() != 3*16384 {
		t.Errorf("total mem=%d", cl.TotalMem())
	}
	if cl.UsedCPU() != 0 || cl.CPUUtilization() != 0 {
		t.Error("fresh cluster should be empty")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, CPUPerNode: 1, MemPerNode: 1}); err == nil {
		t.Error("want error for zero nodes")
	}
	if _, err := New(Config{Nodes: 1, CPUPerNode: 0, MemPerNode: 1}); err == nil {
		t.Error("want error for zero CPU")
	}
}

func TestPlaceLifecycle(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Place("f", 1000, 512)
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != Starting {
		t.Errorf("state=%v want starting", c.State())
	}
	if c.Servable() {
		t.Error("starting container should not be servable")
	}
	if cl.UsedCPU() != 1000 {
		t.Errorf("used=%d", cl.UsedCPU())
	}
	if err := cl.MarkRunning(c); err != nil {
		t.Fatal(err)
	}
	if !c.Servable() || c.State() != Running {
		t.Error("should be running")
	}
	if err := cl.MarkDraining(c); err != nil {
		t.Fatal(err)
	}
	if !c.Servable() {
		t.Error("draining container must keep serving")
	}
	if err := cl.Revive(c); err != nil {
		t.Fatal(err)
	}
	if c.State() != Running {
		t.Error("revive failed")
	}
	if err := cl.Terminate(c); err != nil {
		t.Fatal(err)
	}
	if cl.UsedCPU() != 0 || c.Alive() || c.Node() != nil {
		t.Error("terminate did not release resources")
	}
	if err := cl.Terminate(c); err == nil {
		t.Error("double terminate should error")
	}
}

func TestStateTransitionErrors(t *testing.T) {
	cl := newTestCluster(t)
	c, _ := cl.Place("f", 100, 64)
	if err := cl.MarkDraining(c); err == nil {
		t.Error("draining a starting container should error")
	}
	if err := cl.Revive(c); err == nil {
		t.Error("reviving a starting container should error")
	}
	cl.MarkRunning(c)
	if err := cl.MarkRunning(c); err == nil {
		t.Error("double MarkRunning should error")
	}
}

func TestPlaceRejectsOversized(t *testing.T) {
	cl := newTestCluster(t)
	if _, err := cl.Place("f", 5000, 64); err == nil {
		t.Error("want ErrNoCapacity for >node CPU")
	}
	var nc ErrNoCapacity
	_, err := cl.Place("f", 5000, 64)
	if !errors.As(err, &nc) {
		t.Errorf("want ErrNoCapacity, got %T", err)
	}
	if _, err := cl.Place("f", 0, 64); err == nil {
		t.Error("want error for zero CPU")
	}
}

func TestClusterFillsCompletely(t *testing.T) {
	cl := newTestCluster(t)
	// 12 x 1000mC fills the 12000mC cluster exactly.
	for i := 0; i < 12; i++ {
		if _, err := cl.Place("f", 1000, 512); err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
	}
	if cl.CPUUtilization() != 1 {
		t.Errorf("utilization=%v", cl.CPUUtilization())
	}
	if _, err := cl.Place("f", 1000, 512); err == nil {
		t.Error("13th container should not fit")
	}
	if cl.LiveContainers() != 12 {
		t.Errorf("live=%d", cl.LiveContainers())
	}
}

func TestPlacementPolicies(t *testing.T) {
	mk := func(policy PlacementPolicy) *Cluster {
		cl, err := New(Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 16384, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		// Pre-load node 0 with 3000, node 1 with 1000, node 2 empty: done
		// via first-fit-order placements of distinct sizes.
		a, _ := cl.Place("seed", 3000, 64) // worst-fit would pick node 0 anyway (all equal)
		_ = a
		return cl
	}

	// FirstFit: next 500mC goes to node 0 (still has 1000 free).
	cl := mk(FirstFit)
	c, err := cl.Place("f", 500, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Node().ID != 0 {
		t.Errorf("first-fit chose node %d want 0", c.Node().ID)
	}

	// BestFit: node 0 has 1000 free (smallest sufficient) -> node 0.
	cl = mk(BestFit)
	c, err = cl.Place("f", 500, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Node().ID != 0 {
		t.Errorf("best-fit chose node %d want 0", c.Node().ID)
	}

	// WorstFit: nodes 1/2 have 4000 free -> node 1 (first of the emptiest).
	cl = mk(WorstFit)
	c, err = cl.Place("f", 500, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Node().ID != 1 {
		t.Errorf("worst-fit chose node %d want 1", c.Node().ID)
	}
}

func TestFragmentationStandardContainerCannotFit(t *testing.T) {
	// Fig 8b's phenomenon: aggregate free CPU is sufficient but no single
	// node can host a standard container.
	cl, err := New(Config{Nodes: 3, CPUPerNode: 1000, MemPerNode: 4096, Policy: FirstFit})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.Place("filler", 700, 64); err != nil {
			t.Fatal(err)
		}
	}
	// 900mC free in aggregate, 300 per node.
	if free := cl.TotalCPU() - cl.UsedCPU(); free != 900 {
		t.Fatalf("free=%d", free)
	}
	if cl.LargestFreeCPU() != 300 {
		t.Errorf("largest free block=%d", cl.LargestFreeCPU())
	}
	if _, err := cl.Place("f", 500, 64); err == nil {
		t.Error("500mC container should not fit despite 900mC aggregate free")
	}
	// But a deflated 300mC container does fit — deflation defeats
	// fragmentation (Fig 8c).
	c, err := cl.PlaceDeflated("f", 500, 300, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.CPUFraction() != 0.6 {
		t.Errorf("fraction=%v", c.CPUFraction())
	}
	if !c.Deflated() {
		t.Error("should report deflated")
	}
}

func TestPlaceDeflatedValidation(t *testing.T) {
	cl := newTestCluster(t)
	if _, err := cl.PlaceDeflated("f", 1000, 0, 64); err == nil {
		t.Error("want error for zero current CPU")
	}
	if _, err := cl.PlaceDeflated("f", 1000, 1500, 64); err == nil {
		t.Error("want error for current > standard")
	}
}

func TestResizeDeflateInflate(t *testing.T) {
	cl := newTestCluster(t)
	c, _ := cl.Place("f", 2000, 1024)
	cl.MarkRunning(c)
	if err := cl.Resize(c, 1400); err != nil {
		t.Fatal(err)
	}
	if c.CPUCurrent != 1400 || !c.Deflated() {
		t.Errorf("current=%d", c.CPUCurrent)
	}
	if cl.UsedCPU() != 1400 {
		t.Errorf("used=%d want 1400 (deflation frees CPU)", cl.UsedCPU())
	}
	// Inflate back.
	if err := cl.Resize(c, 2000); err != nil {
		t.Fatal(err)
	}
	if c.Deflated() || cl.UsedCPU() != 2000 {
		t.Error("inflation failed")
	}
	// Beyond standard: rejected.
	if err := cl.Resize(c, 2500); err == nil {
		t.Error("want error inflating beyond standard size")
	}
	if err := cl.Resize(c, 0); err == nil {
		t.Error("want error for zero size")
	}
}

func TestResizeInflateBlockedByNodeCapacity(t *testing.T) {
	cl, err := New(Config{Nodes: 1, CPUPerNode: 2000, MemPerNode: 4096, Policy: FirstFit})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := cl.Place("a", 1500, 64)
	cl.Resize(a, 800) // deflate to free 700
	b, _ := cl.Place("b", 1200, 64)
	_ = b
	// Node now 800+1200=2000 used; inflating a back needs 700 free.
	if err := cl.Resize(a, 1500); err == nil {
		t.Error("inflation should fail without node headroom")
	}
}

func TestTerminateFreesCurrentNotStandard(t *testing.T) {
	cl := newTestCluster(t)
	c, _ := cl.Place("f", 2000, 1024)
	cl.Resize(c, 1000)
	used := cl.UsedCPU()
	cl.Terminate(c)
	if cl.UsedCPU() != used-1000 {
		t.Errorf("terminate freed %d want 1000", used-cl.UsedCPU())
	}
}

func TestContainersOfAndCPUOf(t *testing.T) {
	cl := newTestCluster(t)
	cl.Place("a", 1000, 512)
	cl.Place("b", 500, 256)
	c3, _ := cl.Place("a", 1000, 512)
	cl.Resize(c3, 600)
	if got := len(cl.ContainersOf("a")); got != 2 {
		t.Errorf("a has %d containers", got)
	}
	if got := cl.CPUOf("a"); got != 1600 {
		t.Errorf("a CPU=%d want 1600", got)
	}
	if got := cl.CPUOf("b"); got != 500 {
		t.Errorf("b CPU=%d", got)
	}
	if got := cl.CPUOf("none"); got != 0 {
		t.Errorf("unknown function CPU=%d", got)
	}
	fns := cl.Functions()
	if len(fns) != 2 || fns[0] != "a" || fns[1] != "b" {
		t.Errorf("functions=%v", fns)
	}
	cl.Terminate(c3)
	if got := cl.CPUOf("a"); got != 1000 {
		t.Errorf("after terminate a CPU=%d", got)
	}
}

func TestContainersOfIDOrder(t *testing.T) {
	cl := newTestCluster(t)
	for i := 0; i < 5; i++ {
		cl.Place("f", 100, 64)
	}
	cs := cl.ContainersOf("f")
	for i := 1; i < len(cs); i++ {
		if cs[i].ID <= cs[i-1].ID {
			t.Fatal("not in ID order")
		}
	}
}

// TestContainerIndexMatchesOracle runs seeded Place / PlaceDeflated /
// MarkRunning / MarkDraining / Revive / Resize / Terminate programs over
// three functions and, after every operation, compares every per-function
// read of the ID-ordered index with a map-plus-sort oracle.
func TestContainerIndexMatchesOracle(t *testing.T) {
	names := []string{"a", "b", "c", "none"}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		cl, err := New(Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 8192, Policy: PlacementPolicy(seed % 3)})
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[string]map[ContainerID]*Container{}
		var all []*Container // every container ever placed, terminated included
		for step := 0; step < 2000; step++ {
			fn := names[rng.Intn(3)]
			var pick *Container
			if len(all) > 0 {
				pick = all[rng.Intn(len(all))]
			}
			switch op := rng.Intn(7); {
			case op <= 1:
				cpu := int64(rng.Intn(1500) + 100)
				var c *Container
				if op == 0 {
					c, err = cl.Place(fn, cpu, 64)
				} else {
					c, err = cl.PlaceDeflated(fn, cpu, cpu-int64(rng.Intn(int(cpu))), 64)
				}
				if err == nil {
					all = append(all, c)
					if oracle[fn] == nil {
						oracle[fn] = map[ContainerID]*Container{}
					}
					oracle[fn][c.ID] = c
				}
			case pick == nil:
			case op == 2:
				cl.MarkRunning(pick)
			case op == 3:
				cl.MarkDraining(pick)
			case op == 4:
				cl.Revive(pick)
			case op == 5:
				cl.Resize(pick, int64(rng.Intn(int(pick.CPUStandard)))+1)
			default:
				if cl.Terminate(pick) == nil {
					delete(oracle[pick.Function], pick.ID)
				}
			}
			var live []string
			for f, m := range oracle {
				if len(m) > 0 {
					live = append(live, f)
				}
			}
			sort.Strings(live)
			if got := cl.Functions(); !slices.Equal(got, live) {
				t.Fatalf("seed %d step %d: Functions=%v, oracle %v", seed, step, got, live)
			}
			for _, f := range names {
				var want []*Container
				var cpu int64
				for _, c := range oracle[f] {
					want = append(want, c)
					cpu += c.CPUCurrent
				}
				sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
				prefix := []*Container{nil}
				if got := cl.AppendContainersOf(f, prefix); got[0] != nil || !slices.Equal(got[1:], want) {
					t.Fatalf("seed %d step %d: AppendContainersOf(%s) differs from the oracle", seed, step, f)
				}
				if got := cl.ContainersOf(f); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: ContainersOf(%s) differs from the oracle", seed, step, f)
				}
				var walked []*Container
				cl.EachContainerOf(f, func(c *Container) { walked = append(walked, c) })
				if !slices.Equal(walked, want) {
					t.Fatalf("seed %d step %d: EachContainerOf(%s) differs from the oracle", seed, step, f)
				}
				if got := cl.CPUOf(f); got != cpu {
					t.Fatalf("seed %d step %d: CPUOf(%s)=%d, oracle %d", seed, step, f, got, cpu)
				}
			}
		}
	}
}

func TestQuickResourceConservation(t *testing.T) {
	// Invariant: node used counters always equal the sum of their
	// containers' current sizes, never exceed capacity, never go negative.
	rng := xrand.New(2024)
	f := func(ops uint8) bool {
		cl, err := New(Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 8192, Policy: PlacementPolicy(rng.Intn(3))})
		if err != nil {
			return false
		}
		var live []*Container
		for i := 0; i < int(ops); i++ {
			switch rng.Intn(4) {
			case 0: // place
				cpu := int64(rng.Intn(2000) + 100)
				c, err := cl.Place("f", cpu, int64(rng.Intn(512)+64))
				if err == nil {
					live = append(live, c)
				}
			case 1: // terminate
				if len(live) > 0 {
					i := rng.Intn(len(live))
					cl.Terminate(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2: // deflate
				if len(live) > 0 {
					c := live[rng.Intn(len(live))]
					newCPU := c.CPUCurrent * int64(rng.Intn(50)+50) / 100
					if newCPU > 0 {
						cl.Resize(c, newCPU)
					}
				}
			case 3: // inflate toward standard
				if len(live) > 0 {
					c := live[rng.Intn(len(live))]
					cl.Resize(c, c.CPUStandard) // may fail; fine
				}
			}
		}
		var sumContainers int64
		for _, n := range cl.Nodes() {
			var nodeSum int64
			for _, c := range n.Containers() {
				nodeSum += c.CPUCurrent
			}
			if nodeSum != n.CPUUsed() {
				return false
			}
			if n.CPUUsed() < 0 || n.CPUUsed() > n.CPUCapacity {
				return false
			}
			if n.MemUsed() < 0 || n.MemUsed() > n.MemCapacity {
				return false
			}
			sumContainers += nodeSum
		}
		return sumContainers == cl.UsedCPU()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStateStrings(t *testing.T) {
	if Starting.String() != "starting" || Running.String() != "running" ||
		Draining.String() != "draining" || Terminated.String() != "terminated" {
		t.Error("state strings wrong")
	}
	if FirstFit.String() != "first-fit" || BestFit.String() != "best-fit" || WorstFit.String() != "worst-fit" {
		t.Error("policy strings wrong")
	}
}
