package cluster

import (
	"errors"
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
	for _, n := range cl.Nodes() {
		if n.MemCapacity != 16384 {
			t.Errorf("node %d mem=%d", n.ID, n.MemCapacity)
		}
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
	if cl.UsedCPU() != 0 || c.State() != Terminated || c.Node() != nil {
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
	for _, n := range cl.Nodes() {
		if n.CPUFree() != 0 {
			t.Errorf("node %d has %d mC free", n.ID, n.CPUFree())
		}
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

// TestContainersOfIDOrder checks that IDs grow with every placement: the
// controller keeps each function's pool in ID order by appending.
func TestContainersOfIDOrder(t *testing.T) {
	cl := newTestCluster(t)
	var prev *Container
	for i := 0; i < 5; i++ {
		fn := []string{"f", "g"}[i%2]
		c, err := cl.Place(fn, 100, 64)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && c.ID <= prev.ID {
			t.Fatalf("ID %d placed after %d", c.ID, prev.ID)
		}
		if i == 2 {
			cl.Terminate(c) // a freed ID is never handed out again
		}
		prev = c
	}
}

// TestContainerIndexMatchesOracle runs seeded Place / PlaceDeflated /
// MarkRunning / MarkDraining / Revive / Resize / Terminate programs over
// three functions and, after every operation, checks every container's
// state against the lifecycle rules and every node's used CPU and memory
// against the sums over the containers the program placed there and has
// not terminated. IDs must grow with every placement, failed ones
// between them included.
func TestContainerIndexMatchesOracle(t *testing.T) {
	names := []string{"a", "b", "c"}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		cl, err := New(Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 8192, Policy: PlacementPolicy(seed % 3)})
		if err != nil {
			t.Fatal(err)
		}
		var all []*Container // every container ever placed, terminated included
		want := map[*Container]State{}
		for step := 0; step < 2000; step++ {
			var pick *Container
			if len(all) > 0 {
				pick = all[rng.Intn(len(all))]
			}
			// move checks that an operation succeeded exactly when pick was
			// in state from, and records the state it moved pick to.
			move := func(err error, from, to State) {
				if (err == nil) != (want[pick] == from) {
					t.Fatalf("seed %d step %d: container %d was %v, %v → %v returned %v", seed, step, pick.ID, want[pick], from, to, err)
				}
				if err == nil {
					want[pick] = to
				}
			}
			switch op := rng.Intn(7); {
			case op <= 1:
				fn, cpu := names[rng.Intn(3)], int64(rng.Intn(1500)+100)
				var c *Container
				if op == 0 {
					c, err = cl.Place(fn, cpu, 64)
				} else {
					c, err = cl.PlaceDeflated(fn, cpu, cpu-int64(rng.Intn(int(cpu))), 64)
				}
				if err == nil {
					if len(all) > 0 && c.ID <= all[len(all)-1].ID {
						t.Fatalf("seed %d step %d: ID %d after %d", seed, step, c.ID, all[len(all)-1].ID)
					}
					all = append(all, c)
					want[c] = Starting
				}
			case pick == nil:
			case op == 2:
				move(cl.MarkRunning(pick), Starting, Running)
			case op == 3:
				move(cl.MarkDraining(pick), Running, Draining)
			case op == 4:
				move(cl.Revive(pick), Draining, Running)
			case op == 5:
				if err := cl.Resize(pick, int64(rng.Intn(int(pick.CPUStandard)))+1); err == nil && want[pick] == Terminated {
					t.Fatalf("seed %d step %d: resized terminated container %d", seed, step, pick.ID)
				}
			default:
				if err := cl.Terminate(pick); (err == nil) == (want[pick] == Terminated) {
					t.Fatalf("seed %d step %d: Terminate(%d) in %v returned %v", seed, step, pick.ID, want[pick], err)
				}
				want[pick] = Terminated
			}
			cpu, mem := map[*Node]int64{}, map[*Node]int64{}
			for _, c := range all {
				if c.State() != want[c] {
					t.Fatalf("seed %d step %d: container %d is %v, oracle %v", seed, step, c.ID, c.State(), want[c])
				}
				if (c.Node() == nil) != (want[c] == Terminated) {
					t.Fatalf("seed %d step %d: container %d in %v has node %v", seed, step, c.ID, want[c], c.Node())
				}
				if c.Node() != nil {
					cpu[c.Node()] += c.CPUCurrent
					mem[c.Node()] += c.MemoryMiB
				}
			}
			for _, n := range cl.Nodes() {
				if n.cpuUsed != cpu[n] || n.memUsed != mem[n] {
					t.Fatalf("seed %d step %d: node %d uses %d mC and %d MiB, oracle %d and %d", seed, step, n.ID, n.cpuUsed, n.memUsed, cpu[n], mem[n])
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
		nodeSums := map[*Node]int64{}
		for _, c := range live {
			nodeSums[c.Node()] += c.CPUCurrent
		}
		var sumContainers int64
		for _, n := range cl.Nodes() {
			nodeSum := nodeSums[n]
			if nodeSum != n.cpuUsed {
				return false
			}
			if n.cpuUsed < 0 || n.cpuUsed > n.CPUCapacity {
				return false
			}
			if n.memUsed < 0 || n.memUsed > n.MemCapacity {
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
