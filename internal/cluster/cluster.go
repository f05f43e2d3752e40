// Package cluster is the edge-cluster substrate: worker nodes with finite
// CPU/memory capacity hosting function containers that can be created,
// terminated, and — the mechanism behind LaSS's deflation policy — resized
// in place.
//
// It substitutes for the paper's 3-node OpenWhisk/Docker testbed (§6.1;
// see README.md's opening paragraph). The package is pure resource
// accounting and lifecycle state: time (cold starts) and request flow live
// in the platform and dispatch layers, so the same cluster code serves both
// the discrete-event simulation and the wall-clock runtime.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// State is the lifecycle state of a container.
type State int

const (
	// Starting means the container was placed but is still cold-starting
	// and cannot serve requests yet.
	Starting State = iota
	// Running means the container is serving requests.
	Running
	// Draining means the container is marked for lazy termination (§3.3:
	// "containers marked for termination are reclaimed in a lazy fashion
	// and only when needed"). It continues to serve requests and can be
	// revived if load rises again.
	Draining
	// Terminated means the container's resources have been reclaimed.
	Terminated
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Starting:
		return "starting"
	case Running:
		return "running"
	case Draining:
		return "draining"
	case Terminated:
		return "terminated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ContainerID uniquely identifies a container within a Cluster.
type ContainerID uint64

// Container is one function instance. CPU is in millicores; a container
// created at CPUStandard can be deflated down (and re-inflated up to, but
// never beyond, its standard size). Memory is fixed for the container's
// lifetime: the prototype deliberately implements CPU-only deflation
// because shrinking memory can OOM-kill the function (§5).
type Container struct {
	ID          ContainerID
	Function    string
	CPUStandard int64
	CPUCurrent  int64
	MemoryMiB   int64

	node  *Node
	state State
}

// State returns the container's lifecycle state.
func (c *Container) State() State { return c.state }

// Node returns the node hosting the container (nil once terminated).
func (c *Container) Node() *Node { return c.node }

// CPUFraction returns CPUCurrent/CPUStandard, the input to the
// service-degradation model.
func (c *Container) CPUFraction() float64 {
	return float64(c.CPUCurrent) / float64(c.CPUStandard)
}

// Deflated reports whether the container currently runs below its standard
// CPU size.
func (c *Container) Deflated() bool { return c.CPUCurrent < c.CPUStandard }

// Alive reports whether the container still occupies resources
// (any state except Terminated).
func (c *Container) Alive() bool { return c.state != Terminated }

// Servable reports whether the container can accept requests
// (Running or Draining).
func (c *Container) Servable() bool { return c.state == Running || c.state == Draining }

// Node is one edge server.
type Node struct {
	ID          int
	CPUCapacity int64 // millicores
	MemCapacity int64 // MiB

	cpuUsed    int64
	memUsed    int64
	containers map[ContainerID]*Container
}

// CPUFree returns unallocated CPU millicores on the node.
func (n *Node) CPUFree() int64 { return n.CPUCapacity - n.cpuUsed }

// MemFree returns unallocated memory MiB on the node.
func (n *Node) MemFree() int64 { return n.MemCapacity - n.memUsed }

// CPUUsed returns allocated CPU millicores.
func (n *Node) CPUUsed() int64 { return n.cpuUsed }

// MemUsed returns allocated memory MiB.
func (n *Node) MemUsed() int64 { return n.memUsed }

// Containers returns the live containers on the node in ID order.
func (n *Node) Containers() []*Container {
	out := make([]*Container, 0, len(n.containers))
	for _, c := range n.containers {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Fits reports whether a container of the given size can be placed.
func (n *Node) Fits(cpu, mem int64) bool {
	return n.CPUFree() >= cpu && n.MemFree() >= mem
}

// PlacementPolicy selects which node receives a new container.
type PlacementPolicy int

const (
	// FirstFit places on the lowest-numbered node with room.
	FirstFit PlacementPolicy = iota
	// BestFit places on the node whose free CPU is smallest but
	// sufficient, concentrating fragmentation.
	BestFit
	// WorstFit places on the node with the most free CPU, spreading load.
	WorstFit
)

// String returns the policy name.
func (p PlacementPolicy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Cluster is a set of nodes with a placement policy.
type Cluster struct {
	site   string
	nodes  []*Node
	policy PlacementPolicy
	nextID ContainerID
	byFunc map[string][]*Container // live containers per function, ascending ID
}

// Config describes a cluster to build.
type Config struct {
	// Site names the deployment this cluster belongs to. A single-cluster
	// run can leave it empty; the federation layer names each edge site so
	// placement decisions and results are attributable.
	Site       string
	Nodes      int
	CPUPerNode int64 // millicores
	MemPerNode int64 // MiB
	Policy     PlacementPolicy
}

// PaperCluster returns the evaluation testbed of §6.1: 3 nodes, 4 cores
// (4000 millicores) and 16 GiB each.
func PaperCluster() Config {
	return Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 16384, Policy: WorstFit}
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.CPUPerNode <= 0 || cfg.MemPerNode <= 0 {
		return nil, fmt.Errorf("cluster: non-positive node capacity (%d mC, %d MiB)", cfg.CPUPerNode, cfg.MemPerNode)
	}
	c := &Cluster{site: cfg.Site, policy: cfg.Policy, byFunc: make(map[string][]*Container)}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &Node{
			ID:          i,
			CPUCapacity: cfg.CPUPerNode,
			MemCapacity: cfg.MemPerNode,
			containers:  make(map[ContainerID]*Container),
		})
	}
	return c, nil
}

// Site returns the name of the deployment site this cluster belongs to
// ("" for a standalone single-cluster run).
func (cl *Cluster) Site() string { return cl.site }

// Nodes returns the cluster's nodes.
func (cl *Cluster) Nodes() []*Node { return cl.nodes }

// TotalCPU returns aggregate CPU capacity in millicores.
func (cl *Cluster) TotalCPU() int64 {
	var t int64
	for _, n := range cl.nodes {
		t += n.CPUCapacity
	}
	return t
}

// UsedCPU returns aggregate allocated CPU in millicores.
func (cl *Cluster) UsedCPU() int64 {
	var t int64
	for _, n := range cl.nodes {
		t += n.cpuUsed
	}
	return t
}

// TotalMem returns aggregate memory capacity in MiB.
func (cl *Cluster) TotalMem() int64 {
	var t int64
	for _, n := range cl.nodes {
		t += n.MemCapacity
	}
	return t
}

// CPUUtilization returns UsedCPU/TotalCPU in [0,1] — the "system
// utilization" metric of Figs 8 and 9.
func (cl *Cluster) CPUUtilization() float64 {
	return float64(cl.UsedCPU()) / float64(cl.TotalCPU())
}

// LargestFreeCPU returns the largest contiguous free CPU block (the most
// free CPU on any single node): whether a standard container "fits" is a
// per-node question, which is exactly the fragmentation the termination
// policy suffers from in Fig 8b.
func (cl *Cluster) LargestFreeCPU() int64 {
	var m int64
	for _, n := range cl.nodes {
		if f := n.CPUFree(); f > m {
			m = f
		}
	}
	return m
}

// selectNode applies the placement policy; nil when nothing fits.
func (cl *Cluster) selectNode(cpu, mem int64) *Node {
	var chosen *Node
	for _, n := range cl.nodes {
		if !n.Fits(cpu, mem) {
			continue
		}
		switch cl.policy {
		case FirstFit:
			return n
		case BestFit:
			if chosen == nil || n.CPUFree() < chosen.CPUFree() {
				chosen = n
			}
		case WorstFit:
			if chosen == nil || n.CPUFree() > chosen.CPUFree() {
				chosen = n
			}
		}
	}
	return chosen
}

// ErrNoCapacity is returned by Place when no node can host the container.
type ErrNoCapacity struct {
	CPU, Mem int64
}

func (e ErrNoCapacity) Error() string {
	return fmt.Sprintf("cluster: no node fits container (%d mC, %d MiB)", e.CPU, e.Mem)
}

// Place creates a container of the given size for the function, in
// Starting state, on a node chosen by the placement policy.
func (cl *Cluster) Place(function string, cpu, mem int64) (*Container, error) {
	if cpu <= 0 || mem <= 0 {
		return nil, fmt.Errorf("cluster: invalid container size (%d mC, %d MiB)", cpu, mem)
	}
	n := cl.selectNode(cpu, mem)
	if n == nil {
		return nil, ErrNoCapacity{CPU: cpu, Mem: mem}
	}
	cl.nextID++
	c := &Container{
		ID:          cl.nextID,
		Function:    function,
		CPUStandard: cpu,
		CPUCurrent:  cpu,
		MemoryMiB:   mem,
		node:        n,
		state:       Starting,
	}
	n.cpuUsed += cpu
	n.memUsed += mem
	n.containers[c.ID] = c
	cl.byFunc[function] = append(cl.byFunc[function], c) // IDs only grow
	return c, nil
}

// PlaceDeflated creates a container already running below its standard
// size: the deflation policy does this when only a fragment of capacity is
// available but a smaller container is still worth creating.
func (cl *Cluster) PlaceDeflated(function string, cpuStandard, cpuCurrent, mem int64) (*Container, error) {
	if cpuCurrent <= 0 || cpuCurrent > cpuStandard {
		return nil, fmt.Errorf("cluster: deflated size %d out of (0,%d]", cpuCurrent, cpuStandard)
	}
	n := cl.selectNode(cpuCurrent, mem)
	if n == nil {
		return nil, ErrNoCapacity{CPU: cpuCurrent, Mem: mem}
	}
	cl.nextID++
	c := &Container{
		ID:          cl.nextID,
		Function:    function,
		CPUStandard: cpuStandard,
		CPUCurrent:  cpuCurrent,
		MemoryMiB:   mem,
		node:        n,
		state:       Starting,
	}
	n.cpuUsed += cpuCurrent
	n.memUsed += mem
	n.containers[c.ID] = c
	cl.byFunc[function] = append(cl.byFunc[function], c) // IDs only grow
	return c, nil
}

// MarkRunning transitions a Starting container to Running (cold start
// complete).
func (cl *Cluster) MarkRunning(c *Container) error {
	if c.state != Starting {
		return fmt.Errorf("cluster: container %d is %v, not starting", c.ID, c.state)
	}
	c.state = Running
	return nil
}

// MarkDraining marks a Running container for lazy termination.
func (cl *Cluster) MarkDraining(c *Container) error {
	if c.state != Running {
		return fmt.Errorf("cluster: container %d is %v, not running", c.ID, c.state)
	}
	c.state = Draining
	return nil
}

// Revive returns a Draining container to Running (load rose again before
// the lazy reclaim fired, §3.3: "allows them to be reused").
func (cl *Cluster) Revive(c *Container) error {
	if c.state != Draining {
		return fmt.Errorf("cluster: container %d is %v, not draining", c.ID, c.state)
	}
	c.state = Running
	return nil
}

// Terminate reclaims the container's resources immediately.
func (cl *Cluster) Terminate(c *Container) error {
	if c.state == Terminated {
		return fmt.Errorf("cluster: container %d already terminated", c.ID)
	}
	n := c.node
	n.cpuUsed -= c.CPUCurrent
	n.memUsed -= c.MemoryMiB
	delete(n.containers, c.ID)
	fn := cl.byFunc[c.Function]
	if i, ok := slices.BinarySearchFunc(fn, c.ID, func(x *Container, id ContainerID) int { return cmp.Compare(x.ID, id) }); ok {
		cl.byFunc[c.Function] = slices.Delete(fn, i, i+1)
	}
	c.state = Terminated
	c.node = nil
	return nil
}

// Resize changes the container's CPU allocation in place — deflation when
// newCPU < CPUCurrent, inflation when above. Inflation is bounded by the
// standard size and by the node's free CPU.
func (cl *Cluster) Resize(c *Container, newCPU int64) error {
	if c.state == Terminated {
		return fmt.Errorf("cluster: container %d is terminated", c.ID)
	}
	if newCPU <= 0 {
		return fmt.Errorf("cluster: resize to non-positive CPU %d", newCPU)
	}
	if newCPU > c.CPUStandard {
		return fmt.Errorf("cluster: resize %d above standard size %d", newCPU, c.CPUStandard)
	}
	delta := newCPU - c.CPUCurrent
	if delta > c.node.CPUFree() {
		return fmt.Errorf("cluster: node %d lacks %d mC to inflate container %d", c.node.ID, delta, c.ID)
	}
	c.node.cpuUsed += delta
	c.CPUCurrent = newCPU
	return nil
}

// ContainersOf returns the live containers of a function in ID order.
func (cl *Cluster) ContainersOf(function string) []*Container {
	return cl.AppendContainersOf(function, make([]*Container, 0, len(cl.byFunc[function])))
}

// AppendContainersOf appends the live containers of a function to dst in
// ID order and returns the extended slice, allocating only when dst lacks
// capacity. Hot-path callers pass a reused scratch buffer (dst[:0]) to
// keep the per-epoch reconcile loops allocation-free.
func (cl *Cluster) AppendContainersOf(function string, dst []*Container) []*Container {
	return append(dst, cl.byFunc[function]...)
}

// EachContainerOf calls f for every live container of a function in ID
// order without allocating. f must not place or terminate containers.
func (cl *Cluster) EachContainerOf(function string, f func(*Container)) {
	for _, c := range cl.byFunc[function] {
		f(c)
	}
}

// CPUOf returns the aggregate current CPU allocated to a function.
func (cl *Cluster) CPUOf(function string) int64 {
	var t int64
	for _, c := range cl.byFunc[function] {
		t += c.CPUCurrent
	}
	return t
}

// Functions returns the names of functions with live containers, sorted.
func (cl *Cluster) Functions() []string {
	out := make([]string, 0, len(cl.byFunc))
	for f, m := range cl.byFunc {
		if len(m) > 0 {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// LiveContainers returns the total number of live containers.
func (cl *Cluster) LiveContainers() int {
	t := 0
	for _, n := range cl.nodes {
		t += len(n.containers)
	}
	return t
}
