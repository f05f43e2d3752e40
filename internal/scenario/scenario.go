// Package scenario is the declarative experiment surface: one file
// describes a complete federated run — fleet, topology, workload, chaos
// faults, and assertions — and a validating loader turns it into a
// federation.Config the experiment registry (or `lass-sim -scenario`)
// can execute by name.
//
// The format is a strict YAML subset (see yaml.go): unknown keys,
// malformed windows, out-of-range site references, and inconsistent
// topology sizes are load-time errors with file/line context, never
// silent runtime drift. Seed semantics are explicit: `seed` drives the
// platform (service times, arrivals), `chaos.seed` drives the failure
// processes, and replicated sweeps vary only the chaos seed so the
// workload stays pinned while failures land differently — the
// distributional-honesty contract.
package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lass/internal/allocation"
	"lass/internal/chaos"
	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/federation"
	"lass/internal/functions"
	"lass/internal/workload"
)

// Function is one function deployment at a site: a catalog spec name,
// its pool floor, and its ingress workload (rate steps).
type Function struct {
	Spec          string
	Prewarm       int
	MinContainers int
	Steps         []workload.Step
}

// Site is one edge site: cluster shape plus its function deployments.
type Site struct {
	Name       string
	Nodes      int
	CPUPerNode int64
	MemPerNode int64
	Functions  []Function
}

// Topology declares the inter-site latency model: a named generator
// (ring/star) with one RTT parameter, or an explicit matrix.
type Topology struct {
	Kind string        // "ring", "star", or "matrix"
	RTT  time.Duration // one-way; required and positive for ring and star
	// Matrix rows are one-way latencies; required iff Kind == "matrix".
	Matrix [][]time.Duration
}

// Coordinator declares the allocator seat: election mode and (under
// fixed election) the hosting site.
type Coordinator struct {
	Election string // "fixed" or "centroid"
	Site     int
}

// Assertions are the scenario's pass/fail contract, checked against the
// run's Result after it completes. Zero values disable a check.
type Assertions struct {
	// MaxViolationRate bounds federation-wide violations (unresolved
	// counted as misses) as a fraction of observed requests.
	MaxViolationRate float64
	// MinAllocEpochs requires global governance to have engaged.
	MinAllocEpochs uint64
	// MinMissedEpochs requires the chaos processes to have actually
	// silenced the coordinator at least this often.
	MinMissedEpochs uint64
	// RequireLeaseExpirations requires at least one lease fallback.
	RequireLeaseExpirations bool
	// RequirePartitionedEpochs requires at least one partial partition.
	RequirePartitionedEpochs bool
	// MinReclaimedCPU requires cross-site reclaim to have moved at least
	// this many millicores over the run (hierarchical scenarios only).
	MinReclaimedCPU uint64
}

// Chaos is the failure declaration: a seed for the stochastic processes
// and the fault list.
type Chaos struct {
	Seed   uint64
	Faults []chaos.Fault
}

// HierarchyGroup is one node of the scenario's capacity tree: an internal
// group carrying nested groups, or a metro carrying site names. Exactly
// one of Groups/Sites must be set (validated through the allocation
// layer's tree checks).
type HierarchyGroup struct {
	Name   string
	Weight float64 // 0 = default weight 1
	Groups []HierarchyGroup
	Sites  []string
}

// RTTClasses optionally derives the scenario's topology from its
// hierarchy: one per-level one-way latency class (zero entries select the
// federation defaults). Mutually exclusive with an explicit `topology:`
// block.
type RTTClasses struct {
	IntraMetro  time.Duration
	IntraRegion time.Duration
	CrossRegion time.Duration
}

// Hierarchy is the scenario's region → metro → site quota tree plus the
// reclaim knobs riding on it (federation.Config.Hierarchy / Reclaim /
// ReclaimLatency).
type Hierarchy struct {
	Reclaim        bool
	ReclaimLatency time.Duration
	RTTClasses     *RTTClasses
	Groups         []HierarchyGroup
}

// tree lowers the declarative groups to the allocation layer's form under
// an implicit root.
func (h *Hierarchy) tree() *allocation.Hierarchy {
	root := &allocation.Group{ID: "::root"}
	for _, g := range h.Groups {
		root.Children = append(root.Children, g.tree())
	}
	return &allocation.Hierarchy{Root: root}
}

func (g HierarchyGroup) tree() *allocation.Group {
	out := &allocation.Group{ID: g.Name, Weight: g.Weight,
		Sites: append([]string(nil), g.Sites...)}
	for _, c := range g.Groups {
		out.Children = append(out.Children, c.tree())
	}
	return out
}

// Scenario is one parsed, validated scenario file.
type Scenario struct {
	Name        string
	Description string
	Seed        uint64
	Duration    time.Duration
	ResponseSLO time.Duration
	Placer      string
	// GlobalFairShare enables the federation-wide allocator; AllocEpoch
	// and GrantLease tune it (GrantLease < 0 = frozen grants).
	GlobalFairShare bool
	Admission       bool
	AllocEpoch      time.Duration
	GrantLease      time.Duration
	grantLeaseSet   bool
	Coordinator     Coordinator
	Topology        *Topology
	Hierarchy       *Hierarchy
	Fleet           []Site
	Chaos           Chaos
	Assertions      Assertions
}

// siteNames returns each fleet site's effective name — the federation's
// edge-i default when the scenario leaves a name unset. These are the
// names a hierarchy block must cover.
func (sc *Scenario) siteNames() []string {
	out := make([]string, len(sc.Fleet))
	for i, s := range sc.Fleet {
		out[i] = s.Name
		if out[i] == "" {
			out[i] = fmt.Sprintf("edge-%d", i)
		}
	}
	return out
}

// Load reads and validates one scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return sc, nil
}

// Parse parses and validates one scenario document.
func Parse(data []byte) (*Scenario, error) {
	root, err := parse(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	sc := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// decoder walks the node tree with strict unknown-key checking; the
// first error sticks and short-circuits the rest.
type decoder struct {
	err error
}

func (d *decoder) fail(line int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
}

// object checks n is a mapping containing only the allowed keys.
func (d *decoder) object(n *node, what string, allowed ...string) bool {
	if d.err != nil {
		return false
	}
	if n.kind != mapNode {
		d.fail(n.line, "%s must be a mapping, got a %v", what, n.kind)
		return false
	}
	for _, k := range n.keys {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			d.fail(n.children[k].line, "unknown %s key %q (allowed: %s)", what, k, strings.Join(allowed, ", "))
			return false
		}
	}
	return true
}

func (d *decoder) scalarOf(n *node, key, what string) (string, int, bool) {
	c := n.child(key)
	if c == nil || d.err != nil {
		return "", 0, false
	}
	if c.kind != scalarNode {
		d.fail(c.line, "%s %q must be a scalar", what, key)
		return "", 0, false
	}
	return c.scalar, c.line, true
}

func (d *decoder) str(n *node, key, what string) string {
	s, _, _ := d.scalarOf(n, key, what)
	return s
}

func (d *decoder) intval(n *node, key, what string) int {
	s, line, ok := d.scalarOf(n, key, what)
	if !ok {
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		d.fail(line, "%s %q: %q is not an integer", what, key, s)
	}
	return v
}

func (d *decoder) uintval(n *node, key, what string) uint64 {
	s, line, ok := d.scalarOf(n, key, what)
	if !ok {
		return 0
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		d.fail(line, "%s %q: %q is not a non-negative integer", what, key, s)
	}
	return v
}

func (d *decoder) floatval(n *node, key, what string) float64 {
	s, line, ok := d.scalarOf(n, key, what)
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail(line, "%s %q: %q is not a number", what, key, s)
	} else if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail(line, "%s %q: %q is not a finite number", what, key, s)
	}
	return v
}

func (d *decoder) boolval(n *node, key, what string) bool {
	s, line, ok := d.scalarOf(n, key, what)
	if !ok {
		return false
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	d.fail(line, "%s %q: %q is not true/false", what, key, s)
	return false
}

func (d *decoder) durval(n *node, key, what string) time.Duration {
	s, line, ok := d.scalarOf(n, key, what)
	if !ok {
		return 0
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		d.fail(line, "%s %q: %q is not a duration (e.g. 30s, 5ms)", what, key, s)
	}
	return v
}

func (d *decoder) list(n *node, key, what string) []*node {
	c := n.child(key)
	if c == nil || d.err != nil {
		return nil
	}
	if c.kind != listNode {
		d.fail(c.line, "%s %q must be a list", what, key)
		return nil
	}
	return c.items
}

func (d *decoder) scenario(root *node) *Scenario {
	sc := &Scenario{}
	if !d.object(root, "scenario",
		"name", "description", "seed", "duration", "response-slo", "placer",
		"global-fairshare", "admission", "alloc-epoch", "grant-lease",
		"coordinator", "topology", "hierarchy", "fleet", "chaos", "assertions") {
		return sc
	}
	sc.Name = d.str(root, "name", "scenario")
	sc.Description = d.str(root, "description", "scenario")
	if root.child("seed") != nil {
		sc.Seed = d.uintval(root, "seed", "scenario")
	}
	if root.child("duration") != nil {
		sc.Duration = d.durval(root, "duration", "scenario")
	}
	if root.child("response-slo") != nil {
		sc.ResponseSLO = d.durval(root, "response-slo", "scenario")
	}
	sc.Placer = d.str(root, "placer", "scenario")
	if root.child("global-fairshare") != nil {
		sc.GlobalFairShare = d.boolval(root, "global-fairshare", "scenario")
	}
	if root.child("admission") != nil {
		sc.Admission = d.boolval(root, "admission", "scenario")
	}
	if c := root.child("alloc-epoch"); c != nil {
		sc.AllocEpoch = d.durval(root, "alloc-epoch", "scenario")
		if sc.AllocEpoch < 0 {
			d.fail(c.line, "scenario \"alloc-epoch\": %v is negative (omit it for the 5s default)", sc.AllocEpoch)
		}
	}
	if c := root.child("grant-lease"); c != nil {
		sc.grantLeaseSet = true
		if c.kind == scalarNode && c.scalar == "frozen" {
			sc.GrantLease = -1
		} else {
			sc.GrantLease = d.durval(root, "grant-lease", "scenario")
		}
	}
	if c := root.child("coordinator"); c != nil {
		sc.Coordinator = d.coordinator(c)
	}
	if c := root.child("topology"); c != nil {
		sc.Topology = d.topology(c)
	}
	if c := root.child("hierarchy"); c != nil {
		sc.Hierarchy = d.hierarchy(c)
	}
	for _, item := range d.list(root, "fleet", "scenario") {
		sc.Fleet = append(sc.Fleet, d.site(item))
	}
	if c := root.child("chaos"); c != nil {
		sc.Chaos = d.chaos(c)
	}
	if c := root.child("assertions"); c != nil {
		sc.Assertions = d.assertions(c)
	}
	return sc
}

func (d *decoder) coordinator(n *node) Coordinator {
	var c Coordinator
	if !d.object(n, "coordinator", "election", "site") {
		return c
	}
	c.Election = d.str(n, "election", "coordinator")
	if n.child("site") != nil {
		c.Site = d.intval(n, "site", "coordinator")
	}
	return c
}

func (d *decoder) topology(n *node) *Topology {
	t := &Topology{}
	if !d.object(n, "topology", "kind", "rtt", "matrix-ms") {
		return t
	}
	t.Kind = d.str(n, "kind", "topology")
	if n.child("rtt") != nil {
		t.RTT = d.durval(n, "rtt", "topology")
	}
	for _, row := range d.list(n, "matrix-ms", "topology") {
		if d.err != nil {
			break
		}
		if row.kind != listNode {
			d.fail(row.line, "topology matrix-ms rows must be lists of milliseconds")
			break
		}
		var r []time.Duration
		for _, cell := range row.items {
			if cell.kind != scalarNode {
				d.fail(cell.line, "topology matrix-ms cells must be numbers")
				break
			}
			ms, err := strconv.ParseFloat(cell.scalar, 64)
			if err != nil {
				d.fail(cell.line, "topology matrix-ms cell %q is not a number", cell.scalar)
				break
			}
			r = append(r, time.Duration(ms*float64(time.Millisecond)))
		}
		t.Matrix = append(t.Matrix, r)
	}
	return t
}

func (d *decoder) hierarchy(n *node) *Hierarchy {
	h := &Hierarchy{}
	if !d.object(n, "hierarchy", "reclaim", "reclaim-latency", "rtt-classes", "groups") {
		return h
	}
	if n.child("reclaim") != nil {
		h.Reclaim = d.boolval(n, "reclaim", "hierarchy")
	}
	if n.child("reclaim-latency") != nil {
		h.ReclaimLatency = d.durval(n, "reclaim-latency", "hierarchy")
	}
	if c := n.child("rtt-classes"); c != nil {
		rc := &RTTClasses{}
		if d.object(c, "rtt-classes", "intra-metro", "intra-region", "cross-region") {
			if c.child("intra-metro") != nil {
				rc.IntraMetro = d.durval(c, "intra-metro", "rtt-classes")
			}
			if c.child("intra-region") != nil {
				rc.IntraRegion = d.durval(c, "intra-region", "rtt-classes")
			}
			if c.child("cross-region") != nil {
				rc.CrossRegion = d.durval(c, "cross-region", "rtt-classes")
			}
		}
		h.RTTClasses = rc
	}
	for _, item := range d.list(n, "groups", "hierarchy") {
		h.Groups = append(h.Groups, d.group(item))
	}
	return h
}

func (d *decoder) group(n *node) HierarchyGroup {
	var g HierarchyGroup
	if !d.object(n, "hierarchy group", "name", "weight", "groups", "sites") {
		return g
	}
	g.Name = d.str(n, "name", "hierarchy group")
	if n.child("weight") != nil {
		g.Weight = d.floatval(n, "weight", "hierarchy group")
	}
	for _, item := range d.list(n, "groups", "hierarchy group") {
		g.Groups = append(g.Groups, d.group(item))
	}
	for _, m := range d.list(n, "sites", "hierarchy group") {
		if m.kind != scalarNode {
			d.fail(m.line, "hierarchy group sites must be site names")
			break
		}
		g.Sites = append(g.Sites, m.scalar)
	}
	return g
}

func (d *decoder) site(n *node) Site {
	var s Site
	if !d.object(n, "fleet site", "name", "nodes", "cpu-per-node", "mem-per-node", "functions") {
		return s
	}
	s.Name = d.str(n, "name", "fleet site")
	s.Nodes = d.intval(n, "nodes", "fleet site")
	s.CPUPerNode = int64(d.intval(n, "cpu-per-node", "fleet site"))
	s.MemPerNode = int64(d.intval(n, "mem-per-node", "fleet site"))
	for _, item := range d.list(n, "functions", "fleet site") {
		s.Functions = append(s.Functions, d.function(item))
	}
	return s
}

func (d *decoder) function(n *node) Function {
	var f Function
	if !d.object(n, "function", "spec", "prewarm", "min-containers", "workload") {
		return f
	}
	f.Spec = d.str(n, "spec", "function")
	if n.child("prewarm") != nil {
		f.Prewarm = d.intval(n, "prewarm", "function")
	}
	if n.child("min-containers") != nil {
		f.MinContainers = d.intval(n, "min-containers", "function")
	}
	for _, item := range d.list(n, "workload", "function") {
		if !d.object(item, "workload step", "start", "rate") {
			break
		}
		step := workload.Step{Rate: d.floatval(item, "rate", "workload step")}
		if item.child("start") != nil {
			step.Start = d.durval(item, "start", "workload step")
		}
		f.Steps = append(f.Steps, step)
	}
	return f
}

func (d *decoder) chaos(n *node) Chaos {
	var c Chaos
	if !d.object(n, "chaos", "seed", "faults") {
		return c
	}
	if n.child("seed") != nil {
		c.Seed = d.uintval(n, "seed", "chaos")
	}
	for _, item := range d.list(n, "faults", "chaos") {
		c.Faults = append(c.Faults, d.fault(item))
	}
	return c
}

func (d *decoder) fault(n *node) chaos.Fault {
	var f chaos.Fault
	if !d.object(n, "fault",
		"kind", "site", "from", "to", "bidirectional", "sites", "lag",
		"windows", "mean-up", "mean-down", "start-down") {
		return f
	}
	switch kind := d.str(n, "kind", "fault"); kind {
	case "coordinator":
		f.Kind = chaos.FaultCoordinator
	case "site":
		f.Kind = chaos.FaultSite
	case "link":
		f.Kind = chaos.FaultLink
	case "group":
		f.Kind = chaos.FaultGroup
	default:
		d.fail(n.line, "fault kind %q is not coordinator/site/link/group", kind)
		return f
	}
	if n.child("site") != nil {
		f.Site = d.intval(n, "site", "fault")
	}
	if n.child("from") != nil {
		f.From = d.intval(n, "from", "fault")
	}
	if n.child("to") != nil {
		f.To = d.intval(n, "to", "fault")
	}
	if n.child("bidirectional") != nil {
		f.Bidirectional = d.boolval(n, "bidirectional", "fault")
	}
	for _, m := range d.list(n, "sites", "fault") {
		if m.kind != scalarNode {
			d.fail(m.line, "fault group members must be site indices")
			break
		}
		v, err := strconv.Atoi(m.scalar)
		if err != nil {
			d.fail(m.line, "fault group member %q is not a site index", m.scalar)
			break
		}
		f.Sites = append(f.Sites, v)
	}
	if n.child("lag") != nil {
		f.Lag = d.durval(n, "lag", "fault")
	}
	for _, w := range d.list(n, "windows", "fault") {
		if !d.object(w, "window", "start", "end") {
			break
		}
		f.Windows = append(f.Windows, chaos.Window{
			Start: d.durval(w, "start", "window"),
			End:   d.durval(w, "end", "window"),
		})
	}
	if n.child("mean-up") != nil || n.child("mean-down") != nil || n.child("start-down") != nil {
		ge := &chaos.GilbertElliott{
			MeanUp:   d.durval(n, "mean-up", "fault"),
			MeanDown: d.durval(n, "mean-down", "fault"),
		}
		if n.child("start-down") != nil {
			ge.StartDown = d.boolval(n, "start-down", "fault")
		}
		f.GE = ge
	}
	return f
}

func (d *decoder) assertions(n *node) Assertions {
	var a Assertions
	if !d.object(n, "assertions",
		"max-violation-rate", "min-alloc-epochs", "min-missed-epochs",
		"require-lease-expirations", "require-partitioned-epochs",
		"min-reclaimed-cpu") {
		return a
	}
	if n.child("max-violation-rate") != nil {
		a.MaxViolationRate = d.floatval(n, "max-violation-rate", "assertions")
	}
	if n.child("min-alloc-epochs") != nil {
		a.MinAllocEpochs = d.uintval(n, "min-alloc-epochs", "assertions")
	}
	if n.child("min-missed-epochs") != nil {
		a.MinMissedEpochs = d.uintval(n, "min-missed-epochs", "assertions")
	}
	if n.child("require-lease-expirations") != nil {
		a.RequireLeaseExpirations = d.boolval(n, "require-lease-expirations", "assertions")
	}
	if n.child("require-partitioned-epochs") != nil {
		a.RequirePartitionedEpochs = d.boolval(n, "require-partitioned-epochs", "assertions")
	}
	if n.child("min-reclaimed-cpu") != nil {
		a.MinReclaimedCPU = d.uintval(n, "min-reclaimed-cpu", "assertions")
	}
	return a
}

// validate checks cross-field consistency the decoder cannot see
// key-by-key: fleet present, topology size, placer/election names,
// chaos fault targets in range (chaos.New revalidates, but here the
// error carries scenario context before any engine is built).
func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario has no name")
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("scenario %q: duration must be positive", sc.Name)
	}
	if len(sc.Fleet) == 0 {
		return fmt.Errorf("scenario %q: fleet is empty", sc.Name)
	}
	seenSite := make(map[string]bool, len(sc.Fleet))
	for i, s := range sc.Fleet {
		if s.Name != "" && seenSite[s.Name] {
			return fmt.Errorf("scenario %q: duplicate fleet site name %q", sc.Name, s.Name)
		}
		seenSite[s.Name] = true
		if s.Nodes <= 0 || s.CPUPerNode <= 0 || s.MemPerNode <= 0 {
			return fmt.Errorf("scenario %q: fleet site %d needs positive nodes/cpu-per-node/mem-per-node", sc.Name, i)
		}
		if len(s.Functions) == 0 {
			return fmt.Errorf("scenario %q: fleet site %d deploys no functions", sc.Name, i)
		}
		for _, f := range s.Functions {
			if f.Spec == "" {
				return fmt.Errorf("scenario %q: fleet site %d has a function without a spec", sc.Name, i)
			}
			if _, err := functions.ByName(f.Spec); err != nil {
				return fmt.Errorf("scenario %q: fleet site %d: %w", sc.Name, i, err)
			}
			if len(f.Steps) == 0 {
				return fmt.Errorf("scenario %q: fleet site %d function %q has no workload", sc.Name, i, f.Spec)
			}
		}
	}
	switch sc.Coordinator.Election {
	case "", "fixed", "centroid":
	default:
		return fmt.Errorf("scenario %q: coordinator election %q is not fixed/centroid", sc.Name, sc.Coordinator.Election)
	}
	if sc.Coordinator.Site < 0 || sc.Coordinator.Site >= len(sc.Fleet) {
		return fmt.Errorf("scenario %q: coordinator site %d out of range [0, %d)", sc.Name, sc.Coordinator.Site, len(sc.Fleet))
	}
	if sc.Topology != nil {
		switch sc.Topology.Kind {
		case "ring", "star":
			if len(sc.Topology.Matrix) != 0 {
				return fmt.Errorf("scenario %q: topology kind %q does not take a matrix", sc.Name, sc.Topology.Kind)
			}
			if sc.Topology.RTT <= 0 {
				return fmt.Errorf("scenario %q: topology kind %q needs a positive \"rtt\" (got %v)", sc.Name, sc.Topology.Kind, sc.Topology.RTT)
			}
		case "matrix":
			if len(sc.Topology.Matrix) != len(sc.Fleet) {
				return fmt.Errorf("scenario %q: topology matrix is %d rows for %d sites", sc.Name, len(sc.Topology.Matrix), len(sc.Fleet))
			}
			for i, row := range sc.Topology.Matrix {
				if len(row) != len(sc.Fleet) {
					return fmt.Errorf("scenario %q: topology matrix row %d has %d cells for %d sites", sc.Name, i, len(row), len(sc.Fleet))
				}
			}
		default:
			return fmt.Errorf("scenario %q: topology kind %q is not ring/star/matrix", sc.Name, sc.Topology.Kind)
		}
	}
	if sc.Placer != "" {
		if _, err := federation.PlacerByName(sc.Placer); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	if sc.Hierarchy != nil {
		if len(sc.Hierarchy.Groups) == 0 {
			return fmt.Errorf("scenario %q: hierarchy declares no groups", sc.Name)
		}
		if sc.Hierarchy.Reclaim && !sc.GlobalFairShare {
			return fmt.Errorf("scenario %q: hierarchy reclaim requires global-fairshare: true", sc.Name)
		}
		if sc.Hierarchy.RTTClasses != nil && sc.Topology != nil {
			return fmt.Errorf("scenario %q: hierarchy rtt-classes and an explicit topology are mutually exclusive", sc.Name)
		}
		tree := sc.Hierarchy.tree()
		if err := tree.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		names := sc.siteNames()
		if err := tree.Covers(names); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		// Covers allows superset trees (federation configs may share one
		// hierarchy across fleets); a scenario is self-contained, so a
		// group naming a site the fleet does not deploy is a typo.
		fleet := make(map[string]bool, len(names))
		for _, n := range names {
			fleet[n] = true
		}
		var stray func(g HierarchyGroup) error
		stray = func(g HierarchyGroup) error {
			for _, s := range g.Sites {
				if !fleet[s] {
					return fmt.Errorf("scenario %q: hierarchy group %q names unknown site %q", sc.Name, g.Name, s)
				}
			}
			for _, c := range g.Groups {
				if err := stray(c); err != nil {
					return err
				}
			}
			return nil
		}
		for _, g := range sc.Hierarchy.Groups {
			if err := stray(g); err != nil {
				return err
			}
		}
	}
	// Dry-build the chaos engine so fault errors surface at load time.
	if len(sc.Chaos.Faults) > 0 {
		if _, err := chaos.New(chaos.Config{Sites: len(sc.Fleet), Seed: sc.Chaos.Seed, Faults: sc.Chaos.Faults}); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	return nil
}

// Build assembles the federation config the scenario describes. The
// chaos seed can be overridden (replicate sweeps pass Seed^replicate
// mixes); chaosSeed < 0 keeps the file's seed.
func (sc *Scenario) Build(chaosSeed int64) (federation.Config, error) {
	cfg := federation.Config{
		GlobalFairShare:       sc.GlobalFairShare,
		AllocEpoch:            sc.AllocEpoch,
		ResponseSLO:           sc.ResponseSLO,
		Seed:                  sc.Seed,
		Coordinator:           sc.Coordinator.Site,
		OffloadAwareAdmission: sc.Admission,
	}
	if sc.grantLeaseSet {
		cfg.GrantLease = sc.GrantLease
	}
	if sc.Coordinator.Election == "centroid" {
		cfg.CoordinatorElection = federation.RTTCentroid
	}
	placer := sc.Placer
	if placer == "" {
		placer = "never"
	}
	p, err := federation.PlacerByName(placer)
	if err != nil {
		return cfg, err
	}
	cfg.Placer = p
	for i, s := range sc.Fleet {
		spec := core.Config{
			Cluster: cluster.Config{
				Site:       s.Name,
				Nodes:      s.Nodes,
				CPUPerNode: s.CPUPerNode,
				MemPerNode: s.MemPerNode,
				Policy:     cluster.WorstFit,
			},
			Controller: controller.Config{MinContainers: 1},
			Seed:       sc.Seed ^ uint64(0x5ce0+i),
		}
		for _, f := range s.Functions {
			fspec, err := functions.ByName(f.Spec)
			if err != nil {
				return cfg, err
			}
			wl, err := workload.NewSteps(f.Steps)
			if err != nil {
				return cfg, fmt.Errorf("scenario %q: site %d %s workload: %w", sc.Name, i, f.Spec, err)
			}
			fc := core.FunctionConfig{Spec: fspec, Workload: wl, Prewarm: f.Prewarm}
			if f.MinContainers > 0 {
				spec.Controller.MinContainers = f.MinContainers
			}
			spec.Functions = append(spec.Functions, fc)
		}
		cfg.Sites = append(cfg.Sites, spec)
	}
	if sc.Topology != nil {
		var topo *federation.Topology
		var err error
		switch sc.Topology.Kind {
		case "ring":
			topo, err = federation.Ring(len(sc.Fleet), sc.Topology.RTT)
		case "star":
			topo, err = federation.Star(len(sc.Fleet), sc.Topology.RTT)
		case "matrix":
			topo, err = federation.NewTopology(sc.Topology.Matrix)
		}
		if err != nil {
			return cfg, err
		}
		cfg.Topology = topo
	}
	if h := sc.Hierarchy; h != nil {
		tree := h.tree()
		cfg.Hierarchy = tree
		cfg.Reclaim = h.Reclaim
		cfg.ReclaimLatency = h.ReclaimLatency
		if rc := h.RTTClasses; rc != nil {
			topo, err := federation.Hierarchical(sc.siteNames(), tree.Levels(), federation.RTTClasses{
				IntraMetro:  rc.IntraMetro,
				IntraRegion: rc.IntraRegion,
				CrossRegion: rc.CrossRegion,
			})
			if err != nil {
				return cfg, err
			}
			cfg.Topology = topo
		}
	}
	if len(sc.Chaos.Faults) > 0 {
		seed := sc.Chaos.Seed
		if chaosSeed >= 0 {
			seed = uint64(chaosSeed)
		}
		eng, err := chaos.New(chaos.Config{Sites: len(sc.Fleet), Seed: seed, Faults: sc.Chaos.Faults})
		if err != nil {
			return cfg, err
		}
		cfg.Faults = eng
	}
	return cfg, nil
}

// Check evaluates the scenario's assertions against a finished run.
func (sc *Scenario) Check(res *federation.Result) error {
	a := sc.Assertions
	if a.MaxViolationRate > 0 {
		var viol, total uint64
		for _, s := range res.Sites {
			viol += s.Violations()
			total += s.SLO.Total() + s.Unresolved
		}
		if total > 0 {
			rate := float64(viol) / float64(total)
			if rate > a.MaxViolationRate {
				return fmt.Errorf("scenario %q: violation rate %.4f exceeds max %.4f", sc.Name, rate, a.MaxViolationRate)
			}
		}
	}
	if res.AllocEpochs < a.MinAllocEpochs {
		return fmt.Errorf("scenario %q: %d allocation epochs, want at least %d", sc.Name, res.AllocEpochs, a.MinAllocEpochs)
	}
	if res.MissedAllocEpochs < a.MinMissedEpochs {
		return fmt.Errorf("scenario %q: %d missed epochs, want at least %d", sc.Name, res.MissedAllocEpochs, a.MinMissedEpochs)
	}
	if a.RequireLeaseExpirations && res.GrantLeaseExpirations == 0 {
		return fmt.Errorf("scenario %q: no grant-lease expirations", sc.Name)
	}
	if a.RequirePartitionedEpochs && res.PartitionedEpochs == 0 {
		return fmt.Errorf("scenario %q: no partitioned epochs", sc.Name)
	}
	if res.Reclaimed < a.MinReclaimedCPU {
		return fmt.Errorf("scenario %q: %d millicores reclaimed, want at least %d", sc.Name, res.Reclaimed, a.MinReclaimedCPU)
	}
	return nil
}
