package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"lass/internal/chaos"
	"lass/internal/federation"
	"lass/internal/workload"
)

// referenceParse is the hand-written, section-by-section decoder the
// tag-driven one replaced, frozen so FuzzParseMatchesReference can hold
// the two to the same scenarios and the same error texts. Its only
// adaptations: matrix-ms fills Topology.MatrixMS in milliseconds,
// grant-lease no longer records whether it was set, rtt-classes fills a
// federation.RTTClasses, it checks the result with Build as Parse does,
// and it drops the keys the DSL dropped (response-slo, coordinator.site,
// min-containers, start-down) and the grant-lease value frozen.
func referenceParse(data []byte) (*Scenario, error) {
	root, err := parse(data)
	if err != nil {
		return nil, err
	}
	d := &refDecoder{}
	sc := d.scenario(root)
	if d.err != nil {
		return nil, d.err
	}
	if _, err := sc.Build(-1); err != nil {
		return nil, err
	}
	return sc, nil
}

// refDecoder walks the node tree with strict unknown-key checking; the
// first error sticks and short-circuits the rest.
type refDecoder struct {
	err error
}

func (d *refDecoder) fail(line int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
}

// object checks n is a mapping containing only the allowed keys.
func (d *refDecoder) object(n *node, what string, allowed ...string) bool {
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
			d.fail(n.child(k).line, "unknown %s key %q (allowed: %s)", what, k, strings.Join(allowed, ", "))
			return false
		}
	}
	return true
}

func (d *refDecoder) scalarOf(n *node, key, what string) (string, int, bool) {
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

func (d *refDecoder) str(n *node, key, what string) string {
	s, _, _ := d.scalarOf(n, key, what)
	return s
}

func (d *refDecoder) intval(n *node, key, what string) int {
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

func (d *refDecoder) uintval(n *node, key, what string) uint64 {
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

func (d *refDecoder) floatval(n *node, key, what string) float64 {
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

func (d *refDecoder) boolval(n *node, key, what string) bool {
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

func (d *refDecoder) durval(n *node, key, what string) time.Duration {
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

func (d *refDecoder) list(n *node, key, what string) []*node {
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

func (d *refDecoder) scenario(root *node) *Scenario {
	sc := &Scenario{}
	if !d.object(root, "scenario",
		"name", "description", "seed", "duration", "placer",
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
	if root.child("grant-lease") != nil {
		sc.GrantLease = d.durval(root, "grant-lease", "scenario")
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

func (d *refDecoder) coordinator(n *node) Coordinator {
	var c Coordinator
	if !d.object(n, "coordinator", "election") {
		return c
	}
	c.Election = d.str(n, "election", "coordinator")
	return c
}

func (d *refDecoder) topology(n *node) *Topology {
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
		var r []float64
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
			r = append(r, ms)
		}
		t.MatrixMS = append(t.MatrixMS, r)
	}
	return t
}

func (d *refDecoder) hierarchy(n *node) *Hierarchy {
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
		rc := &federation.RTTClasses{}
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

func (d *refDecoder) group(n *node) HierarchyGroup {
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

func (d *refDecoder) site(n *node) Site {
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

func (d *refDecoder) function(n *node) Function {
	var f Function
	if !d.object(n, "function", "spec", "prewarm", "workload") {
		return f
	}
	f.Spec = d.str(n, "spec", "function")
	if n.child("prewarm") != nil {
		f.Prewarm = d.intval(n, "prewarm", "function")
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

func (d *refDecoder) chaos(n *node) Chaos {
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

func (d *refDecoder) fault(n *node) chaos.Fault {
	var f chaos.Fault
	if !d.object(n, "fault",
		"kind", "site", "from", "to", "bidirectional", "sites", "lag",
		"windows", "mean-up", "mean-down") {
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
	if n.child("mean-up") != nil || n.child("mean-down") != nil {
		f.GE = &chaos.GilbertElliott{
			MeanUp:   d.durval(n, "mean-up", "fault"),
			MeanDown: d.durval(n, "mean-down", "fault"),
		}
	}
	return f
}

func (d *refDecoder) assertions(n *node) Assertions {
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
