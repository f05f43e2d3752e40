// Package scenario is the declarative experiment surface: one file
// describes a complete federated run — fleet, topology, workload, chaos
// faults, and assertions — and one checked pass, Build, turns it into a
// federation.Config the experiment registry (or `lass-sim -scenario`)
// can execute by name. Parse runs that same Build, so a scenario that
// loads also builds.
//
// The format is a strict YAML subset (see yaml.go) whose keys are
// `scenario:"key"` tags on the fields they set (see decoder): unknown
// keys, malformed windows, out-of-range site references, duplicate
// effective site names, and inconsistent topology sizes are load-time
// errors with scenario or file/line context, never silent runtime drift.
// Seed semantics are explicit: `seed` drives the platform (service times,
// arrivals), `chaos.seed` drives the failure processes, and replicated
// sweeps vary only the chaos seed so the workload stays pinned while
// failures land differently — the distributional-honesty contract.
package scenario

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// its prewarmed containers, and its ingress workload (rate steps). Every
// site keeps a pool floor of one container.
type Function struct {
	Spec    string          `scenario:"spec"`
	Prewarm int             `scenario:"prewarm"`
	Steps   []workload.Step `scenario:"workload,workload step"`
}

// Site is one edge site: cluster shape plus its function deployments.
type Site struct {
	Name       string     `scenario:"name"`
	Nodes      int        `scenario:"nodes"`
	CPUPerNode int64      `scenario:"cpu-per-node"`
	MemPerNode int64      `scenario:"mem-per-node"`
	Functions  []Function `scenario:"functions,function"`
}

// Topology declares the inter-site latency model: a named generator
// (ring/star) with one RTT parameter, or an explicit matrix.
type Topology struct {
	Kind string        `scenario:"kind"` // "ring", "star", or "matrix"
	RTT  time.Duration `scenario:"rtt"`  // one-way; required and positive for ring and star
	// MatrixMS rows are one-way latencies in milliseconds; required iff
	// Kind == "matrix".
	MatrixMS [][]float64 `scenario:"matrix-ms"`
}

// Coordinator declares the allocator seat's election mode: "fixed" (site
// 0) or "centroid".
type Coordinator struct {
	Election string `scenario:"election"`
}

// Assertions are the scenario's pass/fail contract, checked against the
// run's Result after it completes. Zero values disable a check.
type Assertions struct {
	// MaxViolationRate bounds federation-wide violations (unresolved
	// counted as misses) as a fraction of observed requests.
	MaxViolationRate float64 `scenario:"max-violation-rate"`
	// MinAllocEpochs requires global governance to have engaged.
	MinAllocEpochs uint64 `scenario:"min-alloc-epochs"`
	// MinMissedEpochs requires the chaos processes to have actually
	// silenced the coordinator at least this often.
	MinMissedEpochs uint64 `scenario:"min-missed-epochs"`
	// RequireLeaseExpirations requires at least one lease fallback.
	RequireLeaseExpirations bool `scenario:"require-lease-expirations"`
	// RequirePartitionedEpochs requires at least one partial partition.
	RequirePartitionedEpochs bool `scenario:"require-partitioned-epochs"`
	// MinReclaimedCPU requires cross-site reclaim to have moved at least
	// this many millicores over the run (hierarchical scenarios only).
	MinReclaimedCPU uint64 `scenario:"min-reclaimed-cpu"`
}

// Chaos is the failure declaration: a seed for the stochastic processes
// and the fault list.
type Chaos struct {
	Seed   uint64        `scenario:"seed"`
	Faults []chaos.Fault `scenario:"faults,fault"`
}

// HierarchyGroup is one node of the scenario's capacity tree: an internal
// group carrying nested groups, or a metro carrying site names. Exactly
// one of Groups/Sites must be set (validated through the allocation
// layer's tree checks).
type HierarchyGroup struct {
	Name   string           `scenario:"name"`
	Weight float64          `scenario:"weight"` // 0 = default weight 1
	Groups []HierarchyGroup `scenario:"groups,hierarchy group"`
	Sites  []string         `scenario:"sites"`
}

// Hierarchy is the scenario's region → metro → site quota tree plus the
// reclaim knobs riding on it (federation.Config.Hierarchy / Reclaim /
// ReclaimLatency).
type Hierarchy struct {
	Reclaim        bool          `scenario:"reclaim"`
	ReclaimLatency time.Duration `scenario:"reclaim-latency"`
	// RTTClasses optionally derives the topology from the tree (zero
	// entries select the federation defaults). Mutually exclusive with an
	// explicit `topology:` block.
	RTTClasses *federation.RTTClasses `scenario:"rtt-classes"`
	Groups     []HierarchyGroup       `scenario:"groups,hierarchy group"`
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
	Name        string        `scenario:"name"`
	Description string        `scenario:"description"`
	Seed        uint64        `scenario:"seed"`
	Duration    time.Duration `scenario:"duration"`
	Placer      string        `scenario:"placer"`
	// GlobalFairShare enables the federation-wide allocator; AllocEpoch
	// and GrantLease tune it (GrantLease < 0 = unleased, frozen grants).
	GlobalFairShare bool          `scenario:"global-fairshare"`
	Admission       bool          `scenario:"admission"`
	AllocEpoch      time.Duration `scenario:"alloc-epoch,nonneg"`
	GrantLease      time.Duration `scenario:"grant-lease"`
	Coordinator     Coordinator   `scenario:"coordinator"`
	Topology        *Topology     `scenario:"topology"`
	Hierarchy       *Hierarchy    `scenario:"hierarchy"`
	Fleet           []Site        `scenario:"fleet,fleet site"`
	Chaos           Chaos         `scenario:"chaos"`
	Assertions      Assertions    `scenario:"assertions"`
}

// Load reads and checks one scenario file.
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

// Parse parses one scenario document and checks it with Build.
func Parse(data []byte) (*Scenario, error) {
	root, err := parse(data)
	if err != nil {
		return nil, err
	}
	sc := &Scenario{}
	d := &decoder{schemas: make(map[reflect.Type]*schema)}
	d.object(root, reflect.ValueOf(sc).Elem(), d.schemaOf(reflect.TypeOf(*sc)), "scenario")
	if d.err != nil {
		return nil, d.err
	}
	if _, err := sc.Build(-1); err != nil {
		return nil, err
	}
	return sc, nil
}

// decoder fills tagged structs from the node tree. Each DSL key is a
// `scenario:"key"` tag on the field it sets, and a mapping accepts
// exactly its struct's keys, checked and decoded in declaration order.
// Options after the key:
//
//   - on a list of mappings, the first option labels its items in errors
//     (`scenario:"fleet,fleet site"`); a nested mapping is named by its key;
//   - required: the key must be present;
//   - inline (with an empty key): the field's own keys sit flat in the
//     parent mapping, and a pointer is allocated when any of them appears;
//   - nonneg: a negative duration is an error on its line.
//
// Scalars are strings, ints, uint64s, finite float64s, true/false,
// durations and fault kinds by name. Every error carries the offending
// line; the first one sticks and short-circuits the rest.
type decoder struct {
	err     error
	schemas map[reflect.Type]*schema
}

func (d *decoder) fail(line int, format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
	}
}

// field is one key of a struct type with its options resolved; index is
// its path through inline fields.
type field struct {
	key, label       string
	required, nonneg bool
	index            []int
}

// schema is one struct type's keys in declaration order, worked out once
// per type and document and looked up once per list, not per item.
type schema struct {
	fields []field
	keys   []string
}

// schemaOf returns t's schema, worked out on the decoder's first lookup.
func (d *decoder) schemaOf(t reflect.Type) *schema {
	if s, ok := d.schemas[t]; ok {
		return s
	}
	s := &schema{}
	s.add(t, nil)
	d.schemas[t] = s
	return s
}

func (s *schema) add(t reflect.Type, prefix []int) {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("scenario")
		if !ok {
			continue
		}
		opts := strings.Split(tag, ",")
		f := field{key: opts[0], label: opts[min(1, len(opts)-1)], index: append(slices.Clone(prefix), i),
			required: slices.Contains(opts[1:], "required"), nonneg: slices.Contains(opts[1:], "nonneg")}
		if slices.Contains(opts[1:], "inline") {
			ft := sf.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			s.add(ft, f.index)
			continue
		}
		s.fields = append(s.fields, f)
		s.keys = append(s.keys, f.key)
	}
}

// object decodes mapping n into struct v of schema s, named what in errors.
func (d *decoder) object(n *node, v reflect.Value, s *schema, what string) {
	if n.kind != mapNode {
		d.fail(n.line, "%s must be a mapping, got a %v", what, n.kind)
		return
	}
	for i, k := range n.keys {
		if !slices.Contains(s.keys, k) {
			d.fail(n.items[i].line, "unknown %s key %q (allowed: %s)", what, k, strings.Join(s.keys, ", "))
			return
		}
	}
	for i := range s.fields {
		f := &s.fields[i]
		c := n.child(f.key)
		if c == nil {
			if f.required {
				d.fail(n.line, "%s %q is required", what, f.key)
				return
			}
			continue
		}
		fv := v
		for j, x := range f.index {
			if j > 0 && fv.Kind() == reflect.Pointer {
				if fv.IsNil() {
					fv.Set(reflect.New(fv.Type().Elem()))
				}
				fv = fv.Elem()
			}
			fv = fv.Field(x)
		}
		if d.value(c, fv, what, f); d.err != nil {
			return
		}
	}
}

// value decodes n into v, the field f of a mapping named what.
func (d *decoder) value(n *node, v reflect.Value, what string, f *field) {
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		d.value(n, v.Elem(), what, f)
	case reflect.Struct:
		d.object(n, v, d.schemaOf(v.Type()), f.key)
	case reflect.Slice:
		if n.kind != listNode {
			d.fail(n.line, "%s %q must be a list", what, f.key)
			return
		}
		if len(n.items) == 0 {
			return
		}
		items, es := reflect.MakeSlice(v.Type(), len(n.items), len(n.items)), (*schema)(nil)
		if et := v.Type().Elem(); et.Kind() == reflect.Struct {
			es = d.schemaOf(et)
		}
		for i := 0; i < len(n.items) && d.err == nil; i++ {
			if es != nil {
				d.object(n.items[i], items.Index(i), es, f.label)
			} else {
				d.value(n.items[i], items.Index(i), what, f)
			}
		}
		v.Set(items)
	default:
		d.scalar(n, v, what, f)
	}
}

func (d *decoder) scalar(n *node, v reflect.Value, what string, f *field) {
	if n.kind != scalarNode {
		d.fail(n.line, "%s %q must be a scalar", what, f.key)
		return
	}
	s := n.scalar
	bad := func(want string) { d.fail(n.line, "%s %q: %q is not %s", what, f.key, s, want) }
	switch v.Type() {
	case reflect.TypeOf(time.Duration(0)):
		dur, err := time.ParseDuration(s)
		if err != nil {
			bad("a duration (e.g. 30s, 5ms)")
		} else if dur < 0 && f.nonneg {
			d.fail(n.line, "%s %q: %v is negative (omit it for the default)", what, f.key, dur)
		}
		v.SetInt(int64(dur))
		return
	case reflect.TypeOf(chaos.FaultKind(0)):
		for k := chaos.FaultCoordinator; k <= chaos.FaultGroup; k++ {
			if k.String() == s {
				v.SetInt(int64(k))
				return
			}
		}
		d.fail(n.line, "%s kind %q is not coordinator/site/link/group", what, s)
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		if v.SetBool(s == "true"); s != "true" && s != "false" {
			bad("true/false")
		}
	case reflect.Int, reflect.Int64:
		i, err := strconv.ParseInt(s, 10, v.Type().Bits())
		if err != nil {
			bad("an integer")
		}
		v.SetInt(i)
	case reflect.Uint64:
		u, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			bad("a non-negative integer")
		}
		v.SetUint(u)
	case reflect.Float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			bad("a number")
		} else if math.IsNaN(x) || math.IsInf(x, 0) {
			bad("a finite number")
		}
		v.SetFloat(x)
	default:
		panic(fmt.Sprintf("scenario: tagged field %q has undecodable type %v", f.key, v.Type()))
	}
}

// Build checks what the decoder cannot see key by key — fleet shape,
// topology size, registry names, hierarchy coverage, chaos fault targets
// — and assembles the federation config the scenario describes, in one
// pass: each check sits next to the construction it guards, and every
// error names the scenario. Parse runs it once, so a scenario Parse
// accepts always builds. The chaos seed can be overridden (replicate
// sweeps pass Seed^replicate mixes); chaosSeed < 0 keeps the file's seed.
func (sc *Scenario) Build(chaosSeed int64) (federation.Config, error) {
	fail := func(format string, args ...any) (federation.Config, error) {
		return federation.Config{}, fmt.Errorf("scenario %q: "+format, append([]any{sc.Name}, args...)...)
	}
	if sc.Name == "" {
		return federation.Config{}, fmt.Errorf("scenario has no name")
	}
	if sc.Duration <= 0 {
		return fail("duration must be positive")
	}
	n := len(sc.Fleet)
	if n == 0 {
		return fail("fleet is empty")
	}
	if sc.Assertions.MaxViolationRate < 0 {
		return fail("assertions max-violation-rate %v is negative", sc.Assertions.MaxViolationRate)
	}
	cfg := federation.Config{
		GlobalFairShare:       sc.GlobalFairShare,
		AllocEpoch:            sc.AllocEpoch,
		Seed:                  sc.Seed,
		OffloadAwareAdmission: sc.Admission,
		GrantLease:            sc.GrantLease,
	}
	switch sc.Coordinator.Election {
	case "", "fixed":
	case "centroid":
		cfg.CoordinatorElection = federation.RTTCentroid
	default:
		return fail("coordinator election %q is not fixed/centroid", sc.Coordinator.Election)
	}
	// names are the sites' effective names — the federation's edge-i
	// default where the file sets none — which must be unique and which a
	// hierarchy block must cover.
	names, fleet := make([]string, n), make(map[string]bool, n)
	for i, s := range sc.Fleet {
		names[i] = cmp.Or(s.Name, fmt.Sprintf("edge-%d", i))
		if fleet[names[i]] {
			return fail("duplicate fleet site name %q", names[i])
		}
		fleet[names[i]] = true
		if s.Nodes <= 0 || s.CPUPerNode <= 0 || s.MemPerNode <= 0 {
			return fail("fleet site %d needs positive nodes/cpu-per-node/mem-per-node", i)
		}
		if len(s.Functions) == 0 {
			return fail("fleet site %d deploys no functions", i)
		}
		site := core.Config{
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
			if f.Spec == "" {
				return fail("fleet site %d has a function without a spec", i)
			}
			spec, err := functions.ByName(f.Spec)
			if err != nil {
				return fail("fleet site %d: %w", i, err)
			}
			if len(f.Steps) == 0 {
				return fail("fleet site %d function %q has no workload", i, f.Spec)
			}
			if f.Prewarm < 0 {
				return fail("fleet site %d function %q: negative prewarm (%d)", i, f.Spec, f.Prewarm)
			}
			wl, err := workload.NewSteps(f.Steps)
			if err != nil {
				return fail("site %d %s workload: %w", i, f.Spec, err)
			}
			site.Functions = append(site.Functions, core.FunctionConfig{Spec: spec, Workload: wl, Prewarm: f.Prewarm})
		}
		cfg.Sites = append(cfg.Sites, site)
	}
	if t := sc.Topology; t != nil {
		var err error
		switch t.Kind {
		case "ring", "star":
			if len(t.MatrixMS) != 0 {
				return fail("topology kind %q does not take a matrix", t.Kind)
			}
			if t.RTT <= 0 {
				return fail("topology kind %q needs a positive \"rtt\" (got %v)", t.Kind, t.RTT)
			}
			gen := federation.Ring
			if t.Kind == "star" {
				gen = federation.Star
			}
			cfg.Topology, err = gen(n, t.RTT)
		case "matrix":
			if len(t.MatrixMS) != n {
				return fail("topology matrix is %d rows for %d sites", len(t.MatrixMS), n)
			}
			m := make([][]time.Duration, n)
			for i, row := range t.MatrixMS {
				if len(row) != n {
					return fail("topology matrix row %d has %d cells for %d sites", i, len(row), n)
				}
				for j, ms := range row {
					d := ms * float64(time.Millisecond)
					if math.Abs(d) >= math.MaxInt64 {
						return fail("topology matrix-ms cell (%d,%d) = %v does not fit a duration", i, j, ms)
					}
					m[i] = append(m[i], time.Duration(d))
				}
			}
			cfg.Topology, err = federation.NewTopology(m)
		default:
			return fail("topology kind %q is not ring/star/matrix", t.Kind)
		}
		if err != nil {
			return fail("%w", err)
		}
	}
	p, err := federation.PlacerByName(cmp.Or(sc.Placer, "never"))
	if err != nil {
		return fail("%w", err)
	}
	cfg.Placer = p
	if h := sc.Hierarchy; h != nil {
		if len(h.Groups) == 0 {
			return fail("hierarchy declares no groups")
		}
		if h.Reclaim && !sc.GlobalFairShare {
			return fail("hierarchy reclaim requires global-fairshare: true")
		}
		if h.RTTClasses != nil && sc.Topology != nil {
			return fail("hierarchy rtt-classes and an explicit topology are mutually exclusive")
		}
		tree := h.tree()
		if err := tree.Validate(); err != nil {
			return fail("%w", err)
		}
		if err := tree.Covers(names); err != nil {
			return fail("%w", err)
		}
		// Covers allows superset trees (federation configs may share one
		// hierarchy across fleets); a scenario is self-contained, so a
		// group naming a site the fleet does not deploy is a typo.
		var stray func(gs []HierarchyGroup) error
		stray = func(gs []HierarchyGroup) error {
			for _, g := range gs {
				for _, s := range g.Sites {
					if !fleet[s] {
						return fmt.Errorf("hierarchy group %q names unknown site %q", g.Name, s)
					}
				}
				if err := stray(g.Groups); err != nil {
					return err
				}
			}
			return nil
		}
		if err := stray(h.Groups); err != nil {
			return fail("%w", err)
		}
		cfg.Hierarchy, cfg.Reclaim, cfg.ReclaimLatency = tree, h.Reclaim, h.ReclaimLatency
		if h.RTTClasses != nil {
			if cfg.Topology, err = federation.Hierarchical(names, tree.Levels(), *h.RTTClasses); err != nil {
				return fail("%w", err)
			}
		}
	}
	if len(sc.Chaos.Faults) > 0 {
		seed := sc.Chaos.Seed
		if chaosSeed >= 0 {
			seed = uint64(chaosSeed)
		}
		if cfg.Faults, err = chaos.New(chaos.Config{Sites: n, Seed: seed, Faults: sc.Chaos.Faults}); err != nil {
			return fail("%w", err)
		}
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
	switch {
	case res.AllocEpochs < a.MinAllocEpochs:
		return fmt.Errorf("scenario %q: %d allocation epochs, want at least %d", sc.Name, res.AllocEpochs, a.MinAllocEpochs)
	case res.MissedAllocEpochs < a.MinMissedEpochs:
		return fmt.Errorf("scenario %q: %d missed epochs, want at least %d", sc.Name, res.MissedAllocEpochs, a.MinMissedEpochs)
	case a.RequireLeaseExpirations && res.GrantLeaseExpirations == 0:
		return fmt.Errorf("scenario %q: no grant-lease expirations", sc.Name)
	case a.RequirePartitionedEpochs && res.PartitionedEpochs == 0:
		return fmt.Errorf("scenario %q: no partitioned epochs", sc.Name)
	case res.Reclaimed < a.MinReclaimedCPU:
		return fmt.Errorf("scenario %q: %d millicores reclaimed, want at least %d", sc.Name, res.Reclaimed, a.MinReclaimedCPU)
	}
	return nil
}
