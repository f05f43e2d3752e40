// Package baseline models vanilla Apache OpenWhisk's sharding-pool load
// balancer, the comparison system of §6.6. The paper reports that
// off-the-shelf OpenWhisk "failed to finish the experiment": its scheduler
// packs each function onto a "home" invoker chosen by hash, considers only
// memory when packing, and ignores CPU requirements entirely. Under the
// Fig 8 workload one invoker gets over-packed with MobileNet containers,
// becomes unresponsive, the controller shifts the load to the next
// invoker, and the failure cascades across the cluster.
//
// The model here reproduces that mechanism rather than the Scala code:
//
//   - per-function home invoker (stable hash), memory-only admission;
//   - a new container is created on demand when no idle one exists
//     (OpenWhisk's on-request auto-scaling);
//   - each node tracks the aggregate CPU its busy containers want; when
//     demand exceeds Oversubscription × capacity the node becomes
//     (stickily) unresponsive: in-flight requests hang and the node
//     accepts no further work;
//   - requests that cannot be placed anywhere are dropped.
package baseline

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"lass/internal/functions"
	"lass/internal/metrics"
	"lass/internal/sim"
	"lass/internal/workload"
	"lass/internal/xrand"
)

// Config describes the baseline deployment.
type Config struct {
	Nodes      int
	CPUPerNode int64 // millicores
	MemPerNode int64 // MiB
	// Oversubscription is how far past its CPU capacity a node's busy
	// demand can grow before the invoker becomes unresponsive. OpenWhisk
	// survives mild oversubscription (containers just slow down); the
	// default 2.0 marks a node dead when busy demand is twice capacity.
	Oversubscription float64
	// IdleTTL terminates containers idle longer than this (OpenWhisk's
	// pause/remove behaviour). Zero disables.
	IdleTTL time.Duration
	Seed    uint64
}

type containerState int

const (
	idle containerState = iota
	busy
)

type container struct {
	fn       *bfunc
	node     *node
	state    containerState
	lastUsed time.Duration
	done     sim.Event
	req      *request
}

type node struct {
	id         int
	memCap     int64
	memUsed    int64
	cpuCap     int64
	responsive bool
	// containers is kept in creation order. Iterating a set-typed map
	// here made findIdle hand requests to an arbitrary idle container,
	// which skewed lastUsed and therefore keep-alive reaping run to run;
	// a slice makes the whole baseline a pure function of its seed.
	containers []*container
}

// busyCPUDemand sums the standard-size CPU wanted by busy containers: the
// quantity OpenWhisk never looks at, and the one that kills the invoker.
func (n *node) busyCPUDemand() int64 {
	var d int64
	for _, c := range n.containers {
		if c.state == busy {
			d += c.fn.spec.CPUMillis
		}
	}
	return d
}

type request struct {
	arrival time.Duration
}

type bfunc struct {
	spec     functions.Spec
	home     int
	queue    []*request
	Waits    *metrics.Reservoir
	SLO      *metrics.SLOTracker
	complete uint64
	dropped  uint64
	hung     uint64
}

// Platform is the assembled vanilla-OpenWhisk simulation.
type Platform struct {
	Engine *sim.Engine
	cfg    Config
	nodes  []*node
	funcs  map[string]*bfunc
	order  []string
	rng    *xrand.Rand
}

// New builds the baseline platform.
func New(cfg Config) (*Platform, error) {
	if cfg.Nodes < 1 || cfg.CPUPerNode <= 0 || cfg.MemPerNode <= 0 {
		return nil, fmt.Errorf("baseline: invalid cluster config %+v", cfg)
	}
	if cfg.Oversubscription <= 0 {
		cfg.Oversubscription = 2.0
	}
	p := &Platform{
		Engine: sim.NewEngine(),
		cfg:    cfg,
		funcs:  make(map[string]*bfunc),
		rng:    xrand.New(cfg.Seed ^ 0xba5e11e),
	}
	for i := 0; i < cfg.Nodes; i++ {
		p.nodes = append(p.nodes, &node{
			id:         i,
			memCap:     cfg.MemPerNode,
			cpuCap:     cfg.CPUPerNode,
			responsive: true,
		})
	}
	return p, nil
}

// Register adds a function, assigning its home invoker by hash (the
// sharding-pool scheme).
func (p *Platform) Register(spec functions.Spec, sloDeadline time.Duration) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, dup := p.funcs[spec.Name]; dup {
		return fmt.Errorf("baseline: duplicate function %q", spec.Name)
	}
	h := fnv.New32a()
	h.Write([]byte(spec.Name))
	p.funcs[spec.Name] = &bfunc{
		spec:  spec,
		home:  int(h.Sum32()) % len(p.nodes),
		Waits: metrics.NewReservoir(),
		SLO:   metrics.NewSLOTracker(sloDeadline),
	}
	p.order = append(p.order, spec.Name)
	return nil
}

// checkHealth marks a node unresponsive (stickily) when its busy CPU
// demand exceeds the oversubscription limit, hanging in-flight requests.
func (p *Platform) checkHealth(n *node) {
	if !n.responsive {
		return
	}
	limit := int64(float64(n.cpuCap) * p.cfg.Oversubscription)
	if n.busyCPUDemand() <= limit {
		return
	}
	n.responsive = false
	for _, c := range n.containers {
		if c.state == busy {
			c.done.Cancel() // the request hangs forever
			c.fn.hung++
		}
	}
}

// findIdle returns an idle container for fn on a responsive node.
func (p *Platform) findIdle(f *bfunc) *container {
	for offset := 0; offset < len(p.nodes); offset++ {
		n := p.nodes[(f.home+offset)%len(p.nodes)]
		if !n.responsive {
			continue
		}
		for _, c := range n.containers {
			if c.fn == f && c.state == idle {
				return c
			}
		}
	}
	return nil
}

// createContainer places a new container for fn by MEMORY ONLY, starting
// at the home invoker and overflowing cyclically — the §6.6 failure
// ingredient.
func (p *Platform) createContainer(f *bfunc) *container {
	for offset := 0; offset < len(p.nodes); offset++ {
		n := p.nodes[(f.home+offset)%len(p.nodes)]
		if !n.responsive {
			continue
		}
		if n.memCap-n.memUsed < f.spec.MemoryMiB {
			continue
		}
		c := &container{fn: f, node: n, state: idle, lastUsed: p.Engine.Now()}
		n.memUsed += f.spec.MemoryMiB
		n.containers = append(n.containers, c)
		return c
	}
	return nil
}

// dispatch runs r on c; service time stretches with the node's CPU
// oversubscription at dispatch time (containers share the node's cores).
func (p *Platform) dispatch(f *bfunc, c *container, r *request) {
	now := p.Engine.Now()
	wait := now - r.arrival
	f.Waits.AddDuration(wait)
	f.SLO.Observe(wait)
	c.state = busy
	c.req = r
	demand := c.node.busyCPUDemand()
	stretch := 1.0
	if demand > c.node.cpuCap {
		stretch = float64(demand) / float64(c.node.cpuCap)
	}
	service := time.Duration(float64(f.spec.SampleServiceTime(p.rng, 1.0)) * stretch)
	c.done = p.Engine.After(service, func() {
		c.state = idle
		c.req = nil
		c.lastUsed = p.Engine.Now()
		f.complete++
		p.pump(f)
	})
	p.checkHealth(c.node)
}

// pump serves queued requests for fn.
func (p *Platform) pump(f *bfunc) {
	for len(f.queue) > 0 {
		c := p.findIdle(f)
		if c == nil {
			c = p.createContainer(f)
		}
		if c == nil {
			return // nowhere to run; stay queued
		}
		r := f.queue[0]
		f.queue = f.queue[1:]
		p.dispatch(f, c, r)
	}
}

// arrive handles one invocation.
func (p *Platform) arrive(f *bfunc) {
	r := &request{arrival: p.Engine.Now()}
	if p.responsiveNodes() == 0 {
		f.dropped++
		return
	}
	f.queue = append(f.queue, r)
	p.pump(f)
}

func (p *Platform) responsiveNodes() int {
	n := 0
	for _, nd := range p.nodes {
		if nd.responsive {
			n++
		}
	}
	return n
}

// reapIdle terminates long-idle containers.
func (p *Platform) reapIdle() {
	if p.cfg.IdleTTL == 0 {
		return
	}
	now := p.Engine.Now()
	for _, n := range p.nodes {
		live := n.containers[:0]
		for _, c := range n.containers {
			if c.state == idle && now-c.lastUsed >= p.cfg.IdleTTL {
				n.memUsed -= c.fn.spec.MemoryMiB
				continue
			}
			live = append(live, c)
		}
		for i := len(live); i < len(n.containers); i++ {
			n.containers[i] = nil
		}
		n.containers = live
	}
}

// Result summarizes a baseline run.
type Result struct {
	Completed       map[string]uint64
	Dropped         map[string]uint64
	Hung            map[string]uint64
	Waits           map[string]*metrics.Reservoir
	SLO             map[string]*metrics.SLOTracker
	ResponsiveNodes int
	Cascaded        bool // every invoker unresponsive at some point
	FirstDeathAt    time.Duration
}

// Run drives per-function workload schedules for the given duration.
func (p *Platform) Run(schedules map[string]*workload.Schedule, duration time.Duration) (*Result, error) {
	names := make([]string, 0, len(schedules))
	for name := range schedules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := p.funcs[name]; !ok {
			return nil, fmt.Errorf("baseline: schedule for unregistered function %q", name)
		}
	}
	var firstDeath time.Duration
	deadAll := false
	for _, name := range p.order {
		sched, ok := schedules[name]
		if !ok {
			continue
		}
		f := p.funcs[name]
		arr := workload.NewArrivals(sched, p.rng.Fork())
		var fire func(at time.Duration)
		fire = func(at time.Duration) {
			p.Engine.Schedule(at, func() {
				p.arrive(f)
				if next, ok := arr.Next(p.Engine.Now()); ok {
					fire(next)
				}
			})
		}
		if first, ok := arr.Next(0); ok {
			fire(first)
		}
	}
	p.Engine.Every(10*time.Second, func() {
		p.reapIdle()
		if p.responsiveNodes() < len(p.nodes) && firstDeath == 0 {
			firstDeath = p.Engine.Now()
		}
		if p.responsiveNodes() == 0 {
			deadAll = true
		}
	})
	p.Engine.RunUntil(duration)
	res := &Result{
		Completed:       make(map[string]uint64),
		Dropped:         make(map[string]uint64),
		Hung:            make(map[string]uint64),
		Waits:           make(map[string]*metrics.Reservoir),
		SLO:             make(map[string]*metrics.SLOTracker),
		ResponsiveNodes: p.responsiveNodes(),
		Cascaded:        deadAll,
		FirstDeathAt:    firstDeath,
	}
	for name, f := range p.funcs {
		res.Completed[name] = f.complete
		res.Dropped[name] = f.dropped + uint64(len(f.queue)) // still stuck at end
		res.Hung[name] = f.hung
		res.Waits[name] = f.Waits
		res.SLO[name] = f.SLO
	}
	return res, nil
}
