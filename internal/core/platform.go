// Package core assembles the complete LaSS platform over the simulated
// edge cluster: workload generators feed per-function dispatch queues, the
// controller observes arrivals and reconciles container pools every
// evaluation interval, and metrics are collected for the experiment
// harnesses.
//
// This is the simulation counterpart of the paper's modified-OpenWhisk
// deployment (Fig 2b): the control path (controller → cluster) and the
// data path (load balancer → containers) are separated exactly as the
// prototype separates them.
package core

import (
	"fmt"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/dispatch"
	"lass/internal/functions"
	"lass/internal/metrics"
	"lass/internal/queuing"
	"lass/internal/sim"
	"lass/internal/workload"
	"lass/internal/xrand"
)

// FunctionConfig registers one function and its offered workload.
type FunctionConfig struct {
	Spec     functions.Spec
	SLO      queuing.SLO        // zero → controller default
	Weight   float64            // zero → spec default
	User     string             // optional namespace (two-level shares)
	Workload *workload.Schedule // nil → no generated arrivals
	Prewarm  int                // containers provisioned before t=0
	// TimeLimit is the FaaS hard execution limit (§2.1); zero disables.
	TimeLimit time.Duration
}

// Config describes a complete platform.
type Config struct {
	Cluster    cluster.Config
	Controller controller.Config
	Seed       uint64
	Users      map[string]float64 // namespace weights (§5)
	Functions  []FunctionConfig
	// DisableController freezes allocations after prewarm — used by the
	// model-validation experiments that measure a fixed pool (Fig 3).
	DisableController bool
	// Engine, when non-nil, is the discrete-event engine the platform
	// runs on instead of a private one. The federation layer passes a
	// shared engine so several edge-site platforms advance on one virtual
	// clock; such platforms are driven with Start, Tick and Collect rather
	// than Run, and their host calls Tick once per evaluation interval.
	Engine *sim.Engine
}

// FunctionResult aggregates one function's measurements over a run.
type FunctionResult struct {
	Name       string
	Waits      *metrics.Reservoir
	Responses  *metrics.Reservoir
	SLO        *metrics.SLOTracker
	Completed  uint64
	Requeued   uint64
	TimedOut   uint64
	Offloaded  uint64
	Rejected   uint64
	Arrivals   uint64
	Containers *metrics.Series // live container count over time
	CPU        *metrics.Series // live CPU (millicores) over time
	LambdaHat  *metrics.Series // controller's rate estimate over time
	Desired    *metrics.Series // model's desired container count
}

// Result is the outcome of a platform run.
type Result struct {
	Duration       time.Duration
	Functions      map[string]*FunctionResult
	Utilization    float64         // time-weighted mean cluster CPU utilization
	UtilizationTS  *metrics.Series // utilization over time
	ControllerOps  controller.Stats
	LargestFreeEnd int64
}

// Platform is the assembled simulated LaSS deployment.
type Platform struct {
	Engine     *sim.Engine
	Cluster    *cluster.Cluster
	Controller *controller.Controller
	Queues     map[string]*dispatch.Queue

	cfg     Config
	rng     *xrand.Rand
	results []tracked // registration order
	utilTWA *metrics.TimeWeightedAverage
	utilTS  *metrics.Series
	runErr  error
}

// New assembles a platform from the configuration.
func New(cfg Config) (*Platform, error) {
	engine := cfg.Engine
	if engine == nil {
		engine = sim.NewEngine()
	}
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		Engine:  engine,
		Cluster: cl,
		Queues:  make(map[string]*dispatch.Queue),
		cfg:     cfg,
		rng:     xrand.New(cfg.Seed ^ 0x1a55),
		utilTWA: metrics.NewTimeWeightedAverage(),
		utilTS:  metrics.NewSeries("utilization"),
	}
	hooks := controller.Hooks{
		Now: engine.Now,
		ScheduleColdStart: func(c *cluster.Container, delay time.Duration, ready func()) {
			engine.After(delay, ready)
		},
		OnReady: func(c *cluster.Container) {
			if q, ok := p.Queues[c.Function]; ok {
				if err := q.AddContainer(c); err != nil && p.runErr == nil {
					p.runErr = err
				}
			}
		},
		OnRemove: func(c *cluster.Container) {
			if q, ok := p.Queues[c.Function]; ok && q.Has(c) {
				if err := q.RemoveContainer(c); err != nil && p.runErr == nil {
					p.runErr = err
				}
			}
		},
		OnResize: func(c *cluster.Container) {
			if q, ok := p.Queues[c.Function]; ok {
				q.Resized(c)
			}
		},
	}
	ctl, err := controller.New(cfg.Controller, cl, hooks)
	if err != nil {
		return nil, err
	}
	p.Controller = ctl
	for name, w := range cfg.Users {
		if err := ctl.RegisterUser(name, w); err != nil {
			return nil, err
		}
	}
	for _, fc := range cfg.Functions {
		f, err := ctl.Register(fc.Spec, fc.User, fc.Weight, fc.SLO)
		if err != nil {
			return nil, err
		}
		slo := f.SLO
		q, err := dispatch.NewQueue(engine, fc.Spec, slo.Deadline, p.rng.Fork())
		if err != nil {
			return nil, err
		}
		q.TimeLimit = fc.TimeLimit
		p.Queues[fc.Spec.Name] = q
		p.results = append(p.results, tracked{fn: f, res: &FunctionResult{
			Name:       fc.Spec.Name,
			Containers: metrics.NewSeries(fc.Spec.Name + "/containers"),
			CPU:        metrics.NewSeries(fc.Spec.Name + "/cpu"),
			LambdaHat:  metrics.NewSeries(fc.Spec.Name + "/lambda"),
			Desired:    metrics.NewSeries(fc.Spec.Name + "/desired"),
		}})
	}
	// Prewarm pools before the run starts.
	for _, fc := range cfg.Functions {
		if fc.Prewarm > 0 {
			if err := ctl.Provision(fc.Spec.Name, fc.Prewarm); err != nil {
				return nil, fmt.Errorf("core: prewarm %s: %w", fc.Spec.Name, err)
			}
		}
	}
	return p, nil
}

// tracked pairs a registered function's result with its controller state,
// so record needs no map walk or name lookup.
type tracked struct {
	res *FunctionResult
	fn  *controller.Function
}

// arrivalBatch is how many upcoming arrival times a stream pre-generates
// from its private RNG. Batching amortizes schedule lookups; because the
// stream owns its RNG fork, pre-consuming deviates leaves results
// bit-for-bit identical to one-at-a-time generation.
const arrivalBatch = 64

// arrivalStream drives one function's Poisson arrivals without allocating
// per arrival: the fire callback is bound once, upcoming arrival times are
// batch-generated into a fixed buffer, and each fired arrival schedules
// only the next one — so the engine holds at most one pending timer per
// (site, function) stream.
type arrivalStream struct {
	p      *Platform
	arr    *workload.Arrivals
	fn     *controller.Function
	res    *FunctionResult
	q      *dispatch.Queue
	fireFn func()
	buf    [arrivalBatch]time.Duration
	n, i   int
	ended  bool // the schedule produced a short batch: no more arrivals
}

func (s *arrivalStream) fire() {
	s.res.Arrivals++
	// Only locally-admitted requests feed the rate estimator: a request
	// the offload hook diverts is served (and provisioned for) elsewhere,
	// and counting it here would inflate this site's demand estimate with
	// load it never serves.
	if s.q.Arrive() != nil {
		s.p.Controller.RecordArrivalOf(s.fn)
	}
	s.armNext()
}

// armNext schedules the next arrival from the buffer, refilling it from
// the generator when drained. The refill continues from the last buffered
// arrival time, which at that moment equals the engine's now.
func (s *arrivalStream) armNext() {
	if s.i == s.n {
		if s.ended {
			return
		}
		s.n = s.arr.NextN(s.p.Engine.Now(), s.buf[:])
		s.i = 0
		s.ended = s.n < len(s.buf)
		if s.n == 0 {
			return
		}
	}
	s.p.Engine.Schedule(s.buf[s.i], s.fireFn)
	s.i++
}

// startArrivals launches the Poisson arrival stream for one function.
func (p *Platform) startArrivals(fc FunctionConfig, t tracked) {
	if fc.Workload == nil {
		return
	}
	s := &arrivalStream{
		p:   p,
		arr: workload.NewArrivals(fc.Workload, p.rng.Fork()),
		fn:  t.fn,
		res: t.res,
		q:   p.Queues[fc.Spec.Name],
	}
	s.fireFn = s.fire
	// The first batch starts from t=0 regardless of when the stream is
	// installed, matching the schedule's origin.
	s.n = s.arr.NextN(0, s.buf[:])
	s.ended = s.n < len(s.buf)
	s.armNext()
}

// record samples the allocation and utilization series.
func (p *Platform) record() {
	now := p.Engine.Now()
	util := p.Cluster.CPUUtilization()
	p.utilTWA.Set(now, util)
	p.utilTS.Record(now, util)
	for _, t := range p.results {
		live := 0
		var cpu int64
		for _, c := range t.fn.Containers() {
			if c.State() == cluster.Starting || c.State() == cluster.Running {
				live++
				cpu += c.CPUCurrent
			}
		}
		t.res.Containers.Record(now, float64(live))
		t.res.CPU.Record(now, float64(cpu))
		t.res.LambdaHat.Record(now, t.fn.LambdaHat)
		t.res.Desired.Record(now, float64(t.fn.Desired))
	}
}

// Tick is the platform's epoch: a controller step (unless the controller
// is disabled or the run has failed), then a sample of the series at the
// same instant. Run calls it from one periodic event per evaluation
// interval; a federation calls every site's Tick from one fleet event.
func (p *Platform) Tick() {
	if !p.cfg.DisableController && p.runErr == nil {
		if err := p.Controller.Step(); err != nil {
			p.runErr = err
		}
	}
	p.record()
}

// Start installs the platform's arrival chains on its engine and records
// the initial sample, without running it or arming its epochs. Standalone
// runs use Run; the federation layer Starts each edge-site platform on a
// shared engine, Ticks every site from one periodic event, drives the
// engine itself, and then Collects per-site results.
func (p *Platform) Start() {
	for i, fc := range p.cfg.Functions {
		p.startArrivals(fc, p.results[i])
	}
	p.record()
}

// Run simulates the platform for the given duration, which must be
// positive, and returns the collected results.
func (p *Platform) Run(duration time.Duration) (*Result, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("core: run duration must be positive, got %v", duration)
	}
	p.Start()
	p.Engine.Every(p.Controller.Config().EvalInterval, p.Tick)
	p.Engine.RunUntil(duration)
	return p.Collect(duration)
}

// Collect finalizes measurement after the engine has run for duration and
// returns the platform's results.
func (p *Platform) Collect(duration time.Duration) (*Result, error) {
	if p.runErr != nil {
		return nil, p.runErr
	}
	p.record()
	res := &Result{
		Duration:       duration,
		Functions:      make(map[string]*FunctionResult, len(p.results)),
		Utilization:    p.utilTWA.Mean(duration),
		UtilizationTS:  p.utilTS,
		ControllerOps:  p.Controller.Stats(),
		LargestFreeEnd: p.Cluster.LargestFreeCPU(),
	}
	for _, t := range p.results {
		r := t.res
		q := p.Queues[r.Name]
		r.Waits = q.Waits
		r.Responses = q.Responses
		r.SLO = q.SLO
		r.Completed = q.Completed()
		r.Requeued = q.Requeued()
		r.TimedOut = q.TimedOut()
		r.Offloaded = q.Offloaded()
		r.Rejected = q.Rejected()
		res.Functions[r.Name] = r
	}
	return res, nil
}
