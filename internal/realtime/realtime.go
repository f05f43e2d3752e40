// Package realtime runs the LaSS control plane against the wall clock: a
// small Function-as-a-Service runtime where "containers" are worker
// goroutines executing registered Go handlers, the dispatcher is the same
// weighted-round-robin FCFS queue design as the simulation's data path,
// and the identical controller code (internal/controller) estimates rates
// and reconciles pools every evaluation interval.
//
// It exists to demonstrate that the reproduction is a real platform, not
// only a simulator: cmd/lass-server exposes it over HTTP and
// examples/edgeserver drives it programmatically. CPU enforcement is
// advisory — handlers receive their container's current CPU fraction and
// are expected to self-throttle (a production deployment would use cgroup
// quotas, as the paper's Docker-based prototype does).
package realtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/functions"
	"lass/internal/metrics"
	"lass/internal/queuing"
)

// Handler executes one invocation. The context carries the container's
// CPU fraction (CPUFraction(ctx)); implementations emulating CPU-bound
// work should scale their effort by it.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

type ctxKey int

const cpuFractionKey ctxKey = iota

// CPUFraction returns the executing container's current CPU allocation as
// a fraction of its standard size (1.0 outside a handler).
func CPUFraction(ctx context.Context) float64 {
	if v, ok := ctx.Value(cpuFractionKey).(float64); ok {
		return v
	}
	return 1
}

// invocation is one queued request. cancelled is set, under the platform
// lock, when the caller's context ends while the request is still queued:
// the pump then drops it instead of running it.
type invocation struct {
	payload   []byte
	arrived   time.Duration
	done      chan result
	cancelled bool
}

type result struct {
	out []byte
	err error
}

// worker is the run-time state of one container.
type worker struct {
	c       *cluster.Container
	busy    bool
	current float64 // smooth-WRR counter
	cancel  context.CancelFunc
}

// fnState is one registered function.
type fnState struct {
	handler Handler
	queue   []*invocation
	workers map[cluster.ContainerID]*worker

	waits *metrics.Reservoir
	slo   *metrics.SLOTracker
}

// Config tunes the runtime.
type Config struct {
	Cluster    cluster.Config
	Controller controller.Config
}

// Platform is the wall-clock LaSS runtime.
type Platform struct {
	mu      sync.Mutex
	cl      *cluster.Cluster
	ctl     *controller.Controller
	fns     map[string]*fnState
	origin  time.Time
	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// ErrStopped is returned by Invoke after Stop.
var ErrStopped = errors.New("realtime: platform stopped")

// New builds and starts the runtime; the controller begins stepping
// immediately.
//
//lass:wallclock the real-time platform serves live traffic on the machine clock.
func New(cfg Config) (*Platform, error) {
	cl, err := cluster.New(cfg.Cluster)
	if err != nil {
		return nil, err
	}
	p := &Platform{
		cl:     cl,
		fns:    make(map[string]*fnState),
		origin: time.Now(),
		stopCh: make(chan struct{}),
	}
	hooks := controller.Hooks{
		Now: func() time.Duration { return time.Since(p.origin) },
		ScheduleColdStart: func(c *cluster.Container, delay time.Duration, ready func()) {
			timer := time.AfterFunc(delay, func() {
				p.mu.Lock()
				defer p.mu.Unlock()
				ready()
			})
			_ = timer
		},
		// Hooks run with p.mu held (controller calls happen under it).
		OnReady: func(c *cluster.Container) {
			if f, ok := p.fns[c.Function]; ok {
				f.workers[c.ID] = &worker{c: c}
				p.pumpLocked(f)
			}
		},
		OnRemove: func(c *cluster.Container) {
			if f, ok := p.fns[c.Function]; ok {
				if w := f.workers[c.ID]; w != nil {
					if w.cancel != nil {
						w.cancel() // in-flight handler is cancelled
					}
					delete(f.workers, c.ID)
				}
			}
		},
		OnResize: func(c *cluster.Container) {},
	}
	ctl, err := controller.New(cfg.Controller, cl, hooks)
	if err != nil {
		return nil, err
	}
	p.ctl = ctl
	interval := ctl.Config().EvalInterval
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case <-ticker.C:
				p.mu.Lock()
				_ = p.ctl.Step()
				for _, f := range p.fns {
					p.pumpLocked(f)
				}
				p.mu.Unlock()
			}
		}
	}()
	return p, nil
}

// Register adds a function with its handler. A zero SLO uses the
// controller default.
func (p *Platform) Register(spec functions.Spec, handler Handler, slo queuing.SLO) error {
	if handler == nil {
		return fmt.Errorf("realtime: nil handler for %s", spec.Name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.ctl.Register(spec, "", 0, slo)
	if err != nil {
		return err
	}
	p.fns[spec.Name] = &fnState{
		handler: handler,
		workers: make(map[cluster.ContainerID]*worker),
		waits:   metrics.NewReservoir(),
		slo:     metrics.NewSLOTracker(f.SLO.Deadline),
	}
	return nil
}

// Provision pre-warms n containers for a function.
func (p *Platform) Provision(function string, n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ctl.Provision(function, n)
}

// Invoke runs one invocation, blocking until it completes or ctx is done.
//
//lass:wallclock live-request arrival timestamps come from the machine clock.
func (p *Platform) Invoke(ctx context.Context, function string, payload []byte) ([]byte, error) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return nil, ErrStopped
	}
	f, ok := p.fns[function]
	if !ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("realtime: unknown function %q", function)
	}
	inv := &invocation{
		payload: payload,
		arrived: time.Since(p.origin),
		done:    make(chan result, 1),
	}
	p.ctl.RecordArrival(function)
	f.queue = append(f.queue, inv)
	p.pumpLocked(f)
	p.mu.Unlock()

	select {
	case r := <-inv.done:
		return r.out, r.err
	case <-ctx.Done():
		// An invocation already dispatched runs to completion; one still
		// queued must never occupy a worker or count in Stats.
		p.mu.Lock()
		inv.cancelled = true
		p.mu.Unlock()
		return nil, ctx.Err()
	}
}

// pumpLocked dispatches queued invocations to idle workers, dropping the
// ones whose caller gave up (caller holds p.mu).
func (p *Platform) pumpLocked(f *fnState) {
	for len(f.queue) > 0 {
		inv := f.queue[0]
		if inv.cancelled {
			f.queue = f.queue[1:]
			continue
		}
		w := p.selectIdleLocked(f)
		if w == nil {
			return
		}
		f.queue = f.queue[1:]
		p.startLocked(f, w, inv)
	}
}

// selectIdleLocked is smooth WRR over idle workers, weighted by current
// CPU (identical to the simulation's data path).
func (p *Platform) selectIdleLocked(f *fnState) *worker {
	var total float64
	var best *worker
	// Live traffic: worker selection races arrivals anyway, and the
	// smooth-WRR winner is order-independent given the ID tie-break below.
	//lass:unordered
	for _, w := range f.workers {
		if w.busy || !w.c.Servable() {
			continue
		}
		wt := float64(w.c.CPUCurrent)
		w.current += wt
		total += wt
		if best == nil || w.current > best.current ||
			(w.current == best.current && w.c.ID < best.c.ID) {
			best = w
		}
	}
	if best != nil {
		best.current -= total
	}
	return best
}

//lass:wallclock live waiting times are measured on the machine clock.
func (p *Platform) startLocked(f *fnState, w *worker, inv *invocation) {
	now := time.Since(p.origin)
	wait := now - inv.arrived
	f.waits.AddDuration(wait)
	f.slo.Observe(wait)
	w.busy = true
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), cpuFractionKey, w.c.CPUFraction()))
	w.cancel = cancel
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		out, err := f.handler(ctx, inv.payload)
		cancel()
		inv.done <- result{out: out, err: err}
		p.mu.Lock()
		w.busy = false
		w.cancel = nil
		p.pumpLocked(f)
		p.mu.Unlock()
	}()
}

// Snapshot reports a function's current state.
type Snapshot struct {
	Function   string
	Containers int
	CPUMillis  int64
	QueueLen   int
	LambdaHat  float64
	Desired    int
	P95Wait    time.Duration
	Attainment float64
}

// Stats returns a snapshot for one function.
func (p *Platform) Stats(function string) (Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.fns[function]
	if !ok {
		return Snapshot{}, fmt.Errorf("realtime: unknown function %q", function)
	}
	s := Snapshot{
		Function:   function,
		Containers: len(f.workers),
		CPUMillis:  p.cl.CPUOf(function),
		QueueLen:   len(f.queue),
		P95Wait:    time.Duration(f.waits.Quantile(0.95) * float64(time.Second)),
		Attainment: f.slo.Attainment(),
	}
	if lf, ok := p.ctl.Function(function); ok {
		s.LambdaHat = lf.LambdaHat
		s.Desired = lf.Desired
	}
	return s, nil
}

// Utilization returns the cluster's current CPU allocation fraction.
func (p *Platform) Utilization() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cl.CPUUtilization()
}

// Stop shuts the platform down. Queued invocations fail with ErrStopped;
// in-flight handlers are cancelled.
func (p *Platform) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	close(p.stopCh)
	for _, f := range p.fns {
		for _, inv := range f.queue {
			inv.done <- result{err: ErrStopped}
		}
		f.queue = nil
		for _, w := range f.workers {
			if w.cancel != nil {
				w.cancel()
			}
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}
