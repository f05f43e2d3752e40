// Package realtime runs the LaSS control plane against the wall clock: a
// small Function-as-a-Service runtime where a "container" is a concurrency
// slot in which the goroutine that called Invoke runs the registered Go
// handler, the dispatcher is the same weighted-round-robin FCFS queue design
// as the simulation's data path, and the identical controller code
// (internal/controller) estimates rates and reconciles pools every epoch.
//
// It exists to demonstrate that the reproduction is a real platform, not
// only a simulator: cmd/lass-server exposes it over HTTP and
// examples/edgeserver drives it programmatically. CPU enforcement is
// advisory — handlers receive their container's current CPU fraction and
// are expected to self-throttle (a production deployment would use cgroup
// quotas, as the paper's Docker-based prototype does).
package realtime

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/functions"
	"lass/internal/metrics"
	"lass/internal/queuing"
)

// Handler executes one invocation on the caller's goroutine. Its context,
// derived from the caller's, ends when the caller gives up, the container is
// removed or the platform stops, and carries the container's CPU fraction
// (CPUFraction(ctx)), by which CPU-bound emulations should scale their work.
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

// invocation is one queued request. Under the platform lock the pump sets w
// and the handler's ctx and signals ready if the caller waits (only then is
// it made); Stop signals it with w nil. cancelled is set when the caller's
// ctx ends while the request is still queued: the pump then drops it.
type invocation struct {
	ctx       context.Context
	payload   []byte
	arrived   time.Duration
	w         *worker
	ready     chan struct{}
	cancelled bool
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
	fn      *controller.Function
	handler Handler
	// queue[head:] waits, oldest first. Popped slots are cleared, so a
	// drained invocation and its payload are not kept alive.
	queue   []*invocation
	head    int
	workers []*worker // ID order; inserted, as cold starts can end out of order

	waits *metrics.Histogram // seconds
	slo   *metrics.SLOTracker
}

// Waits are tracked from 100 ns to 10⁴ s. waitBuckets geometric buckets over
// that range are 0.85% wide, which the histogram meets with 7 mantissa bits:
// 4,679 counters (37 KiB) per function, and P95Wait within 2^-8 (0.4%) of
// the exact order statistic however long the platform runs. A wait under
// 100 ns is underflow and reads back as at most 100 ns.
const (
	waitMin     = 100e-9
	waitMax     = 1e4
	waitBuckets = 3000
)

// push appends inv. When the array is full but has popped slots in front, the
// waiting entries slide down first, so a queue that never empties still
// reuses its array.
func (f *fnState) push(inv *invocation) {
	if f.head > 0 && len(f.queue) == cap(f.queue) {
		n := copy(f.queue, f.queue[f.head:])
		clear(f.queue[n:])
		f.queue, f.head = f.queue[:n], 0
	}
	f.queue = append(f.queue, inv)
}

// pop removes the oldest waiting invocation, rewinding to the start of the
// array once the queue is empty.
func (f *fnState) pop() {
	f.queue[f.head] = nil
	if f.head++; f.head == len(f.queue) {
		f.queue, f.head = f.queue[:0], 0
	}
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
			time.AfterFunc(delay, func() {
				p.mu.Lock()
				defer p.mu.Unlock()
				ready()
			})
		},
		// Hooks run with p.mu held (controller calls happen under it).
		OnReady: func(c *cluster.Container) {
			if f, ok := p.fns[c.Function]; ok {
				i, _ := f.search(c.ID)
				f.workers = slices.Insert(f.workers, i, &worker{c: c})
				p.pumpLocked(f)
			}
		},
		OnRemove: func(c *cluster.Container) {
			if f, ok := p.fns[c.Function]; ok {
				if i, found := f.search(c.ID); found {
					if w := f.workers[i]; w.cancel != nil {
						w.cancel() // in-flight handler is cancelled
					}
					f.workers = slices.Delete(f.workers, i, i+1)
				}
			}
		},
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
		fn:      f,
		handler: handler,
		waits:   metrics.NewHistogram(waitMin, waitMax, waitBuckets),
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

// Invoke runs one invocation on the calling goroutine once a container is
// free. If ctx ends while it is queued, Invoke returns ctx.Err() and it never
// runs; if ctx ends while it runs, the handler's context is cancelled.
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
	inv := &invocation{ctx: ctx, payload: payload, arrived: time.Since(p.origin)}
	p.ctl.RecordArrivalOf(f.fn)
	f.push(inv)
	p.pumpLocked(f)
	if inv.w == nil {
		inv.ready = make(chan struct{}, 1)
		p.mu.Unlock()
		err := ErrStopped
		select {
		case <-inv.ready:
		case <-ctx.Done():
			// Dispatched meanwhile, it runs; still queued, it never will.
			p.mu.Lock()
			inv.cancelled = inv.w == nil
			p.mu.Unlock()
			err = ctx.Err()
		}
		if inv.w == nil {
			return nil, err
		}
	} else {
		p.mu.Unlock()
	}
	defer p.release(f, inv.w)
	return f.handler(inv.ctx, inv.payload)
}

// release frees w once its handler has returned and hands it on.
func (p *Platform) release(f *fnState, w *worker) {
	p.mu.Lock()
	w.cancel()
	w.busy, w.cancel = false, nil
	p.pumpLocked(f)
	p.mu.Unlock()
	p.wg.Done()
}

// pumpLocked dispatches queued invocations to idle workers, dropping the
// ones whose caller gave up (caller holds p.mu).
func (p *Platform) pumpLocked(f *fnState) {
	for f.head < len(f.queue) {
		inv := f.queue[f.head]
		if inv.cancelled {
			f.pop()
			continue
		}
		w := p.selectIdleLocked(f)
		if w == nil {
			return
		}
		f.pop()
		p.startLocked(f, w, inv)
	}
}

// search finds container id's worker, or where it belongs.
func (f *fnState) search(id cluster.ContainerID) (int, bool) {
	return slices.BinarySearchFunc(f.workers, id, func(w *worker, id cluster.ContainerID) int { return cmp.Compare(w.c.ID, id) })
}

// selectIdleLocked is smooth WRR over idle workers, weighted by current
// CPU (identical to the simulation's data path); ties go to the lowest ID.
func (p *Platform) selectIdleLocked(f *fnState) *worker {
	var total float64
	var best *worker
	for _, w := range f.workers {
		if w.busy || !w.c.Servable() {
			continue
		}
		wt := float64(w.c.CPUCurrent)
		w.current += wt
		total += wt
		if best == nil || w.current > best.current {
			best = w
		}
	}
	if best != nil {
		best.current -= total
	}
	return best
}

// startLocked assigns w to inv and wakes inv's caller if it is waiting.
//
//lass:wallclock live waiting times are measured on the machine clock.
func (p *Platform) startLocked(f *fnState, w *worker, inv *invocation) {
	wait := time.Since(p.origin) - inv.arrived
	f.waits.Add(wait.Seconds())
	f.slo.Observe(wait)
	w.busy = true
	inv.ctx, w.cancel = context.WithCancel(context.WithValue(inv.ctx, cpuFractionKey, w.c.CPUFraction()))
	inv.w = w
	p.wg.Add(1)
	if inv.ready != nil {
		inv.ready <- struct{}{}
	}
}

// Snapshot reports a function's current state.
type Snapshot struct {
	Function   string
	Containers int
	CPUMillis  int64
	QueueLen   int
	LambdaHat  float64
	Desired    int
	// P95Wait is the nearest-rank 95th percentile of every waiting time
	// since Register, read from a fixed-size histogram (see waitBuckets).
	P95Wait    time.Duration
	Attainment float64
}

// Stats returns a snapshot for one function. It reads the wait histogram in
// O(buckets), without sorting, so polling it does not stall Invoke.
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
		QueueLen:   len(f.queue) - f.head,
		LambdaHat:  f.fn.LambdaHat,
		Desired:    f.fn.Desired,
		P95Wait:    time.Duration(f.waits.Quantile(0.95) * float64(time.Second)),
		Attainment: f.slo.Attainment(),
	}
	for _, c := range f.fn.Containers() {
		s.CPUMillis += c.CPUCurrent
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
// in-flight handlers are cancelled, and Stop returns once they have returned.
func (p *Platform) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	close(p.stopCh)
	for _, f := range p.fns {
		for _, inv := range f.queue[f.head:] {
			inv.ready <- struct{}{}
		}
		f.queue, f.head = nil, 0
		for _, w := range f.workers {
			if w.cancel != nil {
				w.cancel()
			}
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}
