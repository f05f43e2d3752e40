// Package dispatch implements LaSS's data path (paper §5, Fig 2b): each
// function has a FCFS request queue, and a weighted-round-robin load
// balancer assigns queued requests to idle containers, weighting each
// container by its current CPU allocation so deflated containers receive
// proportionally less work ("Knowing all the containers and their size
// information, the load balancer uses the weighted round robin (WRR)
// algorithm to directly schedule function invocation requests to each
// individual container").
//
// The package runs inside the discrete-event simulation: service
// completions are events on the engine. Waiting time (arrival → dispatch)
// and response time (arrival → completion) are recorded per request, which
// is exactly the P95-waiting-time metric of Figs 3 and 4.
package dispatch

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"lass/internal/cluster"
	"lass/internal/functions"
	"lass/internal/metrics"
	"lass/internal/sim"
	"lass/internal/xrand"
)

// Request is one function invocation traveling through the data path.
//
// Requests are pooled: the queue that created a request recycles it as soon
// as its lifecycle ends — after the Done callback returns, after a timeout,
// or after an Offload hook claims (and synchronously disposes of) it. Code
// observing a request, including Done callbacks and Offload hooks, must not
// retain the pointer past its own return; copy out any fields needed later.
type Request struct {
	ID       uint64
	Function string
	Arrival  time.Duration
	Start    time.Duration // when service began (valid once started)
	Finish   time.Duration // when service completed (valid once done)
	Requeues int           // times the request was bounced by a container termination

	// Done, when set, is invoked once the request completes service
	// (after Finish is recorded). Requests killed by the hard execution
	// limit never complete, so Done does not fire for them. The
	// federation layer uses this to account end-to-end latency for
	// requests it placed.
	Done func(*Request)

	pooled bool // guards against use of a recycled request
}

// Wait returns the queueing delay.
func (r *Request) Wait() time.Duration { return r.Start - r.Arrival }

// Response returns the end-to-end latency.
func (r *Request) Response() time.Duration { return r.Finish - r.Arrival }

// wrrEntry is the smooth-WRR bookkeeping for one container. Completion and
// timeout callbacks are bound once at attach time, so starting a request
// allocates nothing.
type wrrEntry struct {
	q        *Queue
	c        *cluster.Container
	current  float64
	busy     bool
	inflight *Request
	done     sim.Event

	// rate is spec.RateAt of the container's CPU fraction, memoized at cpu
	// (the CPUCurrent it was computed from) so a resize notification that
	// changed nothing costs one compare.
	rate float64
	cpu  int64
	// law is the container's service-time distribution at lawCPU (-1
	// before its first request). start recomputes it whenever CPUCurrent
	// differs, whether or not Resized was called, and leaves rate and the
	// pool's capacity alone.
	law    functions.ServiceLaw
	lawCPU int64

	completeFn func()
	timeoutFn  func()
}

func (e *wrrEntry) complete() {
	q := e.q
	r := e.inflight
	e.busy = false
	e.inflight = nil
	q.busy--
	r.Finish = q.engine.Now()
	q.Responses.AddDuration(r.Response())
	q.completed++
	if r.Done != nil {
		r.Done(r)
	}
	q.release(r)
	q.pump()
}

func (e *wrrEntry) timeout() {
	q := e.q
	r := e.inflight
	e.busy = false
	e.inflight = nil
	q.busy--
	q.timedOut++
	q.release(r)
	q.pump()
}

// Queue is the per-function dispatcher.
type Queue struct {
	engine *sim.Engine
	spec   functions.Spec
	rng    *xrand.Rand

	fifo []*Request // waiting requests live in fifo[head:]
	head int
	pool []*Request // recycled Request objects
	// order holds the attached entries sorted by container ID, the only
	// index of them: lookups binary-search it (find), and every
	// per-request walk (WRR selection, capacity sums) iterates it, so the
	// float accumulations below follow one fixed order and replayed runs
	// stay bit-identical.
	order  []*wrrEntry
	nextID uint64

	// capacity is the sum of the attached entries' rates and busy the number
	// of them in service. Placement reads both once per candidate site per
	// request, so they are maintained where they change — attach, detach,
	// resize; start, complete, timeout — instead of recomputed per read.
	capacity float64
	busy     int

	// Waits and Responses collect per-request timing; SLO tracks the
	// waiting-time deadline the evaluation provisions against.
	Waits     *metrics.Reservoir
	Responses *metrics.Reservoir
	SLO       *metrics.SLOTracker

	// TimeLimit is the FaaS hard execution limit (§2.1: "the computation
	// is terminated if it does not complete execution within this
	// limit"). Zero disables. A timed-out request frees its container
	// and counts in TimedOut instead of Completed.
	TimeLimit time.Duration

	// Offload, when set, is consulted on the enqueue path: Arrive builds
	// the request, offers it to the hook, and only enqueues it locally if
	// the hook declines (returns false). A hook that returns true takes
	// ownership of the request — the federation placement layer serves it
	// at a peer site or the cloud — and the local queue records nothing
	// about it beyond the Offloaded counter.
	Offload func(*Request) bool

	completed uint64
	requeued  uint64
	timedOut  uint64
	offloaded uint64
	rejected  uint64
}

// NewQueue builds a dispatcher for one function. sloDeadline bounds the
// waiting time (§6.1's default: P95 wait ≤ 100 ms).
func NewQueue(engine *sim.Engine, spec functions.Spec, sloDeadline time.Duration, rng *xrand.Rand) (*Queue, error) {
	if engine == nil || rng == nil {
		return nil, fmt.Errorf("dispatch: nil engine or rng")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Queue{
		engine:    engine,
		spec:      spec,
		rng:       rng,
		Waits:     metrics.NewReservoir(),
		Responses: metrics.NewReservoir(),
		SLO:       metrics.NewSLOTracker(sloDeadline),
	}, nil
}

// Spec returns the function spec this queue serves.
func (q *Queue) Spec() functions.Spec { return q.spec }

// QueueLength returns the number of requests waiting (not in service).
func (q *Queue) QueueLength() int { return len(q.fifo) - q.head }

// alloc takes a request from the pool (or allocates one) and initializes it
// as a fresh arrival. The caller owns the returned request and must release
// or transfer it on every path (checked by the donerelease analyzer).
//
//lass:acquires
func (q *Queue) alloc() *Request {
	var r *Request
	if n := len(q.pool); n > 0 {
		r = q.pool[n-1]
		q.pool[n-1] = nil
		q.pool = q.pool[:n-1]
		*r = Request{}
	} else {
		r = &Request{}
	}
	q.nextID++
	r.ID = q.nextID
	r.Function = q.spec.Name
	r.Arrival = q.engine.Now()
	return r
}

// release returns a finished request to the pool. Releasing the same
// request twice would alias two in-flight invocations, so it panics.
//
//lass:releases the request is recycled; no use may follow.
func (q *Queue) release(r *Request) {
	if r.pooled {
		panic("dispatch: request released twice")
	}
	r.pooled = true
	r.Done = nil
	q.pool = append(q.pool, r)
}

// InFlight returns the number of requests currently in service.
func (q *Queue) InFlight() int { return q.busy }

// Completed returns the number of requests finished.
func (q *Queue) Completed() uint64 { return q.completed }

// TimedOut returns the number of requests killed by the hard execution
// time limit.
func (q *Queue) TimedOut() uint64 { return q.timedOut }

// Requeued returns the number of requeue events caused by container
// terminations (the paper counts these as a cost of the termination
// policy, §6.7: "fewer requests that need to be rerun").
func (q *Queue) Requeued() uint64 { return q.requeued }

// Offloaded returns the number of arrivals claimed by the Offload hook.
func (q *Queue) Offloaded() uint64 { return q.offloaded }

// Rejected returns the number of arrivals refused by admission control.
func (q *Queue) Rejected() uint64 { return q.rejected }

// Reject records one arrival refused by admission control (§3.4): the
// request is dropped without being enqueued or served anywhere. The
// federation's offload-aware admission calls this only after every peer
// and the cloud declined — a rejected request therefore stays an SLO
// violation at its origin (via the unresolved accounting).
func (q *Queue) Reject(r *Request) { q.rejected++ }

// Containers returns the number of containers attached to the queue.
func (q *Queue) Containers() int { return len(q.order) }

// ServiceCapacity returns the aggregate service rate (req/s) of the
// attached containers at their current (possibly deflated) CPU
// allocations. The federation placement policy uses it to predict how
// fast a site can drain its backlog. The value is maintained, not computed
// here: it tracks CPU changes through Resized, so whoever resizes an
// attached container must report it.
func (q *Queue) ServiceCapacity() float64 { return q.capacity }

// IdleContainers returns the number of attached, non-busy containers.
func (q *Queue) IdleContainers() int { return len(q.order) - q.busy }

// Resized tells the queue that the container's CPU allocation may have
// changed (the controller's OnResize hook): its memoized service rate and
// the pool's ServiceCapacity follow. Containers not attached here — still
// cold-starting, or another function's — are ignored.
func (q *Queue) Resized(c *cluster.Container) {
	at, ok := q.find(c)
	if !ok || q.order[at].cpu == c.CPUCurrent {
		return
	}
	q.setRate(q.order[at])
	q.resumCapacity()
}

// find returns the position in order where c's entry is, or would be
// inserted, and whether it is attached.
func (q *Queue) find(c *cluster.Container) (int, bool) {
	return slices.BinarySearchFunc(q.order, c.ID, func(e *wrrEntry, id cluster.ContainerID) int { return cmp.Compare(e.c.ID, id) })
}

// setRate memoizes e's service rate at its container's current CPU.
func (q *Queue) setRate(e *wrrEntry) {
	e.cpu = e.c.CPUCurrent
	e.rate = q.spec.RateAt(e.c.CPUFraction())
}

// resumCapacity recomputes the pool's aggregate service rate from the
// memoized per-container rates. It re-adds every term rather than adjusting
// the old sum by a difference: float addition is not associative, and the
// result must equal a fresh sum over the pool bit for bit. It always
// accumulates in container-ID order.
//
//lass:bitexact the sum feeds placement predictions compared across sites.
func (q *Queue) resumCapacity() {
	var total float64
	for _, e := range q.order {
		total += e.rate
	}
	q.capacity = total
}

// AddContainer attaches a servable container to the load balancer.
func (q *Queue) AddContainer(c *cluster.Container) error {
	if c.Function != q.spec.Name {
		return fmt.Errorf("dispatch: container %d belongs to %s, not %s", c.ID, c.Function, q.spec.Name)
	}
	if !c.Servable() {
		return fmt.Errorf("dispatch: container %d is %v, not servable", c.ID, c.State())
	}
	at, dup := q.find(c)
	if dup {
		return fmt.Errorf("dispatch: container %d already attached", c.ID)
	}
	e := &wrrEntry{q: q, c: c, lawCPU: -1}
	e.completeFn = e.complete
	e.timeoutFn = e.timeout
	q.setRate(e)
	// Keep order sorted by container ID. IDs are issued monotonically, so
	// the common case appends; reattachment after churn inserts.
	q.order = slices.Insert(q.order, at, e)
	q.resumCapacity()
	q.pump()
	return nil
}

// RemoveContainer detaches a container. If a request is in flight on it,
// the request is aborted and requeued at the head of the FIFO (it keeps its
// original arrival time, so its eventual waiting time reflects the rerun
// cost the paper attributes to termination).
func (q *Queue) RemoveContainer(c *cluster.Container) error {
	at, ok := q.find(c)
	if !ok {
		return fmt.Errorf("dispatch: container %d not attached", c.ID)
	}
	e := q.order[at]
	q.order = slices.Delete(q.order, at, at+1)
	q.resumCapacity()
	if e.busy && e.inflight != nil {
		q.busy--
		e.done.Cancel()
		r := e.inflight
		r.Requeues++
		q.requeued++
		q.requeueFront(r)
	}
	q.pump()
	return nil
}

// requeueFront puts an aborted in-flight request back at the head of the
// FIFO, reusing the slack before head when the deque has one.
//
//lass:transfers the FIFO re-owns the aborted request.
func (q *Queue) requeueFront(r *Request) {
	if q.head > 0 {
		q.head--
		q.fifo[q.head] = r
		return
	}
	q.fifo = append(q.fifo, nil)
	copy(q.fifo[1:], q.fifo)
	q.fifo[0] = r
}

// Has reports whether the container is attached.
func (q *Queue) Has(c *cluster.Container) bool {
	_, ok := q.find(c)
	return ok
}

// Arrive enqueues a new invocation at the current simulation time and
// dispatches immediately if a container is idle. When an Offload hook is
// set and claims the request, nothing is enqueued, the request is recycled
// the moment the hook returns, and Arrive returns nil. The returned pointer
// is only valid until the request's lifecycle ends (see Request).
func (q *Queue) Arrive() *Request {
	r := q.alloc()
	if q.Offload != nil && q.Offload(r) {
		q.offloaded++
		q.release(r)
		return nil
	}
	q.enqueue(r)
	return r
}

// ArriveOffloaded enqueues an invocation that a peer site's placement
// layer offloaded here. The Offload hook is deliberately not consulted, so
// offloaded work cannot bounce between sites.
func (q *Queue) ArriveOffloaded() *Request {
	r := q.alloc()
	q.enqueue(r)
	return r
}

// enqueue appends the request to the FIFO, which owns it from here; the
// dispatch/complete path releases it. pump rewinds head only when the FIFO
// empties, so under a standing backlog a full array first slides its
// waiting requests down over the slack before head: the array then grows
// only with the backlog itself, not with every arrival of the busy period.
//
//lass:transfers
func (q *Queue) enqueue(r *Request) {
	if q.head > 0 && len(q.fifo) == cap(q.fifo) {
		n := copy(q.fifo, q.fifo[q.head:])
		clear(q.fifo[n:])
		q.fifo, q.head = q.fifo[:n], 0
	}
	q.fifo = append(q.fifo, r)
	q.pump()
}

// selectIdle picks the idle container by smooth weighted round-robin with
// weights equal to current CPU allocation. Returns nil when all busy.
// Walking q.order pins the accumulation to container-ID order, so selection
// is a pure function of the queue state, and the strict comparison gives
// ties to the lowest container ID.
//
//lass:bitexact the running weights and their total are floats.
func (q *Queue) selectIdle() *wrrEntry {
	var total float64
	var best *wrrEntry
	for _, e := range q.order {
		if e.busy {
			continue
		}
		w := float64(e.c.CPUCurrent)
		e.current += w
		total += w
		if best == nil || e.current > best.current {
			best = e
		}
	}
	if best != nil {
		best.current -= total
	}
	return best
}

// pump dispatches queued requests onto idle containers until one side runs
// out.
func (q *Queue) pump() {
	for q.head < len(q.fifo) {
		e := q.selectIdle()
		if e == nil {
			return
		}
		r := q.fifo[q.head]
		q.fifo[q.head] = nil
		q.head++
		if q.head == len(q.fifo) {
			q.fifo = q.fifo[:0]
			q.head = 0
		}
		q.start(e, r)
	}
}

// start begins service for r on e's container.
func (q *Queue) start(e *wrrEntry, r *Request) {
	r.Start = q.engine.Now()
	q.Waits.AddDuration(r.Wait())
	q.SLO.Observe(r.Wait())
	if e.lawCPU != e.c.CPUCurrent {
		e.lawCPU = e.c.CPUCurrent
		e.law = q.spec.ServiceLaw(e.c.CPUFraction())
	}
	service := e.law.Sample(q.rng)
	e.busy = true
	e.inflight = r
	q.busy++
	if q.TimeLimit > 0 && service > q.TimeLimit {
		// The platform kills the execution at the hard limit (§2.1); the
		// container is occupied for the full limit, then freed.
		e.done = q.engine.After(q.TimeLimit, e.timeoutFn)
		return
	}
	e.done = q.engine.After(service, e.completeFn)
}
