package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// This file preserves the pre-refactor engine verbatim: one heap-allocated
// *RefEvent per scheduled callback, pushed through container/heap. It is
// the oracle for the differential scheduler tests, which replay randomized
// schedule/cancel/periodic workloads against the reference and the
// production engine and require identical firing order.

// RefEvent is the reference engine's scheduled callback.
type RefEvent struct {
	at   time.Duration
	seq  uint64
	fn   func()
	dead bool
	idx  int
	eng  *RefEngine
}

// Cancel marks the event so it will not fire.
func (e *RefEvent) Cancel() {
	if e == nil || e.dead {
		return
	}
	e.dead = true
	if e.eng != nil && e.idx >= 0 {
		e.eng.dead++
		e.eng.maybeCompact()
	}
}

// At returns the scheduled fire time of the event.
func (e *RefEvent) At() time.Duration { return e.at }

type refEventHeap []*RefEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refEventHeap) Push(x any) {
	e := x.(*RefEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// RefEngine is the pre-refactor discrete-event engine.
type RefEngine struct {
	now    time.Duration
	seq    uint64
	events refEventHeap
	fired  uint64
	dead   int
}

// NewRefEngine returns a reference engine with the virtual clock at zero.
func NewRefEngine() *RefEngine {
	return &RefEngine{}
}

// Now returns the current virtual time.
func (e *RefEngine) Now() time.Duration { return e.now }

// Pending returns the number of queued events (including corpses).
func (e *RefEngine) Pending() int { return len(e.events) }

// Fired returns the total number of events that have executed.
func (e *RefEngine) Fired() uint64 { return e.fired }

// Schedule queues fn to run at absolute virtual time at.
func (e *RefEngine) Schedule(at time.Duration, fn func()) *RefEvent {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := &RefEvent{at: at, seq: e.seq, fn: fn, eng: e}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

func (e *RefEngine) maybeCompact() {
	if e.dead*2 <= len(e.events) {
		return
	}
	old := e.events
	live := old[:0]
	for _, ev := range old {
		if ev.dead {
			ev.idx = -1
			continue
		}
		ev.idx = len(live)
		live = append(live, ev)
	}
	for i := len(live); i < len(old); i++ {
		old[i] = nil
	}
	e.events = live
	e.dead = 0
	heap.Init(&e.events)
}

// After queues fn to run d after the current virtual time.
func (e *RefEngine) After(d time.Duration, fn func()) *RefEvent {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Every schedules fn at now+period, then every period thereafter.
func (e *RefEngine) Every(period time.Duration, fn func()) *RefTask {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := &RefTask{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

// RefTask is a periodic event on the reference engine.
type RefTask struct {
	engine  *RefEngine
	period  time.Duration
	fn      func()
	ev      *RefEvent
	stopped bool
}

func (t *RefTask) arm() {
	t.ev = t.engine.After(t.period, t.tick)
}

func (t *RefTask) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Stop cancels future ticks.
func (t *RefTask) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// Step executes the single next event, advancing the clock to its timestamp.
func (e *RefEngine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*RefEvent)
		if ev.dead {
			e.dead--
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// RunUntil executes events until the clock would pass deadline.
func (e *RefEngine) RunUntil(deadline time.Duration) {
	for len(e.events) > 0 {
		next := e.events[0]
		if next.dead {
			heap.Pop(&e.events)
			e.dead--
			continue
		}
		if next.at > deadline {
			break
		}
		heap.Pop(&e.events)
		e.now = next.at
		e.fired++
		next.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until none remain.
func (e *RefEngine) Run() {
	for e.Step() {
	}
}
