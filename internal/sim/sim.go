// Package sim implements the discrete-event simulation engine that drives
// the LaSS reproduction experiments.
//
// The paper evaluates LaSS on a physical 3-node OpenWhisk cluster; this
// repository substitutes a discrete-event simulated edge cluster (see
// README.md's opening paragraph). The engine provides a virtual clock, a
// timer queue with stable FIFO ordering for simultaneous events, and
// periodic tasks.
//
// The hot path is allocation-free in steady state: timers are stored by
// value inside the scheduler, and callback slots are recycled through a
// free list, so a run that schedules and fires millions of events reuses a
// small working set instead of churning the garbage collector.
package sim

import (
	"fmt"
	"math"
	"time"
)

// timer is the value stored inside a scheduler: when to fire, the global
// FIFO tie-break sequence, and which callback slot to invoke. Cancellation
// is lazy — a timer whose slot generation no longer matches is a corpse and
// is discarded when popped (or swept out by compact).
type timer struct {
	at   time.Duration
	seq  uint64
	slot uint32
	gen  uint32
}

// timerLess orders timers by (at, seq): timestamp order with FIFO
// tie-breaking. seq is unique, so this is a strict total order and every
// correct scheduler yields the same firing sequence.
func timerLess(a, b timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot is one recyclable callback cell. gen increments whenever the slot's
// current timer is consumed (fired or cancelled), which atomically
// invalidates all outstanding Event handles and scheduler entries that
// reference the old generation.
type slot struct {
	fn  func()
	gen uint32
}

// Event is a handle to a scheduled callback, returned by Schedule and
// After. It is a small value (not a pointer): copying it is cheap and the
// zero value behaves like an already-consumed event, so structs embedding
// an Event need no nil checks. Events fire in timestamp order; events with
// equal timestamps fire in scheduling (FIFO) order, which keeps simulations
// deterministic.
type Event struct {
	eng *Engine
	idx uint32
	gen uint32
}

// Cancel marks the event so it will not fire. Cancelling an already-fired,
// already-cancelled, or zero-value event is a no-op. Cancellation is O(1):
// the callback slot is released immediately and the queued timer becomes a
// corpse that is either discarded when popped or swept out once corpses
// outnumber live timers.
func (ev Event) Cancel() {
	e := ev.eng
	if e == nil {
		return
	}
	s := &e.slots[ev.idx]
	if s.gen != ev.gen {
		return // already fired or cancelled
	}
	s.gen++
	s.fn = nil
	e.free = append(e.free, ev.idx)
	e.dead++
	e.maybeCompact()
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on the caller's
// goroutine.
type Engine struct {
	now   time.Duration
	seq   uint64
	sched heapScheduler
	slots []slot
	free  []uint32 // free-list of recyclable slot indices
	fired uint64
	dead  int // cancelled timers still queued in the scheduler
}

// NewEngine returns an engine with the virtual clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired returns the total number of events that have executed.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule queues fn to run at absolute virtual time at. Scheduling in the
// past (before Now) panics: it always indicates a model bug, and silently
// reordering time would corrupt results.
func (e *Engine) Schedule(at time.Duration, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var idx uint32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = uint32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.fn = fn
	e.sched.push(timer{at: at, seq: e.seq, slot: idx, gen: s.gen})
	e.seq++
	return Event{eng: e, idx: idx, gen: s.gen}
}

// maybeCompact sweeps cancelled timers out of the scheduler once they
// outnumber the live ones. This bounds the queued timer count at roughly
// twice the live count on long runs that cancel heavily (in-flight work
// aborted), instead of letting corpses pile up until their
// timestamps are popped. Amortized cost is O(1) per cancellation: after a
// sweep the queue must shrink-by-cancel to half again before the next one.
func (e *Engine) maybeCompact() {
	if e.dead*2 <= e.sched.len() {
		return
	}
	e.sched.compact(e.slots)
	e.dead = 0
}

// popLive removes and returns the next live timer with at <= deadline,
// consuming its callback slot. It is the single place corpses are drained
// (and e.dead decremented), so Step and RunUntil cannot disagree on the
// bookkeeping. A live timer beyond the deadline is pushed back — its
// (at, seq) key is unchanged, so the pop order is unaffected — and ok is
// false.
func (e *Engine) popLive(deadline time.Duration) (at time.Duration, fn func(), ok bool) {
	for {
		tm, any := e.sched.pop()
		if !any {
			return 0, nil, false
		}
		s := &e.slots[tm.slot]
		if s.gen != tm.gen {
			e.dead-- // cancelled corpse
			continue
		}
		if tm.at > deadline {
			e.sched.push(tm)
			return 0, nil, false
		}
		fn = s.fn
		s.fn = nil
		s.gen++
		e.free = append(e.free, tm.slot)
		return tm.at, fn, true
	}
}

// After queues fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Every schedules fn at now+period, then every period thereafter, until the
// run ends.
func (e *Engine) Every(period time.Duration, fn func()) *Task {
	if period <= 0 {
		panic("sim: Every with non-positive period")
	}
	t := newTask(e, period, fn)
	t.arm()
	return t
}

// EveryFrom behaves like Every but fires the first tick at start. A start
// before the current virtual time is clamped to now, mirroring After's
// treatment of negative delays.
func (e *Engine) EveryFrom(start, period time.Duration, fn func()) *Task {
	if period <= 0 {
		panic("sim: EveryFrom with non-positive period")
	}
	if start < e.now {
		start = e.now
	}
	t := newTask(e, period, fn)
	t.ev = e.Schedule(start, t.tickFn)
	return t
}

// Task is a periodic event created by Every/EveryFrom.
type Task struct {
	engine  *Engine
	period  time.Duration
	fn      func()
	tickFn  func() // bound once so re-arming does not allocate a method value
	ev      Event
	stopped bool // ends the ticks, even from inside fn
}

func newTask(e *Engine, period time.Duration, fn func()) *Task {
	t := &Task{engine: e, period: period, fn: fn}
	t.tickFn = t.tick
	return t
}

func (t *Task) arm() {
	t.ev = t.engine.After(t.period, t.tickFn)
}

func (t *Task) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

// Step executes the single next event, advancing the clock to its timestamp.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	at, fn, ok := e.popLive(math.MaxInt64)
	if !ok {
		return false
	}
	e.now = at
	e.fired++
	fn()
	return true
}

// RunUntil executes events until the virtual clock would pass deadline or no
// events remain. The clock is left at deadline if it was reached, so
// measurements of elapsed simulated time are exact.
func (e *Engine) RunUntil(deadline time.Duration) {
	for {
		at, fn, ok := e.popLive(deadline)
		if !ok {
			break
		}
		e.now = at
		e.fired++
		fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// heapScheduler is a value-typed binary min-heap over timers. Unlike
// container/heap it stores timers inline (no interface boxing, no per-event
// allocation) and pays no virtual dispatch on the sift paths. Cancelled
// timers stay queued as corpses: the engine filters them after popping and
// sweeps them via compact.
//
// pop leaves the root vacant instead of moving the last timer there and
// sifting it down. A push that follows (the completion a firing arrival
// schedules, or popLive's push-back) drops into the vacancy and sifts down
// from the root, usually only a level or two; a pop that follows refills
// it bottom-up (fill). Either way most events pay one sift, not two.
type heapScheduler struct {
	h      []timer
	vacant bool // h[0] is a hole left by pop
}

func (s *heapScheduler) push(tm timer) {
	if s.vacant {
		s.vacant = false
		s.h[0] = tm
		s.down(0)
		return
	}
	s.h = append(s.h, tm)
	s.up(len(s.h) - 1)
}

func (s *heapScheduler) pop() (timer, bool) {
	if s.vacant {
		s.fill()
	}
	if len(s.h) == 0 {
		return timer{}, false
	}
	s.vacant = true
	return s.h[0], true
}

func (s *heapScheduler) len() int {
	if s.vacant {
		return len(s.h) - 1
	}
	return len(s.h)
}

// fill closes the vacant root Floyd's way: the hole walks to a leaf along
// the smaller child, one comparison per level, and the last timer moves
// into it and sifts up (rarely far, since it came from the bottom).
func (s *heapScheduler) fill() {
	s.vacant = false
	n := len(s.h) - 1
	last := s.h[n]
	s.h = s.h[:n]
	if n == 0 {
		return
	}
	i := 0
	for l := 1; l < n; l = 2*i + 1 {
		if r := l + 1; r < n && timerLess(s.h[r], s.h[l]) {
			l = r
		}
		s.h[i] = s.h[l]
		i = l
	}
	s.h[i] = last
	s.up(i)
}

// compact removes every timer whose slot generation has moved on,
// preserving the pop order of the survivors. A vacant root still holds the
// popped timer, which popLive has consumed, so it goes with the corpses.
func (s *heapScheduler) compact(slots []slot) {
	s.vacant = false
	live := s.h[:0]
	for _, tm := range s.h {
		if slots[tm.slot].gen == tm.gen {
			live = append(live, tm)
		}
	}
	s.h = live
	for i := len(s.h)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

func (s *heapScheduler) up(i int) {
	tm := s.h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !timerLess(tm, s.h[p]) {
			break
		}
		s.h[i] = s.h[p]
		i = p
	}
	s.h[i] = tm
}

func (s *heapScheduler) down(i int) {
	n := len(s.h)
	tm := s.h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && timerLess(s.h[r], s.h[l]) {
			l = r
		}
		if !timerLess(s.h[l], tm) {
			break
		}
		s.h[i] = s.h[l]
		i = l
	}
	s.h[i] = tm
}
