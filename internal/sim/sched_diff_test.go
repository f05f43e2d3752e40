package sim

// Differential scheduler tests: the production engine must fire events in
// exactly the order of the pre-refactor reference engine under randomized
// schedule/cancel/periodic workloads. Each engine replays an identical
// self-scheduling script driven by its own deterministically seeded RNG;
// because callbacks consume random bits in fire order, any ordering
// divergence immediately desynchronizes the recorded traces and fails the
// comparison.

import (
	"fmt"
	"testing"
	"time"

	"lass/internal/xrand"
)

type fuzzHandle interface{ cancel() }

type fuzzEng interface {
	now() time.Duration
	schedule(at time.Duration, fn func()) fuzzHandle
	every(period time.Duration, fn func()) (stop func())
	runUntil(t time.Duration)
	run()
	fired() uint64
	pending() int
}

type prodAdapter struct{ e *Engine }

func (a prodAdapter) now() time.Duration { return a.e.Now() }
func (a prodAdapter) schedule(at time.Duration, fn func()) fuzzHandle {
	return prodHandle{a.e.Schedule(at, fn)}
}
func (a prodAdapter) every(period time.Duration, fn func()) func() {
	t := a.e.Every(period, fn)
	return t.Stop
}
func (a prodAdapter) runUntil(t time.Duration) { a.e.RunUntil(t) }
func (a prodAdapter) run()                     { a.e.Run() }
func (a prodAdapter) fired() uint64            { return a.e.Fired() }
func (a prodAdapter) pending() int             { return a.e.Pending() }

type prodHandle struct{ ev Event }

func (h prodHandle) cancel() { h.ev.Cancel() }

type refAdapter struct{ e *RefEngine }

func (a refAdapter) now() time.Duration { return a.e.Now() }
func (a refAdapter) schedule(at time.Duration, fn func()) fuzzHandle {
	return refHandle{a.e.Schedule(at, fn)}
}
func (a refAdapter) every(period time.Duration, fn func()) func() {
	t := a.e.Every(period, fn)
	return t.Stop
}
func (a refAdapter) runUntil(t time.Duration) { a.e.RunUntil(t) }
func (a refAdapter) run()                     { a.e.Run() }
func (a refAdapter) fired() uint64            { return a.e.Fired() }
func (a refAdapter) pending() int             { return a.e.Pending() }

type refHandle struct{ ev *RefEvent }

func (h refHandle) cancel() { h.ev.Cancel() }

// runFuzzScript executes a randomized self-scheduling workload and returns
// the trace of (event ID, virtual time) firings. Callbacks spawn children,
// cancel random outstanding events, and start auto-stopping periodic tasks;
// the drain loop alternates RunUntil windows with the final Run.
func runFuzzScript(e fuzzEng, seed uint64) []string {
	rng := xrand.New(seed)
	var trace []string
	var outstanding []fuzzHandle
	var stops []func()
	nextID := 0
	var spawn func(id int) func()
	spawn = func(id int) func() {
		return func() {
			trace = append(trace, fmt.Sprintf("%d@%d", id, e.now()))
			switch r := rng.Uint64() % 100; {
			case r < 42: // spawn 1-3 children at short random delays
				k := 1 + int(rng.Uint64()%3)
				for i := 0; i < k; i++ {
					id2 := nextID
					nextID++
					d := time.Duration(rng.Uint64() % uint64(5*time.Millisecond))
					outstanding = append(outstanding, e.schedule(e.now()+d, spawn(id2)))
				}
			case r < 62: // cancel a random outstanding handle (may be stale)
				if len(outstanding) > 0 {
					outstanding[rng.Uint64()%uint64(len(outstanding))].cancel()
				}
			case r < 72: // start a periodic task that stops after 5 ticks
				tid := nextID
				nextID++
				ticks := 0
				idx := len(stops)
				period := time.Duration(1 + rng.Uint64()%uint64(time.Millisecond))
				stops = append(stops, nil)
				stops[idx] = e.every(period, func() {
					trace = append(trace, fmt.Sprintf("t%d@%d", tid, e.now()))
					ticks++
					if ticks >= 5 {
						stops[idx]()
					}
				})
			case r < 80: // stop a random periodic task (may already be stopped)
				if len(stops) > 0 {
					stops[rng.Uint64()%uint64(len(stops))]()
				}
			default: // fire and do nothing
			}
		}
	}
	for i := 0; i < 30; i++ {
		id := nextID
		nextID++
		at := time.Duration(rng.Uint64() % uint64(2*time.Millisecond))
		outstanding = append(outstanding, e.schedule(at, spawn(id)))
	}
	// Drain in windows so RunUntil's push-back path is exercised, then
	// stop all periodic tasks and run to empty.
	for w := 1; w <= 40; w++ {
		e.runUntil(time.Duration(w) * time.Millisecond)
	}
	for _, stop := range stops {
		stop()
	}
	e.run()
	trace = append(trace, fmt.Sprintf("end@%d fired=%d", e.now(), e.fired()))
	return trace
}

func TestSchedulerDifferential(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := runFuzzScript(refAdapter{NewRefEngine()}, seed)
			got := runFuzzScript(prodAdapter{NewEngine()}, seed)
			diffTraces(t, "reference vs heap", ref, got)
		})
	}
}

func diffTraces(t *testing.T, label string, want, got []string) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: firing order diverged at step %d: %q vs %q", label, i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(want), len(got))
	}
}
