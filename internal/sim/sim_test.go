package sim

import (
	"testing"
	"time"
)

// engines runs f against a fresh engine, in a subtest named for its timer
// queue.
func engines(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Helper()
	t.Run("heap", func(t *testing.T) { f(t, NewEngine()) })
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		var order []int
		e.Schedule(3*time.Second, func() { order = append(order, 3) })
		e.Schedule(1*time.Second, func() { order = append(order, 1) })
		e.Schedule(2*time.Second, func() { order = append(order, 2) })
		e.Run()
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Errorf("order = %v", order)
		}
		if e.Now() != 3*time.Second {
			t.Errorf("clock = %v", e.Now())
		}
	})
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			e.Schedule(time.Second, func() { order = append(order, i) })
		}
		e.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("FIFO violated: %v", order)
			}
		}
	})
}

func TestSchedulePastPanics(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		e.Schedule(time.Second, func() {})
		e.Run()
		defer func() {
			if recover() == nil {
				t.Error("want panic scheduling in the past")
			}
		}()
		e.Schedule(500*time.Millisecond, func() {})
	})
}

func TestCancel(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		fired := false
		ev := e.Schedule(time.Second, func() { fired = true })
		ev.Cancel()
		e.Run()
		if fired {
			t.Error("cancelled event fired")
		}
		if !cancelled(ev) {
			t.Error("Cancelled() false")
		}
		var zero Event
		zero.Cancel() // must not panic
		if !cancelled(zero) {
			t.Error("zero-value event should report cancelled")
		}
	})
}

func TestCancelledAfterFire(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		ev := e.Schedule(time.Second, func() {})
		if cancelled(ev) {
			t.Error("pending event reports cancelled")
		}
		e.Run()
		if !cancelled(ev) {
			t.Error("fired event should report it will no longer fire")
		}
	})
}

func TestAfterRelativeScheduling(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		var at time.Duration
		e.Schedule(2*time.Second, func() {
			e.After(3*time.Second, func() { at = e.Now() })
		})
		e.Run()
		if at != 5*time.Second {
			t.Errorf("After fired at %v want 5s", at)
		}
	})
	// Negative delay clamps to now.
	e2 := NewEngine()
	ran := false
	e2.Schedule(time.Second, func() {
		e2.After(-time.Second, func() { ran = e2.Now() == time.Second })
	})
	e2.Run()
	if !ran {
		t.Error("negative After did not clamp to now")
	}
}

func TestEveryPeriodicAndStop(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		count := 0
		var task *Task
		task = e.Every(time.Second, func() {
			count++
			if count == 5 {
				stop(task)
			}
		})
		e.RunUntil(time.Minute)
		if count != 5 {
			t.Errorf("ticks = %d want 5", count)
		}
		if e.Now() != time.Minute {
			t.Errorf("clock = %v want 1m", e.Now())
		}
		stop(task) // double stop is a no-op
	})
}

func TestEveryFrom(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		var times []time.Duration
		task := e.EveryFrom(0, 10*time.Second, func() { times = append(times, e.Now()) })
		e.RunUntil(25 * time.Second)
		stop(task)
		want := []time.Duration{0, 10 * time.Second, 20 * time.Second}
		if len(times) != len(want) {
			t.Fatalf("ticks at %v", times)
		}
		for i := range want {
			if times[i] != want[i] {
				t.Errorf("tick %d at %v want %v", i, times[i], want[i])
			}
		}
	})
}

func TestEveryFromPastStartClamps(t *testing.T) {
	e := NewEngine()
	e.Schedule(10*time.Second, func() {})
	e.Run() // clock now at 10s
	var times []time.Duration
	task := e.EveryFrom(4*time.Second, 3*time.Second, func() { times = append(times, e.Now()) })
	e.RunUntil(17 * time.Second)
	stop(task)
	// Start clamps to now (10s), like After clamps negative delays.
	want := []time.Duration{10 * time.Second, 13 * time.Second, 16 * time.Second}
	if len(times) != len(want) {
		t.Fatalf("ticks at %v want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %v want %v", i, times[i], want[i])
		}
	}
}

func TestCancelCompactsQueue(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		const total, keep = 1000, 10
		events := make([]Event, 0, total)
		fired := 0
		for i := 0; i < total; i++ {
			events = append(events, e.Schedule(time.Hour, func() { fired++ }))
		}
		for i := keep; i < total; i++ {
			events[i].Cancel()
		}
		// Compaction keeps dead timers at no more than half the queue, so
		// Pending is bounded by twice the live count (plus one for an odd
		// queue) instead of holding all 990 corpses until they are popped.
		if bound := 2*keep + 1; pending(e) > bound {
			t.Errorf("Pending=%d after cancelling %d of %d, want <= %d", pending(e), total-keep, total, bound)
		}
		e.Run()
		if fired != keep {
			t.Errorf("fired=%d want %d", fired, keep)
		}
	})
}

func TestStopCompactsQueue(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		var tasks []*Task
		for i := 0; i < 500; i++ {
			tasks = append(tasks, e.Every(time.Hour, func() {}))
		}
		for _, task := range tasks {
			stop(task)
		}
		if pending(e) > 1 {
			t.Errorf("Pending=%d after stopping every task, want <= 1", pending(e))
		}
		e.Run()
		if e.Fired() != 0 {
			t.Errorf("Fired=%d want 0", e.Fired())
		}
	})
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		ev := e.Schedule(time.Second, func() {})
		e.Schedule(2*time.Second, func() {})
		e.Run()
		ev.Cancel() // already fired: must not corrupt the dead-timer counter
		ev.Cancel()
		e.Schedule(3*time.Second, func() {})
		e.Run()
		if e.Fired() != 3 {
			t.Errorf("Fired=%d want 3", e.Fired())
		}
	})
}

// TestStaleHandleAfterSlotReuse pins down the generation check: once an
// event has fired, its slot may be recycled for a new event, and the old
// handle must neither cancel nor observe the new occupant.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		old := e.Schedule(time.Second, func() {})
		e.Run()
		fired := false
		fresh := e.Schedule(2*time.Second, func() { fired = true })
		old.Cancel() // stale handle: must not cancel the reused slot
		if cancelled(fresh) {
			t.Fatal("stale Cancel hit the recycled slot")
		}
		e.Run()
		if !fired {
			t.Error("event in recycled slot did not fire")
		}
		if !cancelled(old) {
			t.Error("stale handle should report cancelled")
		}
	})
}

func TestEveryInvalidPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	e.Every(0, func() {})
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		fired := 0
		e.Schedule(time.Second, func() { fired++ })
		e.Schedule(10*time.Second, func() { fired++ })
		e.RunUntil(5 * time.Second)
		if fired != 1 {
			t.Errorf("fired=%d want 1", fired)
		}
		if pending(e) != 1 {
			t.Errorf("pending=%d want 1", pending(e))
		}
		if e.Now() != 5*time.Second {
			t.Errorf("clock=%v want 5s", e.Now())
		}
		e.RunUntil(15 * time.Second)
		if fired != 2 {
			t.Errorf("fired=%d want 2", fired)
		}
	})
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		if e.Step() {
			t.Error("Step on empty engine returned true")
		}
		e.Schedule(time.Second, func() {})
		if !e.Step() {
			t.Error("Step with events returned false")
		}
		if e.Fired() != 1 {
			t.Errorf("Fired=%d", e.Fired())
		}
	})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		depth := 0
		var recurse func()
		recurse = func() {
			depth++
			if depth < 100 {
				e.After(time.Millisecond, recurse)
			}
		}
		e.Schedule(0, recurse)
		e.Run()
		if depth != 100 {
			t.Errorf("depth=%d", depth)
		}
		if e.Now() != 99*time.Millisecond {
			t.Errorf("clock=%v", e.Now())
		}
	})
}

// TestPendingNeverUndercounts is the regression test for the old engine's
// double bookkeeping: Step and RunUntil each drained corpses with their own
// dead-- path, so an interleaving of cancels, compactions, and mixed
// Step/RunUntil draining could drive the dead counter negative and make
// Pending undercount. All draining now goes through popLive; this hammers
// the interleaving and checks the books after every operation.
func TestPendingNeverUndercounts(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		check := func(op string, live int) {
			t.Helper()
			if pending(e) < live {
				t.Fatalf("after %s: Pending=%d below live=%d", op, pending(e), live)
			}
			if e.dead < 0 {
				t.Fatalf("after %s: dead counter negative (%d)", op, e.dead)
			}
			if e.dead > pending(e) {
				t.Fatalf("after %s: dead=%d exceeds Pending=%d", op, e.dead, pending(e))
			}
		}
		fired := 0
		live := 0
		base := e.Now()
		for round := 0; round < 50; round++ {
			evs := make([]Event, 0, 40)
			for i := 0; i < 40; i++ {
				evs = append(evs, e.Schedule(base+time.Duration(round+1)*time.Second+time.Duration(i)*time.Millisecond, func() { fired++ }))
				live++
			}
			// Cancel a majority to force repeated compactions.
			for i := 0; i < 30; i++ {
				evs[i].Cancel()
				live--
				check("cancel", live)
			}
			// Drain alternately via Step and RunUntil.
			if round%2 == 0 {
				for i := 0; i < 5 && e.Step(); i++ {
					live--
					check("step", live)
				}
			} else {
				e.RunUntil(base + time.Duration(round+1)*time.Second + 4*time.Millisecond)
				live = 0
				for _, ev := range evs {
					if !cancelled(ev) {
						live++
					}
				}
				check("rununtil", live)
			}
			// Cancel survivors so each round starts clean.
			for _, ev := range evs {
				if !cancelled(ev) {
					ev.Cancel()
					live--
					check("cleanup-cancel", live)
				}
			}
		}
		e.Run()
		if pending(e) != 0 {
			t.Errorf("Pending=%d after Run, want 0", pending(e))
		}
		if e.dead != 0 {
			t.Errorf("dead=%d after Run, want 0", e.dead)
		}
	})
}

// TestSteadyStateSteppingDoesNotAllocate verifies the slot-pool design:
// once the engine has reached its high-water mark, a schedule/fire cycle
// reuses pooled storage and allocates nothing.
func TestSteadyStateSteppingDoesNotAllocate(t *testing.T) {
	engines(t, func(t *testing.T, e *Engine) {
		fn := func() {}
		// Warm up to the high-water mark.
		for i := 0; i < 1000; i++ {
			e.After(time.Duration(i)*time.Millisecond, fn)
		}
		e.Run()
		var d time.Duration
		allocs := testing.AllocsPerRun(1000, func() {
			d += time.Millisecond
			e.After(d, fn)
			e.Step()
		})
		if allocs > 0.1 {
			t.Errorf("steady-state schedule+fire allocates %.2f objects/op, want 0", allocs)
		}
	})
}

// cancelled reports whether ev will no longer fire: cancelled, already
// fired, or the zero handle.
func cancelled(ev Event) bool {
	return ev.eng == nil || ev.eng.slots[ev.idx].gen != ev.gen
}

// pending returns the number of timers queued in e's scheduler, cancelled
// timers not yet discarded included.
func pending(e *Engine) int { return e.sched.len() }

// stop cancels t's future ticks; stopping twice is a no-op.
func stop(t *Task) {
	t.stopped = true
	t.ev.Cancel()
}
