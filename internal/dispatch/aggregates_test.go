package dispatch

import (
	"math"
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/functions"
	"lass/internal/sim"
	"lass/internal/xrand"
)

// loopAggregates recomputes ServiceCapacity, InFlight and IdleContainers
// the way the queue did before it maintained them: one walk over the
// attached containers in ID order, pricing each at its live CPU fraction.
// It is the oracle the maintained fields are compared against.
func loopAggregates(q *Queue) (capacity float64, inFlight, idle int) {
	for _, e := range q.order {
		capacity += q.spec.RateAt(e.c.CPUFraction())
		if e.busy {
			inFlight++
		} else {
			idle++
		}
	}
	return capacity, inFlight, idle
}

func checkAggregates(t testing.TB, q *Queue, step int, op byte) {
	t.Helper()
	capacity, inFlight, idle := loopAggregates(q)
	if got := q.ServiceCapacity(); math.Float64bits(got) != math.Float64bits(capacity) {
		t.Fatalf("step %d (op %d): ServiceCapacity %v (%#x), loop recomputation %v (%#x)",
			step, op, got, math.Float64bits(got), capacity, math.Float64bits(capacity))
	}
	if got := q.InFlight(); got != inFlight {
		t.Fatalf("step %d (op %d): InFlight %d, loop recomputation %d", step, op, got, inFlight)
	}
	if got := q.IdleContainers(); got != idle {
		t.Fatalf("step %d (op %d): IdleContainers %d, loop recomputation %d", step, op, got, idle)
	}
}

// aggregateOps is how many operations driveAggregates knows; maxProgram
// bounds one program so a fuzz input cannot run for long.
const (
	aggregateOps = 7
	maxProgram   = 4096
)

// driveAggregates interprets prog as (op, arg) byte pairs against one queue
// — attach, detach (with an in-flight request, when there is one), resize
// and report, reattach out of ID order, arrive, fire the next completion or
// timeout — and compares the maintained aggregates with the loop
// recomputation after every operation.
func driveAggregates(t testing.TB, prog []byte) {
	t.Helper()
	if len(prog) > maxProgram {
		prog = prog[:maxProgram]
	}
	engine := sim.NewEngine()
	cl, err := cluster.New(cluster.PaperCluster())
	if err != nil {
		t.Fatal(err)
	}
	spec := functions.MicroBenchmark(100 * time.Millisecond)
	q, err := NewQueue(engine, spec, 100*time.Millisecond, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Exponential service around the limit: roughly a third of the requests
	// end in the timeout callback instead of the completion one.
	q.TimeLimit = 100 * time.Millisecond
	var attached, detached []*cluster.Container
	take := func(cs *[]*cluster.Container, arg byte) *cluster.Container {
		i := int(arg) % len(*cs)
		c := (*cs)[i]
		*cs = append((*cs)[:i], (*cs)[i+1:]...)
		return c
	}
	checkAggregates(t, q, -1, 0)
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step]%aggregateOps, prog[step+1]
		switch op {
		case 0: // attach a fresh container
			c, err := cl.Place(spec.Name, spec.CPUMillis, spec.MemoryMiB)
			if err != nil {
				break // cluster full
			}
			if err := cl.MarkRunning(c); err != nil {
				t.Fatal(err)
			}
			if err := q.AddContainer(c); err != nil {
				t.Fatal(err)
			}
			attached = append(attached, c)
		case 1: // detach; odd args also terminate the container
			if len(attached) == 0 {
				break
			}
			c := take(&attached, arg)
			if err := q.RemoveContainer(c); err != nil {
				t.Fatal(err)
			}
			if arg%2 == 1 {
				if err := cl.Terminate(c); err != nil {
					t.Fatal(err)
				}
			} else {
				detached = append(detached, c)
			}
		case 2: // resize an attached container and report it
			if len(attached) == 0 {
				break
			}
			c := attached[int(arg)%len(attached)]
			// 10%..100% of the standard size: below the slack knee the rate
			// is a different expression of the fraction.
			cpu := spec.CPUMillis * int64(1+arg%10) / 10
			if err := cl.Resize(c, cpu); err != nil {
				break // node cannot hold the inflation
			}
			q.Resized(c)
		case 3: // resize a detached container; the queue must ignore the report
			if len(detached) == 0 {
				break
			}
			c := detached[int(arg)%len(detached)]
			if err := cl.Resize(c, spec.CPUMillis*int64(1+arg%10)/10); err != nil {
				break
			}
			q.Resized(c)
		case 4: // reattach: lands in the middle of the ID order
			if len(detached) == 0 {
				break
			}
			c := take(&detached, arg)
			if err := q.AddContainer(c); err != nil {
				t.Fatal(err)
			}
			attached = append(attached, c)
		case 5: // a burst of arrivals
			for i := 0; i <= int(arg%4); i++ {
				q.Arrive()
			}
		case 6: // the next completion or timeout
			engine.Step()
		}
		checkAggregates(t, q, step/2, op)
	}
}

// TestQueueAggregatesMatchLoop runs seeded random programs through
// driveAggregates: the maintained ServiceCapacity must equal the loop sum
// bit for bit, and the busy count the loop counts, after every operation.
func TestQueueAggregatesMatchLoop(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		prog := make([]byte, maxProgram)
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		driveAggregates(t, prog)
	}
}

// FuzzQueueAggregates is the same differential check over fuzzer-chosen
// programs; testdata/fuzz/FuzzQueueAggregates holds the seed corpus.
func FuzzQueueAggregates(f *testing.F) {
	// Attach two, load them, deflate one mid-service, detach the busy one,
	// reattach it, drain.
	f.Add([]byte{0, 0, 0, 0, 5, 3, 2, 4, 1, 0, 6, 0, 4, 0, 6, 0, 6, 0, 6, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { driveAggregates(t, prog) })
}
