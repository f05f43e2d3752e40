// Package workload implements the configurable IoT workload generator of
// the paper's evaluation (§6.1): request arrival processes whose rate is
// static or changes at discrete instants, plus trace-driven schedules
// (per-minute counts, the Azure dataset's format).
//
// Arrivals are Poisson with a time-varying rate, sampled exactly for
// piecewise-constant rate functions (no thinning error): the generator
// integrates the rate function against a unit-exponential deviate, so a
// schedule change mid-gap is handled correctly.
package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lass/internal/xrand"
)

// Step is one segment of a piecewise-constant rate schedule: Rate holds
// from Start until the next step's Start (or forever for the last step).
type Step struct {
	Start time.Duration
	Rate  float64 // req/s
}

// Schedule is a piecewise-constant arrival-rate function λ(t).
type Schedule struct {
	steps []Step
	end   time.Duration // 0 = no end (last rate holds forever)
}

// NewStatic returns a schedule with a constant rate ("Static" mode, §6.1).
func NewStatic(rate float64) (*Schedule, error) {
	return NewSteps([]Step{{Start: 0, Rate: rate}})
}

// NewSteps returns a schedule from explicit steps ("Discrete change" mode,
// §6.1). Steps must start at or after 0 with strictly increasing times and
// non-negative rates; a step at time 0 is required.
func NewSteps(steps []Step) (*Schedule, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("workload: empty schedule")
	}
	s := append([]Step(nil), steps...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	if s[0].Start != 0 {
		return nil, fmt.Errorf("workload: schedule must start at 0, got %v", s[0].Start)
	}
	for i, st := range s {
		if st.Rate < 0 || math.IsNaN(st.Rate) || math.IsInf(st.Rate, 0) {
			return nil, fmt.Errorf("workload: invalid rate %v at %v", st.Rate, st.Start)
		}
		if i > 0 && st.Start == s[i-1].Start {
			return nil, fmt.Errorf("workload: duplicate step time %v", st.Start)
		}
	}
	return &Schedule{steps: s}, nil
}

// FromPerMinuteCounts builds a schedule from per-minute invocation counts
// (the Azure Functions Trace 2019 format, §6.7): during minute i the rate
// is counts[i]/60 req/s. The schedule ends after the last minute.
func FromPerMinuteCounts(counts []float64) (*Schedule, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("workload: empty counts")
	}
	steps := make([]Step, len(counts))
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("workload: negative count %v at minute %d", c, i)
		}
		steps[i] = Step{Start: time.Duration(i) * time.Minute, Rate: c / 60}
	}
	s, err := NewSteps(steps)
	if err != nil {
		return nil, err
	}
	s.end = time.Duration(len(counts)) * time.Minute
	return s, nil
}

// WithEnd returns a copy of the schedule that produces no arrivals after
// end.
func (s *Schedule) WithEnd(end time.Duration) *Schedule {
	return &Schedule{steps: s.steps, end: end}
}

// RateAt returns λ(t).
func (s *Schedule) RateAt(t time.Duration) float64 {
	if s.end > 0 && t >= s.end {
		return 0
	}
	idx := sort.Search(len(s.steps), func(i int) bool { return s.steps[i].Start > t })
	if idx == 0 {
		return 0 // before schedule start (t < 0)
	}
	return s.steps[idx-1].Rate
}

// segmentEnd returns when the segment containing t ends (schedule end, the
// next step, or infinity).
func (s *Schedule) segmentEnd(t time.Duration) time.Duration {
	idx := sort.Search(len(s.steps), func(i int) bool { return s.steps[i].Start > t })
	var e time.Duration = math.MaxInt64
	if idx < len(s.steps) {
		e = s.steps[idx].Start
	}
	if s.end > 0 && s.end < e {
		e = s.end
	}
	return e
}

// Arrivals generates Poisson arrival times following a Schedule. It is a
// stateless sampler over the schedule: each Next call advances from the
// given time, so multiple independent Arrivals can share one Schedule.
type Arrivals struct {
	sched *Schedule
	rng   *xrand.Rand
}

// NewArrivals returns a Poisson arrival generator for the schedule.
func NewArrivals(sched *Schedule, rng *xrand.Rand) *Arrivals {
	return &Arrivals{sched: sched, rng: rng}
}

// Next returns the first arrival strictly after the given time, or ok=false
// when the schedule has ended (or is permanently zero). The sampling is
// exact for the piecewise-constant rate: a unit-exponential deviate is
// integrated across segments.
func (a *Arrivals) Next(after time.Duration) (time.Duration, bool) {
	w := a.rng.Exp(1) // unit-exponential "work" to consume: ∫λ dt = w
	t := after
	if t < 0 {
		t = 0
	}
	for {
		if a.sched.end > 0 && t >= a.sched.end {
			return 0, false
		}
		rate := a.sched.RateAt(t)
		segEnd := a.sched.segmentEnd(t)
		if rate <= 0 {
			if segEnd == math.MaxInt64 {
				return 0, false // zero rate forever
			}
			t = segEnd
			continue
		}
		dt := time.Duration(w / rate * float64(time.Second))
		if segEnd == math.MaxInt64 || t+dt < segEnd {
			return t + dt, true
		}
		w -= rate * (segEnd - t).Seconds()
		t = segEnd
	}
}

// NextN fills out with consecutive arrival times, the first strictly after
// the given time, consuming random deviates exactly as the equivalent
// sequence of Next calls would — so batch generation is bit-for-bit
// identical to one-at-a-time generation. It returns the number of arrivals
// produced; fewer than len(out) means the schedule ended.
func (a *Arrivals) NextN(after time.Duration, out []time.Duration) int {
	n := 0
	t := after
	for n < len(out) {
		next, ok := a.Next(t)
		if !ok {
			break
		}
		out[n] = next
		n++
		t = next
	}
	return n
}

// ExpectedCount returns ∫λ(t)dt over [from, to] — the expected number of
// arrivals, used by tests to validate the sampler.
func (s *Schedule) ExpectedCount(from, to time.Duration) float64 {
	total := 0.0
	t := from
	for t < to {
		end := s.segmentEnd(t)
		if end > to {
			end = to
		}
		total += s.RateAt(t) * (end - t).Seconds()
		if end == t { // safety: should not happen
			break
		}
		t = end
	}
	return total
}

// PhaseSchedule builds the two-function overload scenario of Fig 8 (§6.6):
// a convenience for experiments that describe workloads as (start, rate)
// phase lists per function.
type PhaseSchedule map[string][]Step

// Schedules materializes a PhaseSchedule into per-function Schedules.
// Functions are validated in name order so the error for a multi-mistake
// spec is stable run to run.
func (p PhaseSchedule) Schedules() (map[string]*Schedule, error) {
	names := make([]string, 0, len(p))
	for fn := range p {
		names = append(names, fn)
	}
	sort.Strings(names)
	out := make(map[string]*Schedule, len(p))
	for _, fn := range names {
		s, err := NewSteps(p[fn])
		if err != nil {
			return nil, fmt.Errorf("workload: function %s: %w", fn, err)
		}
		out[fn] = s
	}
	return out, nil
}
