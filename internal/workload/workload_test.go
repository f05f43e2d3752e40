package workload

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"lass/internal/xrand"
)

func TestStaticScheduleRate(t *testing.T) {
	s, err := NewStatic(25)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []time.Duration{0, time.Second, time.Hour} {
		if r := s.RateAt(tt); r != 25 {
			t.Errorf("rate at %v = %v", tt, r)
		}
	}
}

func TestStepsScheduleRates(t *testing.T) {
	s, err := NewSteps([]Step{
		{Start: 0, Rate: 5},
		{Start: time.Minute, Rate: 10},
		{Start: 2 * time.Minute, Rate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[time.Duration]float64{
		0:                5,
		30 * time.Second: 5,
		time.Minute:      10,
		90 * time.Second: 10,
		2 * time.Minute:  0,
		3 * time.Hour:    0,
	}
	for tt, want := range cases {
		if r := s.RateAt(tt); r != want {
			t.Errorf("rate at %v = %v want %v", tt, r, want)
		}
	}
}

func TestStepsValidation(t *testing.T) {
	if _, err := NewSteps(nil); err == nil {
		t.Error("want error for empty schedule")
	}
	if _, err := NewSteps([]Step{{Start: time.Second, Rate: 1}}); err == nil {
		t.Error("want error when schedule does not start at 0")
	}
	if _, err := NewSteps([]Step{{Start: 0, Rate: -1}}); err == nil {
		t.Error("want error for negative rate")
	}
	if _, err := NewSteps([]Step{{Start: 0, Rate: 1}, {Start: 0, Rate: 2}}); err == nil {
		t.Error("want error for duplicate step times")
	}
	if _, err := NewSteps([]Step{{Start: 0, Rate: math.NaN()}}); err == nil {
		t.Error("want error for NaN rate")
	}
}

func TestStepsSortedRegardlessOfInputOrder(t *testing.T) {
	s, err := NewSteps([]Step{
		{Start: time.Minute, Rate: 10},
		{Start: 0, Rate: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.RateAt(30 * time.Second); r != 5 {
		t.Errorf("rate=%v want 5", r)
	}
}

func TestFromPerMinuteCounts(t *testing.T) {
	s, err := FromPerMinuteCounts([]float64{60, 120, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r := s.RateAt(30 * time.Second); r != 1 {
		t.Errorf("minute 0 rate=%v want 1", r)
	}
	if r := s.RateAt(90 * time.Second); r != 2 {
		t.Errorf("minute 1 rate=%v want 2", r)
	}
	if r := s.RateAt(150 * time.Second); r != 0 {
		t.Errorf("minute 2 rate=%v want 0", r)
	}
	if s.end != 3*time.Minute {
		t.Errorf("end=%v", s.end)
	}
	if r := s.RateAt(10 * time.Minute); r != 0 {
		t.Errorf("past end rate=%v", r)
	}
	if _, err := FromPerMinuteCounts(nil); err == nil {
		t.Error("want error for empty counts")
	}
	if _, err := FromPerMinuteCounts([]float64{-1}); err == nil {
		t.Error("want error for negative count")
	}
}

func TestArrivalsStaticRateMatchesPoisson(t *testing.T) {
	s, _ := NewStatic(50)
	a := NewArrivals(s, xrand.New(42))
	var count int
	now := time.Duration(0)
	horizon := 200 * time.Second
	for {
		next, ok := a.Next(now)
		if !ok || next > horizon {
			break
		}
		count++
		now = next
	}
	want := 50 * horizon.Seconds()
	if math.Abs(float64(count)-want) > 4*math.Sqrt(want) {
		t.Errorf("count=%d want ~%v", count, want)
	}
}

func TestArrivalsExactAcrossStepBoundary(t *testing.T) {
	// Rate 0 for the first minute, then 100: no arrivals may occur in the
	// first minute and the second minute must carry ~100/s.
	s, err := NewSteps([]Step{{Start: 0, Rate: 0}, {Start: time.Minute, Rate: 100}})
	if err != nil {
		t.Fatal(err)
	}
	a := NewArrivals(s, xrand.New(7))
	var count int
	now := time.Duration(0)
	for {
		next, ok := a.Next(now)
		if !ok || next > 2*time.Minute {
			break
		}
		if next < time.Minute {
			t.Fatalf("arrival at %v during zero-rate segment", next)
		}
		count++
		now = next
	}
	if math.Abs(float64(count)-6000) > 4*math.Sqrt(6000) {
		t.Errorf("count=%d want ~6000", count)
	}
}

func TestArrivalsScheduleEnd(t *testing.T) {
	s, _ := NewStatic(100)
	s = s.WithEnd(time.Second)
	a := NewArrivals(s, xrand.New(9))
	now := time.Duration(0)
	count := 0
	for {
		next, ok := a.Next(now)
		if !ok {
			break
		}
		if next >= time.Second {
			t.Fatalf("arrival at %v past schedule end", next)
		}
		count++
		now = next
		if count > 10000 {
			t.Fatal("runaway generator")
		}
	}
	if count < 50 || count > 200 {
		t.Errorf("count=%d want ~100", count)
	}
}

func TestArrivalsZeroForeverStops(t *testing.T) {
	s, _ := NewStatic(0)
	a := NewArrivals(s, xrand.New(1))
	if _, ok := a.Next(0); ok {
		t.Error("zero-rate schedule should produce no arrivals")
	}
}

func TestArrivalsNegativeAfterClamps(t *testing.T) {
	s, _ := NewStatic(10)
	a := NewArrivals(s, xrand.New(2))
	next, ok := a.Next(-time.Hour)
	if !ok || next < 0 {
		t.Errorf("next=%v ok=%v", next, ok)
	}
}

func TestExpectedCount(t *testing.T) {
	s, _ := NewSteps([]Step{
		{Start: 0, Rate: 10},
		{Start: time.Minute, Rate: 20},
	})
	// 10/s for 60s + 20/s for 60s = 1800.
	if got := s.ExpectedCount(0, 2*time.Minute); math.Abs(got-1800) > 1e-9 {
		t.Errorf("expected count=%v want 1800", got)
	}
	// Partial window inside one segment.
	if got := s.ExpectedCount(30*time.Second, 45*time.Second); math.Abs(got-150) > 1e-9 {
		t.Errorf("expected=%v want 150", got)
	}
}

func TestQuickArrivalCountsMatchExpectation(t *testing.T) {
	// For random step schedules, the realized arrival count over the
	// horizon must be within 5 standard deviations of ∫λdt.
	rng := xrand.New(1234)
	f := func(r1, r2, r3 uint8) bool {
		steps := []Step{
			{Start: 0, Rate: float64(r1 % 50)},
			{Start: 30 * time.Second, Rate: float64(r2 % 50)},
			{Start: time.Minute, Rate: float64(r3 % 50)},
		}
		s, err := NewSteps(steps)
		if err != nil {
			return false
		}
		s = s.WithEnd(90 * time.Second)
		a := NewArrivals(s, rng.Fork())
		count := 0
		now := time.Duration(0)
		for {
			next, ok := a.Next(now)
			if !ok {
				break
			}
			count++
			now = next
			if count > 100000 {
				return false
			}
		}
		want := s.ExpectedCount(0, 90*time.Second)
		if want == 0 {
			return count == 0
		}
		return math.Abs(float64(count)-want) <= 5*math.Sqrt(want)+3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPhaseSchedule(t *testing.T) {
	p := PhaseSchedule{
		"a": {{Start: 0, Rate: 5}},
		"b": {{Start: 0, Rate: 0}, {Start: 5 * time.Minute, Rate: 8}},
	}
	m, err := p.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	if m["a"].RateAt(time.Minute) != 5 {
		t.Error("a rate wrong")
	}
	if m["b"].RateAt(time.Minute) != 0 || m["b"].RateAt(6*time.Minute) != 8 {
		t.Error("b rates wrong")
	}
	bad := PhaseSchedule{"x": {{Start: time.Second, Rate: 1}}}
	if _, err := bad.Schedules(); err == nil {
		t.Error("want error for invalid phase schedule")
	}
}

// referenceNext is Arrivals.Next as it was before the segment cursor: two
// binary searches of the schedule per segment visited. Frozen here as the
// oracle the cursor must match bit for bit.
func referenceNext(s *Schedule, rng *xrand.Rand, after time.Duration) (time.Duration, bool) {
	search := func(t time.Duration) int {
		return sort.Search(len(s.steps), func(i int) bool { return s.steps[i].Start > t })
	}
	w := rng.Exp(1)
	t := after
	if t < 0 {
		t = 0
	}
	for {
		if s.end > 0 && t >= s.end {
			return 0, false
		}
		idx := search(t)
		rate := 0.0
		if idx > 0 {
			rate = s.steps[idx-1].Rate
		}
		var segEnd time.Duration = math.MaxInt64
		if idx < len(s.steps) {
			segEnd = s.steps[idx].Start
		}
		if s.end > 0 && s.end < segEnd {
			segEnd = s.end
		}
		if rate <= 0 {
			if segEnd == math.MaxInt64 {
				return 0, false
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

// TestCursorMatchesSearch drives Next and NextN with times that follow the
// last arrival, jump forward, repeat and go backwards (below zero too),
// over schedules with an end, zero-rate segments, one step and many, with
// two Arrivals sharing each schedule. Every answer and every generator
// state must equal the frozen search-based sampler's.
func TestCursorMatchesSearch(t *testing.T) {
	mustSteps := func(steps []Step) *Schedule {
		s, err := NewSteps(steps)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	single, _ := NewStatic(25)
	perMinute, err := FromPerMinuteCounts([]float64{300, 0, 0, 6000, 5, 0, 120})
	if err != nil {
		t.Fatal(err)
	}
	gen := xrand.New(3)
	var many []Step
	for i := 0; i < 720; i++ {
		rate := float64(gen.Uint64()%50) / 2
		if i%7 == 3 {
			rate = 0
		}
		many = append(many, Step{Start: time.Duration(i) * time.Second, Rate: rate})
	}
	schedules := []struct {
		name  string
		sched *Schedule
	}{
		{"single step", single},
		{"single step, ended", single.WithEnd(40 * time.Second)},
		{"zero segments", mustSteps([]Step{{0, 5}, {10 * time.Second, 0}, {20 * time.Second, 0}, {30 * time.Second, 12}, {45 * time.Second, 0}})},
		{"zero start, ended", mustSteps([]Step{{0, 0}, {5 * time.Second, 40}, {6 * time.Second, 0}, {9 * time.Second, 3}}).WithEnd(12 * time.Second)},
		{"per-minute trace", perMinute},
		{"720 steps", mustSteps(many)},
		{"720 steps, ended", mustSteps(many).WithEnd(500 * time.Second)},
	}
	for _, tc := range schedules {
		sched := tc.sched
		t.Run(tc.name, func(t *testing.T) {
			drive := xrand.New(11)
			span := 800 * time.Second
			type pair struct {
				a    *Arrivals
				ref  *xrand.Rand
				last time.Duration
			}
			pairs := []*pair{
				{a: NewArrivals(sched, xrand.New(1)), ref: xrand.New(1)},
				{a: NewArrivals(sched, xrand.New(2)), ref: xrand.New(2)},
			}
			out := make([]time.Duration, 8)
			for op := 0; op < 3000; op++ {
				p := pairs[drive.Uint64()%2]
				after := p.last
				switch drive.Uint64() % 10 {
				case 0, 1: // jump forward
					after += time.Duration(drive.Uint64() % uint64(span/4))
				case 2: // go backwards, possibly below zero
					after -= time.Duration(drive.Uint64() % uint64(span/2))
				case 3: // restart anywhere
					after = time.Duration(drive.Uint64()%uint64(span)) - time.Second
				}
				if drive.Uint64()%4 == 0 {
					k := 1 + int(drive.Uint64()%uint64(len(out)))
					n := p.a.NextN(after, out[:k])
					want, tm := 0, after
					for want < k {
						next, ok := referenceNext(sched, p.ref, tm)
						if !ok {
							break
						}
						if want >= n || out[want] != next {
							t.Fatalf("op %d: NextN(%v) = %v, reference arrival %d is %v", op, after, out[:n], want, next)
						}
						want++
						tm = next
					}
					if want != n {
						t.Fatalf("op %d: NextN(%v) gave %d arrivals, reference %d", op, after, n, want)
					}
					if n > 0 {
						p.last = out[n-1]
					}
				} else {
					got, gotOK := p.a.Next(after)
					want, wantOK := referenceNext(sched, p.ref, after)
					if got != want || gotOK != wantOK {
						t.Fatalf("op %d: Next(%v) = %v,%v, reference %v,%v", op, after, got, gotOK, want, wantOK)
					}
					if gotOK {
						p.last = got
					} else {
						p.last = after
					}
				}
				if p.a.rng.Uint64() != p.ref.Uint64() {
					t.Fatalf("op %d: generators diverged", op)
				}
			}
		})
	}
}
