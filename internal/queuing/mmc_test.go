package queuing

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMM1KnownResults(t *testing.T) {
	// For M/M/1, P0 = 1-ρ and Pn = (1-ρ)ρ^n.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		m := MMC{Lambda: rho, Mu: 1, C: 1}
		p0, err := m.P0()
		if err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		if !almostEqual(p0, 1-rho, 1e-12) {
			t.Errorf("rho=%v: P0=%v want %v", rho, p0, 1-rho)
		}
		for n := 1; n <= 5; n++ {
			pn, err := m.Pn(n)
			if err != nil {
				t.Fatal(err)
			}
			want := (1 - rho) * math.Pow(rho, float64(n))
			if !almostEqual(pn, want, 1e-12) {
				t.Errorf("rho=%v n=%d: Pn=%v want %v", rho, n, pn, want)
			}
		}
	}
}

func TestErlangCKnownValue(t *testing.T) {
	// λ=μ (r=1), c=2: P0 = 1/3, Erlang-C = 1/3 (textbook value).
	m := MMC{Lambda: 1, Mu: 1, C: 2}
	p0, err := m.P0()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p0, 1.0/3, 1e-12) {
		t.Errorf("P0=%v want 1/3", p0)
	}
	pw, err := m.ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(pw, 1.0/3, 1e-12) {
		t.Errorf("ErlangC=%v want 1/3", pw)
	}
}

func TestMeanWaitMatchesErlangFormula(t *testing.T) {
	m := MMC{Lambda: 8, Mu: 1, C: 10}
	pw, err := m.ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	wq, err := m.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	want := pw / (10 - 8)
	if !almostEqual(wq, want, 1e-12) {
		t.Errorf("MeanWait=%v want %v", wq, want)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	cases := []MMC{
		{Lambda: 5, Mu: 10, C: 2},
		{Lambda: 40, Mu: 10, C: 6},
		{Lambda: 95, Mu: 10, C: 10},
		{Lambda: 900, Mu: 10, C: 120},
	}
	for _, m := range cases {
		lp0, err := m.logP0()
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		// Sum explicit states up to a large N, then a geometric tail bound.
		N := m.C + 2000
		for n := 0; n <= N; n++ {
			sum += math.Exp(m.logPn(n, lp0))
		}
		if sum > 1+1e-9 {
			t.Errorf("%+v: partial sum %v exceeds 1", m, sum)
		}
		if sum < 1-1e-6 {
			t.Errorf("%+v: probabilities sum to %v, want ~1", m, sum)
		}
	}
}

func TestUnstableSystemErrors(t *testing.T) {
	m := MMC{Lambda: 100, Mu: 10, C: 10} // rho = 1
	if _, err := m.P0(); err != ErrUnstable {
		t.Errorf("want ErrUnstable, got %v", err)
	}
	m2 := MMC{Lambda: 101, Mu: 10, C: 10}
	if _, err := m2.ProbWaitLE(0.1); err != ErrUnstable {
		t.Errorf("want ErrUnstable, got %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	for _, m := range []MMC{
		{Lambda: -1, Mu: 10, C: 1},
		{Lambda: 1, Mu: 0, C: 1},
		{Lambda: 1, Mu: 10, C: 0},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v: want validation error", m)
		}
	}
}

func TestProbWaitLEMonotoneInT(t *testing.T) {
	m := MMC{Lambda: 45, Mu: 10, C: 6}
	prev := -1.0
	for _, tt := range []float64{0, 0.01, 0.05, 0.1, 0.5, 1, 5} {
		p, err := m.ProbWaitLE(tt)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Errorf("t=%v: P=%v decreased from %v", tt, p, prev)
		}
		if p < 0 || p > 1 {
			t.Errorf("t=%v: P=%v out of [0,1]", tt, p)
		}
		prev = p
	}
}

func TestProbWaitLEMonotoneInC(t *testing.T) {
	prev := -1.0
	for c := 5; c <= 30; c++ {
		m := MMC{Lambda: 45, Mu: 10, C: c}
		p, err := m.ProbWaitLE(0.05)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev-1e-12 {
			t.Errorf("c=%d: P=%v decreased from %v", c, p, prev)
		}
		prev = p
	}
}

func TestProbWaitCloseToExact(t *testing.T) {
	// The paper's discrete state-count bound should track the exact M/M/c
	// waiting CDF closely in the provisioning region.
	for _, m := range []MMC{
		{Lambda: 30, Mu: 10, C: 5},
		{Lambda: 30, Mu: 10, C: 7},
		{Lambda: 90, Mu: 10, C: 12},
	} {
		for _, tt := range []float64{0.05, 0.1, 0.2} {
			approx, err := m.ProbWaitLE(tt)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := m.ProbWaitLEExact(tt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(approx-exact) > 0.08 {
				t.Errorf("%+v t=%v: approx %v vs exact %v differ too much", m, tt, approx, exact)
			}
		}
	}
}

func TestWaitQuantileInvertsCDF(t *testing.T) {
	m := MMC{Lambda: 85, Mu: 10, C: 10}
	for _, q := range []float64{0.9, 0.95, 0.99} {
		tq, err := m.WaitQuantile(q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.ProbWaitLEExact(tq)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(p, q, 1e-9) {
			t.Errorf("q=%v: CDF(quantile)=%v", q, p)
		}
	}
}

func TestWaitQuantileZeroInsideNoWaitMass(t *testing.T) {
	// Very overprovisioned: P(wait)=tiny, so the 95th pct wait is 0.
	m := MMC{Lambda: 1, Mu: 10, C: 10}
	tq, err := m.WaitQuantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if tq != 0 {
		t.Errorf("want 0 quantile, got %v", tq)
	}
}

func TestZeroLambda(t *testing.T) {
	m := MMC{Lambda: 0, Mu: 10, C: 3}
	p0, err := m.P0()
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 1 {
		t.Errorf("P0=%v want 1 for idle system", p0)
	}
	p, err := m.ProbWaitLE(0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("ProbWaitLE=%v want 1 for idle system", p)
	}
}

func TestLargeScaleStability(t *testing.T) {
	// The log-space implementation must stay finite and sane at the
	// paper's Fig 5 scale (1000 containers) and beyond.
	for _, c := range []int{100, 1000, 5000} {
		lambda := 0.9 * float64(c) * 10
		m := MMC{Lambda: lambda, Mu: 10, C: c}
		p, err := m.ProbWaitLE(0.1)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Errorf("c=%d: P=%v not a probability", c, p)
		}
		if p < 0.5 {
			t.Errorf("c=%d: P=%v implausibly low for t=0.1", c, p)
		}
	}
}

func TestQuickProbWaitIsProbability(t *testing.T) {
	f := func(l, m uint16, c uint8, tms uint16) bool {
		lambda := float64(l%500) + 0.5
		mu := float64(m%50) + 0.5
		cc := int(c%64) + 1
		tt := float64(tms%1000) / 1000
		q := MMC{Lambda: lambda, Mu: mu, C: cc}
		if !q.Stable() {
			return true
		}
		p, err := q.ProbWaitLE(tt)
		if err != nil {
			return false
		}
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickP0DecreasesWithLoad(t *testing.T) {
	f := func(l uint16, c uint8) bool {
		cc := int(c%32) + 2
		mu := 10.0
		l1 := float64(l%80+1) / 100 * float64(cc) * mu // up to 0.8 utilization
		l2 := l1 / 2
		m1 := MMC{Lambda: l1, Mu: mu, C: cc}
		m2 := MMC{Lambda: l2, Mu: mu, C: cc}
		p1, err1 := m1.P0()
		p2, err2 := m2.P0()
		if err1 != nil || err2 != nil {
			return false
		}
		return p2 >= p1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSLOWaitBudget(t *testing.T) {
	s := SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	b, err := s.WaitBudget(10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(b, 0.1, 1e-12) {
		t.Errorf("budget=%v want 0.1", b)
	}

	// End to end: the mean service time 1/μ = 0.2s comes off the deadline.
	s2 := SLO{Deadline: 300 * time.Millisecond, Percentile: 0.99}
	b2, err := s2.WaitBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(b2, 0.1, 1e-12) {
		t.Errorf("budget=%v want 0.1", b2)
	}

	// Deadline entirely consumed by service time -> error.
	s3 := SLO{Deadline: 100 * time.Millisecond, Percentile: 0.99}
	if _, err := s3.WaitBudget(5); err == nil {
		t.Error("want error when service time exceeds deadline")
	}

	s4 := SLO{Deadline: 0, Percentile: 0.95}
	if _, err := s4.WaitBudget(10); err == nil {
		t.Error("want error for zero deadline")
	}
	s5 := SLO{Deadline: time.Second, Percentile: 1.5}
	if _, err := s5.WaitBudget(10); err == nil {
		t.Error("want error for percentile out of range")
	}
}
