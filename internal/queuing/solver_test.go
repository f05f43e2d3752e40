package queuing

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var slo95x100ms = SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}

func TestRequiredContainersMeetsSLO(t *testing.T) {
	for _, tc := range []struct{ lambda, mu float64 }{
		{10, 10}, {20, 10}, {50, 10}, {10, 5}, {50, 5}, {100, 10},
	} {
		c, err := MinimalContainers(tc.lambda, tc.mu, slo95x100ms)
		if err != nil {
			t.Fatalf("lambda=%v mu=%v: %v", tc.lambda, tc.mu, err)
		}
		m := MMC{Lambda: tc.lambda, Mu: tc.mu, C: c}
		p, err := m.ProbWaitLE(0.1)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0.95 {
			t.Errorf("lambda=%v mu=%v: c=%d gives P=%v < 0.95", tc.lambda, tc.mu, c, p)
		}
	}
}

func TestRequiredContainersMinimal(t *testing.T) {
	// c-1 containers must NOT meet the SLO (or be unstable).
	for _, tc := range []struct{ lambda, mu float64 }{
		{20, 10}, {50, 10}, {30, 5}, {100, 10},
	} {
		c, err := MinimalContainers(tc.lambda, tc.mu, slo95x100ms)
		if err != nil {
			t.Fatal(err)
		}
		if c <= 1 {
			continue
		}
		m := MMC{Lambda: tc.lambda, Mu: tc.mu, C: c - 1}
		if !m.Stable() {
			continue
		}
		p, err := m.ProbWaitLE(0.1)
		if err != nil {
			t.Fatal(err)
		}
		if p >= 0.95 {
			t.Errorf("lambda=%v mu=%v: c-1=%d already meets SLO (P=%v)", tc.lambda, tc.mu, c-1, p)
		}
	}
}

func TestRequiredContainersStartCFloor(t *testing.T) {
	// Algorithm 1 starts from the current container count; the result can
	// therefore never be below startC when startC already exceeds the
	// minimal count.
	c, err := RequiredContainers(20, 10, slo95x100ms, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c < 50 {
		t.Errorf("startC=50 but got %d", c)
	}
	cMin, err := MinimalContainers(20, 10, slo95x100ms)
	if err != nil {
		t.Fatal(err)
	}
	if c != 50 && cMin >= 50 {
		t.Errorf("inconsistent: c=%d min=%d", c, cMin)
	}
}

func TestRequiredContainersZeroLambda(t *testing.T) {
	c, err := MinimalContainers(0, 10, slo95x100ms)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("idle function sized to %d containers", c)
	}
}

func TestRequiredContainersInvalid(t *testing.T) {
	if _, err := MinimalContainers(-1, 10, slo95x100ms); err == nil {
		t.Error("want error for negative lambda")
	}
	if _, err := MinimalContainers(1, 0, slo95x100ms); err == nil {
		t.Error("want error for zero mu")
	}
}

func TestQuickRequiredContainersMonotoneInLambda(t *testing.T) {
	f := func(a, b uint16) bool {
		l1 := float64(a%200) + 1
		l2 := l1 + float64(b%100)
		c1, err1 := MinimalContainers(l1, 10, slo95x100ms)
		c2, err2 := MinimalContainers(l2, 10, slo95x100ms)
		if err1 != nil || err2 != nil {
			return false
		}
		return c2 >= c1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickRequiredContainersTighterSLONeedsMore(t *testing.T) {
	f := func(a uint16) bool {
		lambda := float64(a%150) + 1
		loose := SLO{Deadline: 200 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
		tight := SLO{Deadline: 50 * time.Millisecond, Percentile: 0.99, WaitingOnly: true}
		cl, err1 := MinimalContainers(lambda, 10, loose)
		ct, err2 := MinimalContainers(lambda, 10, tight)
		if err1 != nil || err2 != nil {
			return false
		}
		return ct >= cl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestNaiveAgreesAtSmallScale(t *testing.T) {
	for _, lambda := range []float64{10, 30, 60, 120} {
		stable, err := MinimalContainers(lambda, 10, slo95x100ms)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := RequiredContainersNaive(lambda, 10, slo95x100ms, 0)
		if err != nil {
			t.Fatalf("lambda=%v: naive failed in its valid range: %v", lambda, err)
		}
		if naive != stable {
			t.Errorf("lambda=%v: naive=%d stable=%d", lambda, naive, stable)
		}
	}
}

func TestNaiveFailsAtLargeScale(t *testing.T) {
	// At r = λ/μ beyond ~170 the naive factorial-based evaluation must
	// break down (Fig 5's "precision limitations"). The stable solver keeps
	// working.
	lambda, mu := 2500.0, 10.0 // needs ~250+ containers
	if _, err := RequiredContainersNaive(lambda, mu, slo95x100ms, 0); err == nil {
		t.Error("naive solver unexpectedly survived r=250")
	}
	c, err := MinimalContainers(lambda, mu, slo95x100ms)
	if err != nil {
		t.Fatalf("stable solver failed: %v", err)
	}
	if c < 250 {
		t.Errorf("stable solver returned %d < offered-load floor", c)
	}
}

// TestNaiveHealthyFlag: the naive float64 evaluation gives a plausible
// probability for a small system and breaks down at r=200 — the boundary
// the Fig 5 robustness comparison counts.
func TestNaiveHealthyFlag(t *testing.T) {
	healthy := func(m NaiveMMC) bool {
		p := m.ProbWaitLE(0.1)
		return !math.IsNaN(p) && !math.IsInf(p, 0) && p >= 0 && p <= 1.0000001
	}
	if !healthy(NaiveMMC{Lambda: 30, Mu: 10, C: 6}) {
		t.Error("small system should be healthy")
	}
	if healthy(NaiveMMC{Lambda: 2000, Mu: 10, C: 220}) {
		t.Error("r=200 should break float64 factorials")
	}
}

func TestSolverMatchesExactQuantileWithinOne(t *testing.T) {
	// Cross-check Algorithm 1 against sizing by the exact M/M/c waiting
	// quantile: they should agree within one container.
	for _, lambda := range []float64{15, 35, 55, 95} {
		mu := 10.0
		c1, err := MinimalContainers(lambda, mu, slo95x100ms)
		if err != nil {
			t.Fatal(err)
		}
		// exact: smallest c with WaitQuantile(0.95) <= 0.1
		c2 := 0
		for c := int(lambda/mu) + 1; c < 1000; c++ {
			m := MMC{Lambda: lambda, Mu: mu, C: c}
			if !m.Stable() {
				continue
			}
			tq, err := m.WaitQuantile(0.95)
			if err != nil {
				t.Fatal(err)
			}
			if tq <= 0.1 {
				c2 = c
				break
			}
		}
		if d := c1 - c2; d < -1 || d > 1 {
			t.Errorf("lambda=%v: Algorithm1 c=%d vs exact-quantile c=%d", lambda, c1, c2)
		}
	}
}

func TestGGCExponentialMatchesMMCSizing(t *testing.T) {
	// CA2 = CS2 = 1 is the M/M/c case; sizing should agree within one
	// container (the tail shape is approximated).
	for _, lambda := range []float64{20, 45, 90} {
		cm, err := MinimalContainers(lambda, 10, slo95x100ms)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := RequiredContainersGGC(lambda, 10, 1, 1, slo95x100ms)
		if err != nil {
			t.Fatal(err)
		}
		if d := cm - cg; d < -1 || d > 1 {
			t.Errorf("lambda=%v: MMc=%d GGc(1,1)=%d", lambda, cm, cg)
		}
	}
}

func TestGGCDeterministicNeedsFewer(t *testing.T) {
	// Deterministic service (CS2=0) halves the Allen-Cunneen wait, so it
	// must never need more containers than exponential service.
	for _, lambda := range []float64{30, 60, 120} {
		ce, err := RequiredContainersGGC(lambda, 10, 1, 1, slo95x100ms)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := RequiredContainersGGC(lambda, 10, 1, 0, slo95x100ms)
		if err != nil {
			t.Fatal(err)
		}
		if cd > ce {
			t.Errorf("lambda=%v: deterministic %d > exponential %d", lambda, cd, ce)
		}
	}
}

func TestGGCBurstyNeedsMore(t *testing.T) {
	// More arrival variability (CA2 > 1) must not reduce capacity needs.
	cp, err := RequiredContainersGGC(60, 10, 1, 1, slo95x100ms)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := RequiredContainersGGC(60, 10, 4, 1, slo95x100ms)
	if err != nil {
		t.Fatal(err)
	}
	if cb < cp {
		t.Errorf("bursty %d < Poisson %d", cb, cp)
	}
}

func TestGGCZeroLambda(t *testing.T) {
	c, err := RequiredContainersGGC(0, 10, 1, 1, slo95x100ms)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("got %d", c)
	}
}

func TestGGCNegativeSCV(t *testing.T) {
	g := GGC{Lambda: 10, Mu: 10, C: 3, CA2: -1, CS2: 1}
	if _, err := g.MeanWait(); err == nil || !strings.Contains(err.Error(), "SCV") {
		t.Errorf("want SCV error, got %v", err)
	}
}

func TestHetSolverErrorPropagation(t *testing.T) {
	if _, err := AdditionalHetContainers(-5, nil, 10, slo95x100ms); err == nil {
		t.Error("want error for negative lambda")
	}
	if _, err := AdditionalHetContainers(5, nil, 0, slo95x100ms); err == nil {
		t.Error("want error for zero new-container rate")
	}
}

// TestHetProbWaitLEUnstableIsZero pins the reading the deflation property
// tests rely on: an unstable pool meets no SLO, an idle one every SLO.
func TestHetProbWaitLEUnstableIsZero(t *testing.T) {
	if p := hetProbWaitLE(100, []float64{10}, 0.1); p != 0 {
		t.Errorf("unstable pool p=%v want 0", p)
	}
	if p := hetProbWaitLE(0, []float64{10}, 0.1); p != 1 {
		t.Errorf("idle pool p=%v want 1", p)
	}
}

func TestWaitBudgetUsesMeanServiceFallback(t *testing.T) {
	s := SLO{Deadline: 300 * time.Millisecond, Percentile: 0.95}
	b, err := s.WaitBudget(10) // mean service 0.1s
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.2) > 1e-12 {
		t.Errorf("budget=%v want 0.2", b)
	}
}
