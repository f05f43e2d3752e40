package queuing

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// NewHetMMC builds a model over rates for the tests; the solver reuses one
// through reset instead.
func NewHetMMC(lambda float64, rates []float64) (*HetMMC, error) {
	h := &HetMMC{}
	if err := h.reset(lambda, rates); err != nil {
		return nil, err
	}
	return h, nil
}

func TestHetReducesToHomogeneous(t *testing.T) {
	// With equal rates, the Alves worst-case model is exactly M/M/c:
	// S_k = kμ so a_n = r^n/n! for n ≤ c and the tail ratio is λ/(cμ).
	lambda, mu, c := 35.0, 10.0, 5
	rates := make([]float64, c)
	for i := range rates {
		rates[i] = mu
	}
	h, err := NewHetMMC(lambda, rates)
	if err != nil {
		t.Fatal(err)
	}
	m := MMC{Lambda: lambda, Mu: mu, C: c}

	hp0, err := h.P0()
	if err != nil {
		t.Fatal(err)
	}
	mp0, err := m.P0()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(hp0, mp0, 1e-10) {
		t.Errorf("P0: het %v vs homo %v", hp0, mp0)
	}
	for n := 0; n <= 12; n++ {
		hpn, err := h.Pn(n)
		if err != nil {
			t.Fatal(err)
		}
		mpn, err := m.Pn(n)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(hpn, mpn, 1e-10) {
			t.Errorf("n=%d: het %v vs homo %v", n, hpn, mpn)
		}
	}
	for _, tt := range []float64{0.01, 0.1, 0.5} {
		hp, err := h.ProbWaitLE(tt)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := m.ProbWaitLE(tt)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(hp, mp, 1e-10) {
			t.Errorf("t=%v: het %v vs homo %v", tt, hp, mp)
		}
	}
}

func TestHetProbabilitiesSumToOne(t *testing.T) {
	h, err := NewHetMMC(20, []float64{3, 5, 7, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for n := 0; n <= 4000; n++ {
		p, err := h.Pn(n)
		if err != nil {
			t.Fatal(err)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestHetSortsRates(t *testing.T) {
	h1, err := NewHetMMC(10, []float64{10, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHetMMC(10, []float64{3, 7, 10})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := h1.ProbWaitLE(0.1)
	p2, _ := h2.ProbWaitLE(0.1)
	if !almostEqual(p1, p2, 1e-12) {
		t.Errorf("rate order changed result: %v vs %v", p1, p2)
	}
}

func TestHetWorstCaseIsConservative(t *testing.T) {
	// A heterogeneous pool with the same aggregate rate as a homogeneous
	// pool must never look better under the worst-case bound.
	lambda := 25.0
	homog := MMC{Lambda: lambda, Mu: 10, C: 4} // total 40
	het, err := NewHetMMC(lambda, []float64{4, 6, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if het.TotalRate() != 40 {
		t.Fatalf("test setup: total rate %v", het.TotalRate())
	}
	for _, tt := range []float64{0.01, 0.05, 0.1, 0.3} {
		hp, err := het.ProbWaitLE(tt)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := homog.ProbWaitLE(tt)
		if err != nil {
			t.Fatal(err)
		}
		if hp > mp+1e-9 {
			t.Errorf("t=%v: het bound %v better than homogeneous %v", tt, hp, mp)
		}
	}
}

func TestHetUnstable(t *testing.T) {
	h, err := NewHetMMC(100, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if h.Stable() {
		t.Fatal("should be unstable")
	}
	if _, err := h.P0(); err != ErrUnstable {
		t.Errorf("want ErrUnstable, got %v", err)
	}
}

func TestHetValidation(t *testing.T) {
	if _, err := NewHetMMC(-1, []float64{10}); err == nil {
		t.Error("want error for negative lambda")
	}
	if _, err := NewHetMMC(1, nil); err == nil {
		t.Error("want error for empty rates")
	}
	if _, err := NewHetMMC(1, []float64{0}); err == nil {
		t.Error("want error for zero rate")
	}
}

func TestHetZeroLambda(t *testing.T) {
	h, err := NewHetMMC(0, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	p0, err := h.P0()
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 1 {
		t.Errorf("P0=%v want 1", p0)
	}
	p, err := h.ProbWaitLE(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("ProbWaitLE=%v want 1", p)
	}
}

func TestQuickHetEqualRatesMatchesMMC(t *testing.T) {
	f := func(l uint16, c uint8) bool {
		cc := int(c%16) + 1
		mu := 10.0
		lambda := float64(l%90+1) / 100 * float64(cc) * mu
		rates := make([]float64, cc)
		for i := range rates {
			rates[i] = mu
		}
		h, err := NewHetMMC(lambda, rates)
		if err != nil {
			return false
		}
		m := MMC{Lambda: lambda, Mu: mu, C: cc}
		hp, err1 := h.ProbWaitLE(0.1)
		mp, err2 := m.ProbWaitLE(0.1)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(hp-mp) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickHetDeflationNeverImprovesBound(t *testing.T) {
	// Deflating any one container (reducing its rate) must not improve
	// the waiting-probability bound.
	f := func(l uint16, c uint8, which uint8, frac uint8) bool {
		cc := int(c%8) + 2
		mu := 10.0
		lambda := float64(l%70+1) / 100 * float64(cc) * mu
		rates := make([]float64, cc)
		for i := range rates {
			rates[i] = mu
		}
		before := hetProbWaitLE(lambda, rates, 0.1)
		idx := int(which) % cc
		f01 := 0.3 + 0.6*float64(frac)/255 // deflate to 30-90% of original
		rates[idx] = mu * f01
		after := hetProbWaitLE(lambda, rates, 0.1)
		return after <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdditionalHetContainers(t *testing.T) {
	slo := SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}

	// Empty pool: behaves like sizing from scratch.
	add, err := AdditionalHetContainers(30, nil, 10, slo)
	if err != nil {
		t.Fatal(err)
	}
	homog, err := MinimalContainers(30, 10, slo)
	if err != nil {
		t.Fatal(err)
	}
	if add != homog {
		t.Errorf("empty-pool het sizing %d != homogeneous %d", add, homog)
	}

	// A pool of deflated containers needs at least as many additions as a
	// pool of full-rate containers of the same count.
	deflated := []float64{6, 6, 6}
	full := []float64{10, 10, 10}
	addDef, err := AdditionalHetContainers(30, deflated, 10, slo)
	if err != nil {
		t.Fatal(err)
	}
	addFull, err := AdditionalHetContainers(30, full, 10, slo)
	if err != nil {
		t.Fatal(err)
	}
	if addDef < addFull {
		t.Errorf("deflated pool needs %d additions < full pool %d", addDef, addFull)
	}

	// Zero lambda needs nothing.
	add0, err := AdditionalHetContainers(0, deflated, 10, slo)
	if err != nil {
		t.Fatal(err)
	}
	if add0 != 0 {
		t.Errorf("idle function wants %d additions", add0)
	}
}

func TestAdditionalHetContainersMeetsSLO(t *testing.T) {
	slo := SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	existing := []float64{7, 7, 8.5}
	lambda := 42.0
	add, err := AdditionalHetContainers(lambda, existing, 10, slo)
	if err != nil {
		t.Fatal(err)
	}
	pool := append([]float64(nil), existing...)
	for i := 0; i < add; i++ {
		pool = append(pool, 10)
	}
	if p := hetProbWaitLE(lambda, pool, 0.1); p < 0.95 {
		t.Errorf("after adding %d containers, P(wait<=0.1)=%v < 0.95", add, p)
	}
	if add > 0 {
		smaller := pool[:len(pool)-1]
		if p := hetProbWaitLE(lambda, smaller, 0.1); p >= 0.95 {
			t.Errorf("solver overshot: %d-1 containers already meet SLO (p=%v)", add, p)
		}
	}
}

// hetProbWaitLE evaluates the heterogeneous bound for a pool, reading an
// unstable pool as 0: "does this pool meet the SLO".
func hetProbWaitLE(lambda float64, rates []float64, t float64) float64 {
	if lambda == 0 {
		return 1
	}
	h, err := NewHetMMC(lambda, rates)
	if err != nil || !h.Stable() {
		return 0
	}
	p, err := h.ProbWaitLE(t)
	if err != nil {
		return 0
	}
	return p
}
