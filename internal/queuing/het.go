package queuing

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// HetMMC models an M/M/c queue whose c servers have heterogeneous service
// rates, using the worst-case upper bounds of Alves et al. (paper §3.2,
// Eqs 5-6). LaSS needs this whenever deflation has produced containers of
// unequal size: the bound assumes the scheduler always picks the slowest
// idle container first, so provisioning against it is safe regardless of
// how the load balancer actually schedules.
type HetMMC struct {
	Lambda float64   // arrival rate, req/s
	Rates  []float64 // per-container service rates, req/s (any order)

	sorted  []float64 // ascending copy of Rates
	prefix  []float64 // prefix[k] = μ_1 + ... + μ_k (1-based, prefix[0]=0)
	logPref []float64 // logPref[k] = Σ_{j=1..k} log(prefix[j])
	terms   []float64 // logP0's and ProbWaitLE's log-sum-exp scratch
}

// reset builds the model over rates, sorting them ascending as the
// worst-case analysis requires (slowest containers first). It reuses h's
// buffers, so a search that rebuilds one model per probe allocates only
// when the pool outgrows them.
func (h *HetMMC) reset(lambda float64, rates []float64) error {
	if lambda < 0 {
		return fmt.Errorf("queuing: negative arrival rate %v", lambda)
	}
	if len(rates) == 0 {
		return fmt.Errorf("queuing: heterogeneous model needs at least one container")
	}
	h.Lambda, h.Rates = lambda, rates
	h.sorted = append(h.sorted[:0], rates...)
	sort.Float64s(h.sorted)
	if h.sorted[0] <= 0 {
		return fmt.Errorf("queuing: non-positive service rate %v", h.sorted[0])
	}
	c := len(h.sorted)
	h.prefix = slices.Grow(h.prefix[:0], c+1)[:c+1]
	h.logPref = slices.Grow(h.logPref[:0], c+1)[:c+1]
	h.prefix[0], h.logPref[0] = 0, 0
	for k := 1; k <= c; k++ {
		h.prefix[k] = h.prefix[k-1] + h.sorted[k-1]
		h.logPref[k] = h.logPref[k-1] + math.Log(h.prefix[k])
	}
	return nil
}

// TotalRate returns the aggregate service rate Σ μ_j.
func (h *HetMMC) TotalRate() float64 { return h.prefix[len(h.sorted)] }

// Rho returns the utilization λ/Σμ_j.
func (h *HetMMC) Rho() float64 { return h.Lambda / h.TotalRate() }

// Stable reports whether the system has a steady state (ρ < 1).
func (h *HetMMC) Stable() bool { return h.Rho() < 1 }

// logA returns log of the unnormalized state weight a_n (P_n = P0·a_n):
//
//	n ≤ c: a_n = λ^n / Π_{k=1}^{n} S_k          (Eq 5, S_k = Σ_{j≤k} μ_j)
//	n > c: a_n = a_c · (λ/S_c)^{n-c}            (Eq 6)
func (h *HetMMC) logA(n int) float64 {
	if n == 0 {
		return 0
	}
	c := len(h.sorted)
	logLambda := math.Log(h.Lambda)
	if h.Lambda == 0 {
		return math.Inf(-1)
	}
	if n <= c {
		return float64(n)*logLambda - h.logPref[n]
	}
	logAc := float64(c)*logLambda - h.logPref[c]
	return logAc + float64(n-c)*(logLambda-math.Log(h.prefix[c]))
}

// logP0 returns log(P0) where P0 normalizes the a_n over all n >= 0.
// The tail n > c is a geometric series with ratio λ/S_c < 1.
func (h *HetMMC) logP0() (float64, error) {
	if h.Lambda == 0 {
		return 0, nil
	}
	if !h.Stable() {
		return 0, ErrUnstable
	}
	c := len(h.sorted)
	terms := h.terms[:0]
	for n := 0; n <= c; n++ {
		terms = append(terms, h.logA(n))
	}
	// Σ_{n=c+1}^∞ a_n = a_c · x/(1-x), x = λ/S_c.
	x := h.Lambda / h.prefix[c]
	terms = append(terms, h.logA(c)+math.Log(x)-math.Log(1-x))
	h.terms = terms
	return -logSumExp(terms), nil
}

// P0 returns the upper-bound empty-system probability.
func (h *HetMMC) P0() (float64, error) {
	lp, err := h.logP0()
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// Pn returns the Alves worst-case upper bound on the probability of seeing
// n requests in the system.
func (h *HetMMC) Pn(n int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("queuing: negative n %d", n)
	}
	lp0, err := h.logP0()
	if err != nil {
		return 0, err
	}
	return math.Exp(lp0 + h.logA(n)), nil
}

// waitBoundStates returns L = ⌊t·S_c + c - 1⌋: with all c containers busy,
// departures occur at aggregate rate S_c, so an arrival that sees at most L
// requests has expected wait ≤ t (the heterogeneous analogue of Eq 3).
func (h *HetMMC) waitBoundStates(t float64) int {
	if t < 0 {
		t = 0
	}
	c := len(h.sorted)
	return int(math.Floor(t*h.prefix[c] + float64(c) - 1))
}

// ProbWaitLE returns the worst-case lower bound on P(Q ≤ t): the summed
// state probabilities up to L (heterogeneous analogue of Eq 4). Because the
// P_n for n > 0 are upper bounds concentrated by the worst-case scheduler,
// the resulting provisioning decision is conservative.
func (h *HetMMC) ProbWaitLE(t float64) (float64, error) {
	lp0, err := h.logP0()
	if err != nil {
		return 0, err
	}
	L := h.waitBoundStates(t)
	if L < 0 {
		return 0, nil
	}
	c := len(h.sorted)
	terms := h.terms[:0]
	for n := 0; n <= L && n <= c; n++ {
		terms = append(terms, h.logA(n))
	}
	if L > c {
		// Partial geometric tail Σ_{n=c+1}^{L} a_n = a_c·x(1-x^{L-c})/(1-x).
		x := h.Lambda / h.prefix[c]
		k := float64(L - c)
		if x > 0 {
			partial := h.logA(c) + math.Log(x) + math.Log1p(-math.Pow(x, k)) - math.Log(1-x)
			terms = append(terms, partial)
		}
	}
	h.terms = terms
	p := math.Exp(lp0 + logSumExp(terms))
	if p > 1 {
		p = 1
	}
	return p, nil
}
