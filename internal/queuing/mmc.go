// Package queuing implements the queueing-theoretic capacity models at the
// core of LaSS (paper §3): the M/M/c steady-state analysis used to size
// homogeneous container pools (Eqs 1-4, Algorithm 1), the Alves et al.
// worst-case upper bounds for heterogeneous (deflated) container pools
// (Eqs 5-6), and the solvers that turn an observed arrival rate, a
// service-time profile, and an SLO deadline into a container count.
//
// Every solver but RequiredContainers, Algorithm 1's literal upward scan
// kept as the reference, is one search (solver.go) over its model's
// "does c containers meet the SLO" predicate: the smallest such c, walking
// down or up from a hint such as the previous epoch's answer. The
// predicate is upward-closed in c, so any hint gives the cold scan's
// answer and only the number of probed counts changes.
//
// The homogeneous M/M/c sizing (MinimalContainersFrom) first consults a
// process-wide memo (memo.go) keyed by (μ, wait budget, percentile). Each
// search proves that its answer c meets the SLO at its λ and that c−1
// does not, and P(Q ≤ t) is nonincreasing in λ for fixed c, so a later λ
// bracketed by such facts is answered with zero probes. A λ within a
// relative 1e-9 of a recorded rate is searched instead: the computed
// predicate's rounding reversals stay inside that band over the counts,
// rates and SLOs TestMeetsNonincreasingInLambda checks, so there the
// memo's answers equal the search's bit for bit. A lookup takes no lock:
// the memo is published through atomic pointers like the log-factorial
// cache, and its facts only tighten, so a reader racing a writer still
// reads only true ones. It checks the caller's hint before scanning up
// from the stability floor.
//
// Two implementations of the M/M/c evaluation exist side by side:
//
//   - MMC computes steady-state probabilities in log space with log-sum-exp
//     normalization, which stays numerically exact for thousands of
//     containers. This corresponds to the paper's Julia implementation that
//     reacts in under 100 ms with 1000 running containers (Fig 5).
//   - NaiveMMC (naive.go) evaluates the textbook formulas directly in
//     float64 with explicit factorials, which overflows past 170 servers and
//     loses precision long before that. It stands in for the paper's Scala
//     implementation, which "was not able to compute the results in some
//     cases due to its precision limitations" (§6.3).
//
// All rates are in requests/second; times are in seconds unless a
// time.Duration-typed helper is used.
package queuing

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// ErrUnstable is returned when a queueing system has utilization >= 1 and
// therefore no steady state: no finite container pool of the given size can
// bound waiting time.
var ErrUnstable = errors.New("queuing: system is unstable (utilization >= 1)")

// MMC is an M/M/c/FCFS queueing system: Poisson arrivals at rate Lambda,
// exponential service at rate Mu per server, C identical servers.
// In LaSS each "server" is one container running the function (§3.1).
type MMC struct {
	Lambda float64 // arrival rate, req/s
	Mu     float64 // per-container service rate, req/s
	C      int     // number of containers
}

// Validate checks structural parameters (it does not require stability).
func (m MMC) Validate() error {
	if m.Lambda < 0 {
		return fmt.Errorf("queuing: negative arrival rate %v", m.Lambda)
	}
	if m.Mu <= 0 {
		return fmt.Errorf("queuing: non-positive service rate %v", m.Mu)
	}
	if m.C < 1 {
		return fmt.Errorf("queuing: need at least 1 server, got %d", m.C)
	}
	return nil
}

// Rho returns the utilization λ/(cμ).
func (m MMC) Rho() float64 { return m.Lambda / (float64(m.C) * m.Mu) }

// Stable reports whether the system has a steady state (ρ < 1).
func (m MMC) Stable() bool { return m.Rho() < 1 }

// logSumExp returns log(Σ exp(x_i)) computed stably.
//
//lass:bitexact
func logSumExp(xs []float64) float64 {
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

// logFactCache is the growing shared cache of log(n!) values. The published
// table is immutable (readers index it lock-free through the atomic
// pointer); growth happens under the mutex by copying into a fresh slice,
// so each log(n!) is computed by math.Lgamma exactly once, ever. Every
// sizing epoch used to recompute these from scratch — O(c²) Lgamma calls
// per Algorithm 1 scan — which dominated the control plane at metro scale.
var logFactCache struct {
	mu  sync.Mutex
	tab atomic.Pointer[[]float64]
}

// logFactorials returns an immutable table t covering 0..n (len(t) > n)
// with t[k] = log(k!). Cached values are bit-identical to the direct
// math.Lgamma computation they replace: each entry is produced by the same
// single call the uncached form made, just once instead of every epoch.
// Callers on hot paths hoist the returned slice out of their probe loops.
func logFactorials(n int) []float64 {
	if tab := logFactCache.tab.Load(); tab != nil && n < len(*tab) {
		return *tab
	}
	return growLogFactorials(n)
}

// growLogFactorials extends the cache to cover n and returns the new table.
func growLogFactorials(n int) []float64 {
	logFactCache.mu.Lock()
	defer logFactCache.mu.Unlock()
	var cur []float64
	if tab := logFactCache.tab.Load(); tab != nil {
		cur = *tab
		if n < len(cur) {
			return cur
		}
	}
	size := 2 * len(cur)
	if size < 128 {
		size = 128
	}
	if size < n+1 {
		size = n + 1
	}
	next := make([]float64, size)
	copy(next, cur)
	for k := len(cur); k < size; k++ {
		lg, _ := math.Lgamma(float64(k) + 1)
		next[k] = lg
	}
	logFactCache.tab.Store(&next)
	return next
}

// logFactorial returns log(n!) via the log-gamma function, served from the
// shared cache.
func logFactorial(n int) float64 {
	return logFactorials(n)[n]
}

// logP0 returns log of the empty-system probability P0 (Eq 2):
//
//	P0 = [ r^c / (c!(1-ρ)) + Σ_{n=0}^{c-1} r^n/n! ]^{-1}
//
// computed entirely in log space.
//
//lass:bitexact
func (m MMC) logP0() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if !m.Stable() {
		return 0, ErrUnstable
	}
	r := m.Lambda / m.Mu
	if r == 0 {
		return 0, nil // log(1): empty system with certainty
	}
	logr := math.Log(r)
	rho := m.Rho()
	lf := logFactorials(m.C) // hoisted: one cache load for the whole scan
	tail := float64(m.C)*logr - lf[m.C] - math.Log(1-rho)
	// Stream the log-sum-exp over the C+1 terms without materializing a
	// slice. The terms are regenerated in the same order the slice held
	// them (n = 0..C-1, then the tail), so the floating-point result is
	// bit-identical to the materialized form.
	max := math.Inf(-1)
	for n := 0; n < m.C; n++ {
		if x := float64(n)*logr - lf[n]; x > max {
			max = x
		}
	}
	if tail > max {
		max = tail
	}
	if math.IsInf(max, -1) {
		return -max, nil
	}
	var sum float64
	for n := 0; n < m.C; n++ {
		sum += math.Exp(float64(n)*logr - lf[n] - max)
	}
	sum += math.Exp(tail - max)
	return -(max + math.Log(sum)), nil
}

// P0 returns the steady-state probability of an empty system (Eq 2).
func (m MMC) P0() (float64, error) {
	lp, err := m.logP0()
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// logPn returns log(P_n) per Eq 1.
func (m MMC) logPn(n int, logp0 float64) float64 {
	r := m.Lambda / m.Mu
	if r == 0 {
		if n == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	logr := math.Log(r)
	if n <= m.C {
		return float64(n)*logr - logFactorial(n) + logp0
	}
	// r^n / (c^(n-c) c!) — Eq 1 second branch.
	return float64(n)*logr - float64(n-m.C)*math.Log(float64(m.C)) - logFactorial(m.C) + logp0
}

// Pn returns the steady-state probability of seeing n requests in the
// system (Eq 1).
func (m MMC) Pn(n int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("queuing: negative n %d", n)
	}
	lp0, err := m.logP0()
	if err != nil {
		return 0, err
	}
	return math.Exp(m.logPn(n, lp0)), nil
}

// ErlangC returns the probability that an arriving request must wait
// (all c containers busy), the classic Erlang-C formula. Used as an exact
// cross-check of the summed steady-state probabilities in tests.
func (m MMC) ErlangC() (float64, error) {
	lp0, err := m.logP0()
	if err != nil {
		return 0, err
	}
	r := m.Lambda / m.Mu
	if r == 0 {
		return 0, nil
	}
	rho := m.Rho()
	// P(wait) = r^c/(c!(1-ρ)) · P0
	lw := float64(m.C)*math.Log(r) - logFactorial(m.C) - math.Log(1-rho) + lp0
	return math.Exp(lw), nil
}

// MeanWait returns the expected queueing delay Wq = C(c,r)/(cμ-λ).
func (m MMC) MeanWait() (float64, error) {
	pw, err := m.ErlangC()
	if err != nil {
		return 0, err
	}
	return pw / (float64(m.C)*m.Mu - m.Lambda), nil
}

// waitBoundStates returns L = ⌊t·c·μ + c - 1⌋, the largest number of
// requests an arrival can see in the system while its expected wait still
// fits within t (paper Eq 3 rearranged, Algorithm 1 line 4).
func (m MMC) waitBoundStates(t float64) int {
	if t < 0 {
		t = 0
	}
	return int(math.Floor(t*float64(m.C)*m.Mu + float64(m.C) - 1))
}

// ProbWaitLE returns the paper's bound on P(Q ≤ t): the probability that an
// arriving request sees no more than L = ⌊tcμ + c - 1⌋ requests already in
// the system (Eqs 3-4). This is the quantity Algorithm 1 drives to the SLO
// percentile.
//
//lass:bitexact
func (m MMC) ProbWaitLE(t float64) (float64, error) {
	lp0, err := m.logP0()
	if err != nil {
		return 0, err
	}
	L := m.waitBoundStates(t)
	if L < 0 {
		return 0, nil
	}
	// The probe loops below inline logPn with every t- and n-independent
	// quantity hoisted out of the loop: log(r), log(c), log(c!), and the
	// shared log-factorial table are each computed once per call instead of
	// once per probe. Hoisting changes where the values are computed, not
	// what they are, so every term — and the streamed log-sum-exp over them
	// — is bit-identical to the unhoisted per-probe form (the regression
	// test compares against a frozen unhoisted copy term by term).
	r := m.Lambda / m.Mu
	if r == 0 {
		return 1, nil // lp0 = 0 and only the n=0 term is finite
	}
	logr := math.Log(r)
	logc := math.Log(float64(m.C))
	lf := logFactorials(m.C)
	lfc := lf[m.C]
	logPn := func(n int) float64 {
		if n <= m.C {
			return float64(n)*logr - lf[n] + lp0
		}
		// r^n / (c^(n-c) c!) — Eq 1 second branch.
		return float64(n)*logr - float64(n-m.C)*logc - lfc + lp0
	}
	// Streamed log-sum-exp over logPn(0..L): logPn is pure, so the second
	// pass regenerates exactly the values a slice would have held, in the
	// same order — bit-identical, allocation-free at any L.
	max := math.Inf(-1)
	for n := 0; n <= L; n++ {
		if x := logPn(n); x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return 0, nil
	}
	var sum float64
	for n := 0; n <= L; n++ {
		sum += math.Exp(logPn(n) - max)
	}
	p := math.Exp(max + math.Log(sum))
	if p > 1 {
		p = 1 // guard against last-ulp rounding
	}
	return p, nil
}

// ProbWaitLEExact returns the exact M/M/c waiting-time CDF
// P(W ≤ t) = 1 - C(c,r)·e^{-(cμ-λ)t}, used in tests to validate that the
// paper's discrete state-count bound is conservative and close.
func (m MMC) ProbWaitLEExact(t float64) (float64, error) {
	pw, err := m.ErlangC()
	if err != nil {
		return 0, err
	}
	if t < 0 {
		t = 0
	}
	return 1 - pw*math.Exp(-(float64(m.C)*m.Mu-m.Lambda)*t), nil
}

// WaitQuantile returns the t such that P(W ≤ t) = q under the exact
// M/M/c waiting-time distribution (0 when the quantile falls inside the
// no-wait mass).
func (m MMC) WaitQuantile(q float64) (float64, error) {
	pw, err := m.ErlangC()
	if err != nil {
		return 0, err
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("queuing: quantile %v out of [0,1]", q)
	}
	if 1-q >= pw {
		return 0, nil // quantile is inside P(W=0) mass
	}
	return -math.Log((1-q)/pw) / (float64(m.C)*m.Mu - m.Lambda), nil
}
