package queuing

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// SLO describes the latency target the solvers provision against, matching
// the paper's problem statement (§2.3): a high percentile of requests must
// start service (or complete) within the deadline.
type SLO struct {
	// Deadline is the end-to-end target d_i. When WaitingOnly is set the
	// deadline applies to queueing delay alone (the evaluation's default:
	// "95% of requests should start being processed within 100 ms", §6.1).
	Deadline time.Duration
	// Percentile is the fraction of requests that must meet the deadline,
	// e.g. 0.95 or 0.99.
	Percentile float64
	// WaitingOnly selects whether Deadline bounds just the waiting time
	// (true) or waiting plus the mean service time 1/μ (false), the
	// solver's stand-in for §3.1's t = d - 1/μ_p.
	WaitingOnly bool
}

// WaitBudget returns the waiting-time budget t (seconds) implied by the SLO
// given the mean service rate mu.
func (s SLO) WaitBudget(mu float64) (float64, error) {
	d := s.Deadline.Seconds()
	if d <= 0 {
		return 0, fmt.Errorf("queuing: non-positive SLO deadline %v", s.Deadline)
	}
	if !(s.Percentile > 0 && s.Percentile < 1) {
		return 0, fmt.Errorf("queuing: SLO percentile %v out of (0,1)", s.Percentile)
	}
	if s.WaitingOnly {
		return d, nil
	}
	if mu <= 0 {
		return 0, fmt.Errorf("queuing: non-positive service rate %v", mu)
	}
	t := d - 1/mu
	if t <= 0 {
		return 0, fmt.Errorf("queuing: SLO deadline %v leaves no waiting budget after service time %.4fs", s.Deadline, 1/mu)
	}
	return t, nil
}

// MaxSolverContainers bounds the container count the solvers will consider
// before giving up; it is a safety valve against pathological inputs (e.g.
// deadlines shorter than any achievable wait), not a cluster capacity limit.
const MaxSolverContainers = 1 << 20

// finite reports whether no x is NaN or ±Inf. The solvers reject a
// non-finite rate before probing: it meets no SLO at any count.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// stabilityFloor is the smallest container count c > λ/μ.
func stabilityFloor(lambda, mu float64) int { return int(math.Floor(lambda/mu)) + 1 }

// errExhausted is search's report that no count in its range meets the SLO.
var errExhausted = errors.New("queuing: search exhausted")

// search is the one container-count search behind every sizing model: it
// returns the smallest c in [lo, hi] for which meets(c) holds, given that
// meets is upward-closed (once a count meets the SLO every larger count
// does too). It starts at hint clamped into [lo, hi] and walks down while
// c-1 still meets, otherwise up; a hint ≤ lo is Algorithm 1's upward scan.
// Each meets(c) is independent of the path, so any hint yields the same
// answer — a hint near it (the previous epoch's result) just probes fewer
// counts. It returns meets' first error, or errExhausted when no count up
// to hi meets.
func search(lo, hi, hint int, meets func(c int) (bool, error)) (int, error) {
	if lo > hi {
		return 0, errExhausted
	}
	c := min(max(hint, lo), hi)
	ok, err := meets(c)
	if err != nil {
		return 0, err
	}
	if ok {
		for c > lo {
			ok, err := meets(c - 1)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			c--
		}
		return c, nil
	}
	for c++; c <= hi; c++ {
		ok, err := meets(c)
		if err != nil {
			return 0, err
		}
		if ok {
			return c, nil
		}
	}
	return 0, errExhausted
}

// RequiredContainers implements the paper's Algorithm 1: starting from the
// current container count (at least the stability minimum), increment c
// until P(Q ≤ t) ≥ percentile. It returns the smallest such c found by the
// upward scan.
//
// startC is "the number of containers in the system" (Algorithm 1 line 1);
// pass 0 when sizing from scratch. The returned count is 0 when lambda is 0
// (an idle function needs no capacity by the model; minimum-pool policy is
// the controller's concern).
func RequiredContainers(lambda, mu float64, slo SLO, startC int) (int, error) {
	if lambda < 0 || mu <= 0 || !finite(lambda, mu) {
		return 0, fmt.Errorf("queuing: invalid rates lambda=%v mu=%v", lambda, mu)
	}
	if lambda == 0 {
		return 0, nil
	}
	t, err := slo.WaitBudget(mu)
	if err != nil {
		return 0, err
	}
	// Stability floor: c must exceed λ/μ.
	c := int(math.Floor(lambda/mu)) + 1
	if startC > c {
		c = startC
	}
	for ; c <= MaxSolverContainers; c++ {
		m := MMC{Lambda: lambda, Mu: mu, C: c}
		if !m.Stable() {
			continue
		}
		p, err := m.ProbWaitLE(t)
		if err != nil {
			return 0, err
		}
		if p >= slo.Percentile {
			return c, nil
		}
	}
	return 0, fmt.Errorf("queuing: no container count up to %d meets SLO (lambda=%v mu=%v t=%vs p=%v)",
		MaxSolverContainers, lambda, mu, t, slo.Percentile)
}

// MinimalContainers returns the smallest c ≥ 1 meeting the SLO, regardless
// of the current allocation. The controller uses it to compute c_new each
// epoch: unlike Algorithm 1's upward-only scan it also allows scaling down.
func MinimalContainers(lambda, mu float64, slo SLO) (int, error) {
	return MinimalContainersFrom(lambda, mu, slo, 0)
}

// MinimalContainersFrom returns exactly MinimalContainers' answer. It first
// asks the process-wide sizing memo (memo.go), which answers with zero
// probes and no lock whenever earlier searches for the same (μ, t, p)
// already proved the answer for this λ, checking hint before any other
// count. Otherwise it searches from hint — a previous epoch's result for
// the same function. P(Q ≤ t) is nondecreasing in c for
// fixed λ, μ, t (more containers both drain the queue faster and raise
// the Eq 3 state bound L), so the satisfying counts are upward-closed and
// search finds the count the cold scan from the stability floor finds,
// bit for bit (the warm-sizer tests assert it under adversarial demand
// swings, and the memo tests against Algorithm 1 under any call order).
func MinimalContainersFrom(lambda, mu float64, slo SLO, hint int) (int, error) {
	if lambda < 0 || mu <= 0 || !finite(lambda, mu) {
		return 0, fmt.Errorf("queuing: invalid rates lambda=%v mu=%v", lambda, mu)
	}
	if lambda == 0 {
		return 0, nil
	}
	t, err := slo.WaitBudget(mu)
	if err != nil {
		return 0, err
	}
	lo, key := stabilityFloor(lambda, mu), memoKey{mu, t, slo.Percentile}
	if c, ok := memoLookup(key, lambda, lo, hint); ok {
		return c, nil
	}
	c, err := search(lo, MaxSolverContainers, hint, func(c int) (bool, error) {
		return meetsMMC(lambda, mu, t, slo.Percentile, c)
	})
	if errors.Is(err, errExhausted) {
		return 0, fmt.Errorf("queuing: no container count up to %d meets SLO (lambda=%v mu=%v t=%vs p=%v)",
			MaxSolverContainers, lambda, mu, t, slo.Percentile)
	}
	if err == nil {
		memoRecord(key, lambda, lo, c)
	}
	return c, err
}

// meetsMMC reports whether c containers meet the SLO (wait budget t,
// percentile p) on the M/M/c model: the predicate MinimalContainersFrom
// searches over and its memo records.
func meetsMMC(lambda, mu, t, p float64, c int) (bool, error) {
	m := MMC{Lambda: lambda, Mu: mu, C: c}
	if !m.Stable() {
		return false, nil
	}
	q, err := m.ProbWaitLE(t)
	return q >= p, err
}

// RequiredContainersNaive runs Algorithm 1's upward scan on the naive
// float64 implementation, returning an error at the first count where the
// arithmetic breaks down. It exists for the Figure 5
// scalability/robustness comparison.
func RequiredContainersNaive(lambda, mu float64, slo SLO, startC int) (int, error) {
	if lambda <= 0 || mu <= 0 || !finite(lambda, mu) {
		return 0, fmt.Errorf("queuing: invalid rates lambda=%v mu=%v", lambda, mu)
	}
	t, err := slo.WaitBudget(mu)
	if err != nil {
		return 0, err
	}
	c, err := search(max(stabilityFloor(lambda, mu), startC), MaxSolverContainers, 0, func(c int) (bool, error) {
		if lambda/(float64(c)*mu) >= 1 {
			return false, nil
		}
		p := NaiveMMC{Lambda: lambda, Mu: mu, C: c}.ProbWaitLE(t)
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1.0000001 {
			return false, fmt.Errorf("queuing: naive evaluation lost precision at c=%d (p=%v)", c, p)
		}
		return p >= slo.Percentile, nil
	})
	if errors.Is(err, errExhausted) {
		return 0, fmt.Errorf("queuing: naive scan exhausted")
	}
	return c, err
}

// AdditionalHetContainers sizes a heterogeneous pool (paper §3.2): given the
// service rates of the containers already running (possibly deflated) and
// the service rate a newly created standard container would have, it returns
// how many standard containers must be added so that the Alves worst-case
// bound on P(Q ≤ t) reaches the SLO percentile. existing may be empty.
func AdditionalHetContainers(lambda float64, existing []float64, newRate float64, slo SLO) (int, error) {
	return AdditionalHetContainersFrom(lambda, existing, newRate, slo, 0)
}

// hetScratch is the heterogeneous search's reusable model and rate list. A
// caller that finds it busy works in fresh ones instead of waiting, so
// concurrent sizings never serialise on it; nothing a search reads
// survives from an earlier one, so sharing cannot change an answer.
var hetScratch struct {
	mu    sync.Mutex
	h     HetMMC
	rates []float64
}

// AdditionalHetContainersFrom returns exactly AdditionalHetContainers'
// answer, seeding the search for the addition count at hint (a previous
// epoch's result). Adding a standard container only ever raises the Alves
// bound on P(Q ≤ t) — the pool's aggregate rate grows and the worst-case
// scheduler's options improve — so the satisfying additions are
// upward-closed and search lands on the count the cold scan from zero
// finds (asserted by the warm-sizer swing tests).
func AdditionalHetContainersFrom(lambda float64, existing []float64, newRate float64, slo SLO, hint int) (int, error) {
	if lambda < 0 || newRate <= 0 || !finite(lambda, newRate) || !finite(existing...) {
		return 0, fmt.Errorf("queuing: invalid rates lambda=%v newRate=%v existing=%v", lambda, newRate, existing)
	}
	if lambda == 0 {
		return 0, nil
	}
	// Waiting budget from the mean rate of the would-be pool; the
	// controller passes WaitingOnly SLOs in the evaluation so this only
	// matters for end-to-end deadlines.
	t, err := slo.WaitBudget(newRate)
	if err != nil {
		return 0, err
	}
	h, rates := &HetMMC{}, []float64(nil)
	if hetScratch.mu.TryLock() {
		defer hetScratch.mu.Unlock()
		h, rates = &hetScratch.h, hetScratch.rates[:0]
		defer func() { hetScratch.rates = rates }()
	}
	rates = append(rates, existing...)
	add, err := search(0, max(0, MaxSolverContainers-len(existing)), hint, func(add int) (bool, error) {
		if len(existing)+add == 0 {
			return false, nil
		}
		for len(rates) < len(existing)+add {
			rates = append(rates, newRate)
		}
		if err := h.reset(lambda, rates[:len(existing)+add]); err != nil || !h.Stable() {
			return false, err
		}
		p, err := h.ProbWaitLE(t)
		return p >= slo.Percentile, err
	})
	if errors.Is(err, errExhausted) {
		return 0, fmt.Errorf("queuing: heterogeneous scan exhausted (lambda=%v)", lambda)
	}
	return add, err
}
