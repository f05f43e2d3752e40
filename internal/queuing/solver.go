package queuing

import (
	"fmt"
	"math"
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
	// (true) or waiting plus the high-percentile service time (false). In
	// the latter case the solver uses t = d - 1/μ_p, per §3.1
	// ("t_p99 = d - 1/μ_p99").
	WaitingOnly bool
	// ServiceP is the high-percentile service time (seconds) subtracted
	// from the deadline when WaitingOnly is false. Zero means "use the
	// mean service time" as a fallback.
	ServiceP float64
}

// WaitBudget returns the waiting-time budget t (seconds) implied by the SLO
// given the mean service rate mu.
func (s SLO) WaitBudget(mu float64) (float64, error) {
	d := s.Deadline.Seconds()
	if d <= 0 {
		return 0, fmt.Errorf("queuing: non-positive SLO deadline %v", s.Deadline)
	}
	if s.Percentile <= 0 || s.Percentile >= 1 {
		return 0, fmt.Errorf("queuing: SLO percentile %v out of (0,1)", s.Percentile)
	}
	if s.WaitingOnly {
		return d, nil
	}
	sp := s.ServiceP
	if sp == 0 {
		if mu <= 0 {
			return 0, fmt.Errorf("queuing: non-positive service rate %v", mu)
		}
		sp = 1 / mu
	}
	t := d - sp
	if t <= 0 {
		return 0, fmt.Errorf("queuing: SLO deadline %v leaves no waiting budget after service time %.4fs", s.Deadline, sp)
	}
	return t, nil
}

// MaxSolverContainers bounds the container count the solvers will consider
// before giving up; it is a safety valve against pathological inputs (e.g.
// deadlines shorter than any achievable wait), not a cluster capacity limit.
const MaxSolverContainers = 1 << 20

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
	if lambda < 0 || mu <= 0 {
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

// MinimalContainersFrom returns exactly MinimalContainers' answer, seeding
// the c-scan at hint — a previous epoch's result for the same function.
// P(Q ≤ t) is nondecreasing in c for fixed λ, μ, t (more containers both
// drain the queue faster and raise the Eq 3 state bound L), so the set of
// SLO-satisfying counts is upward-closed and the minimal element found by
// scanning down from a satisfying hint — or up from an unsatisfying one —
// is the same count the cold scan from the stability floor finds. Each
// candidate's ProbWaitLE evaluation is independent of the scan path, so
// the result is bit-identical by construction; the warm-sizer tests assert
// the equivalence under adversarial demand swings. When successive epochs'
// rates drift slowly the scan touches O(1) candidates instead of the cold
// scan's O(c), which is what makes metro-scale control epochs cheap.
//
// A hint ≤ 0 (or below the stability floor) degenerates to the cold scan.
func MinimalContainersFrom(lambda, mu float64, slo SLO, hint int) (int, error) {
	if lambda < 0 || mu <= 0 {
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
	floor := int(math.Floor(lambda/mu)) + 1
	meets := func(c int) (bool, error) {
		m := MMC{Lambda: lambda, Mu: mu, C: c}
		if !m.Stable() {
			return false, nil
		}
		p, err := m.ProbWaitLE(t)
		if err != nil {
			return false, err
		}
		return p >= slo.Percentile, nil
	}
	c := floor
	if hint > c {
		c = hint
	}
	if c > MaxSolverContainers {
		c = MaxSolverContainers
	}
	ok, err := meets(c)
	if err != nil {
		return 0, err
	}
	if ok {
		// Seeded at (or above) a satisfying count: walk down to the
		// minimal one.
		for c > floor {
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
	for c++; c <= MaxSolverContainers; c++ {
		ok, err := meets(c)
		if err != nil {
			return 0, err
		}
		if ok {
			return c, nil
		}
	}
	return 0, fmt.Errorf("queuing: no container count up to %d meets SLO (lambda=%v mu=%v t=%vs p=%v)",
		MaxSolverContainers, lambda, mu, t, slo.Percentile)
}

// RequiredContainersNaive runs the same Algorithm 1 scan on the naive
// float64 implementation, returning an error when the arithmetic breaks
// down. It exists for the Figure 5 scalability/robustness comparison.
func RequiredContainersNaive(lambda, mu float64, slo SLO, startC int) (int, error) {
	if lambda <= 0 || mu <= 0 {
		return 0, fmt.Errorf("queuing: invalid rates lambda=%v mu=%v", lambda, mu)
	}
	t, err := slo.WaitBudget(mu)
	if err != nil {
		return 0, err
	}
	c := int(math.Floor(lambda/mu)) + 1
	if startC > c {
		c = startC
	}
	for ; c <= MaxSolverContainers; c++ {
		m := NaiveMMC{Lambda: lambda, Mu: mu, C: c}
		if lambda/(float64(c)*mu) >= 1 {
			continue
		}
		p := m.ProbWaitLE(t)
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1.0000001 {
			return 0, fmt.Errorf("queuing: naive evaluation lost precision at c=%d (p=%v)", c, p)
		}
		if p >= slo.Percentile {
			return c, nil
		}
	}
	return 0, fmt.Errorf("queuing: naive scan exhausted")
}

// AdditionalHetContainers sizes a heterogeneous pool (paper §3.2): given the
// service rates of the containers already running (possibly deflated) and
// the service rate a newly created standard container would have, it returns
// how many standard containers must be added so that the Alves worst-case
// bound on P(Q ≤ t) reaches the SLO percentile. existing may be empty.
func AdditionalHetContainers(lambda float64, existing []float64, newRate float64, slo SLO) (int, error) {
	return AdditionalHetContainersFrom(lambda, existing, newRate, slo, 0)
}

// AdditionalHetContainersFrom returns exactly AdditionalHetContainers'
// answer, seeding the additional-container scan at hint (a previous
// epoch's result). Adding a standard container only ever raises the Alves
// bound on P(Q ≤ t) — the pool's aggregate rate grows and the worst-case
// scheduler's options improve — so the satisfying additions are
// upward-closed and the warm scan (down from a satisfying hint, up from an
// unsatisfying one) lands on the same minimal count the cold scan from
// zero finds. Each candidate pool's evaluation is independent of the scan
// path, so the result is bit-identical by construction (asserted by the
// warm-sizer swing tests). A hint ≤ 0 degenerates to the cold scan.
func AdditionalHetContainersFrom(lambda float64, existing []float64, newRate float64, slo SLO, hint int) (int, error) {
	if lambda < 0 || newRate <= 0 {
		return 0, fmt.Errorf("queuing: invalid rates lambda=%v newRate=%v", lambda, newRate)
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
	if hint < 0 {
		hint = 0
	}
	if max := MaxSolverContainers - len(existing); hint > max {
		hint = max
		if hint < 0 {
			hint = 0
		}
	}
	rates := make([]float64, 0, len(existing)+hint+1)
	rates = append(rates, existing...)
	for i := 0; i < hint; i++ {
		rates = append(rates, newRate)
	}
	// meets evaluates the pool of existing plus add standard containers,
	// exactly as one cold-scan iteration would.
	meets := func(add int) (bool, error) {
		if len(existing)+add == 0 {
			return false, nil
		}
		h, err := NewHetMMC(lambda, rates[:len(existing)+add])
		if err != nil {
			return false, err
		}
		if !h.Stable() {
			return false, nil
		}
		p, err := h.ProbWaitLE(t)
		if err != nil {
			return false, err
		}
		return p >= slo.Percentile, nil
	}
	add := hint
	ok, err := meets(add)
	if err != nil {
		return 0, err
	}
	if ok {
		for add > 0 {
			ok, err := meets(add - 1)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			add--
		}
		return add, nil
	}
	for {
		if len(existing)+add >= MaxSolverContainers {
			return 0, fmt.Errorf("queuing: heterogeneous scan exhausted (lambda=%v)", lambda)
		}
		add++
		rates = append(rates, newRate)
		ok, err := meets(add)
		if err != nil {
			return 0, err
		}
		if ok {
			return add, nil
		}
	}
}
