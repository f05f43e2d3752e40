package queuing

import (
	"errors"
	"fmt"
)

// Sizer sizes one function's pool epoch after epoch and keeps what one
// sizing can reuse from the last: its answer, the rates that answer is
// proven for, and the heterogeneous search's model and rate list. Nothing
// it keeps changes an answer, only how many counts are probed. The zero
// value is ready to use; a Sizer must not be used concurrently.
type Sizer struct {
	// The M/M/c bracket for the key (mu, t, p): c containers meet the SLO
	// at lamHi and c−1 miss it at lamLo, so c is the answer for every λ
	// between them (P(Q ≤ t) is nonincreasing in λ for fixed c). The edges
	// are guarded like the memo's (atOrBelow, atOrAbove); c = 0 is no
	// bracket.
	mu, t, p     float64
	c            int
	lamLo, lamHi float64

	// add is the last heterogeneous answer, the next search's start.
	add   int
	het   HetMMC
	rates []float64

	probes int // model evaluations made, for tests
}

// Size returns the smallest count that meets slo at arrival rate lambda
// and service rate mu on the M/M/c model, Algorithm 1's answer (0 when
// lambda is 0). A λ inside the bracket is answered with no probe; any
// other is searched from the bracket's count, and the answer widens the
// bracket when it is the same count and replaces it otherwise.
func (s *Sizer) Size(lambda, mu float64, slo SLO) (int, error) {
	t, err := mmcBudget(lambda, mu, slo)
	if err != nil || lambda == 0 {
		return 0, err
	}
	if s.mu != mu || s.t != t || s.p != slo.Percentile {
		s.mu, s.t, s.p, s.c = mu, t, slo.Percentile, 0
	} else if s.c > 0 && atOrAbove(lambda, s.lamLo) && atOrBelow(lambda, s.lamHi) {
		return s.c, nil
	}
	c, err := search(stabilityFloor(lambda, mu), MaxSolverContainers, s.c, func(c int) (bool, error) {
		s.probes++
		return meetsMMC(lambda, mu, t, s.p, c)
	})
	switch {
	case errors.Is(err, errExhausted):
		return 0, fmt.Errorf("queuing: no container count up to %d meets SLO (lambda=%v mu=%v t=%vs p=%v)",
			MaxSolverContainers, lambda, mu, t, s.p)
	case err != nil:
		return 0, err
	case c == s.c:
		s.lamLo, s.lamHi = min(s.lamLo, lambda), max(s.lamHi, lambda)
	default:
		s.c, s.lamLo, s.lamHi = c, lambda, lambda
	}
	return c, nil
}

// Additional returns how many standard containers of service rate newRate
// must join n running ones, whose rates are rate(0) to rate(n−1), for the
// Alves bound to meet slo (AdditionalHetContainers), searching from the
// sizer's previous answer. Adding a standard container only ever raises
// the bound on P(Q ≤ t) — the pool's aggregate rate grows and the
// worst-case scheduler's options improve — so the satisfying additions are
// upward-closed and the search lands on the count the cold scan from zero
// finds.
func (s *Sizer) Additional(lambda float64, n int, rate func(i int) float64, newRate float64, slo SLO) (int, error) {
	rates := s.rates[:0]
	for i := range n {
		rates = append(rates, rate(i))
	}
	defer func() { s.rates = rates }()
	if lambda < 0 || newRate <= 0 || !finite(lambda, newRate) || !finite(rates...) {
		return 0, fmt.Errorf("queuing: invalid rates lambda=%v newRate=%v existing=%v", lambda, newRate, rates)
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
	add, err := search(0, max(0, MaxSolverContainers-n), s.add, func(add int) (bool, error) {
		s.probes++
		if n+add == 0 {
			return false, nil
		}
		for len(rates) < n+add {
			rates = append(rates, newRate)
		}
		if err := s.het.reset(lambda, rates[:n+add]); err != nil || !s.het.Stable() {
			return false, err
		}
		p, err := s.het.ProbWaitLE(t)
		return p >= slo.Percentile, err
	})
	if errors.Is(err, errExhausted) {
		return 0, fmt.Errorf("queuing: heterogeneous scan exhausted (lambda=%v)", lambda)
	}
	if err == nil {
		s.add = add
	}
	return add, err
}
