package queuing

import (
	"errors"
	"fmt"
	"math"
)

// GGC approximates a G/G/c queue via the Allen-Cunneen formula. The paper's
// conclusion (§8) names generalizing beyond Poisson/exponential as future
// work; this type implements that extension so LaSS can provision functions
// whose measured service times are far from exponential (e.g. the DNN
// models, whose inference times are nearly deterministic).
//
// Allen-Cunneen approximates the mean queueing delay as
//
//	Wq(G/G/c) ≈ (Ca² + Cs²)/2 · Wq(M/M/c)
//
// where Ca² and Cs² are the squared coefficients of variation of the
// inter-arrival and service time distributions. The waiting-time tail is
// approximated as exponential conditioned on waiting, matching the heavy
// -traffic limit, which yields a percentile bound the solver can use.
type GGC struct {
	Lambda float64 // arrival rate, req/s
	Mu     float64 // service rate per server, req/s
	C      int     // servers
	CA2    float64 // squared coefficient of variation of inter-arrival times (1 = Poisson)
	CS2    float64 // squared coefficient of variation of service times (1 = exponential, 0 = deterministic)
}

// MeanWait returns the Allen-Cunneen approximation of the mean queueing
// delay.
func (g GGC) MeanWait() (float64, error) {
	if g.CA2 < 0 || g.CS2 < 0 {
		return 0, fmt.Errorf("queuing: negative SCV (ca2=%v cs2=%v)", g.CA2, g.CS2)
	}
	m := MMC{Lambda: g.Lambda, Mu: g.Mu, C: g.C}
	wq, err := m.MeanWait()
	if err != nil {
		return 0, err
	}
	return (g.CA2 + g.CS2) / 2 * wq, nil
}

// ProbWaitLE approximates P(W ≤ t) with an exponential conditional wait:
// P(W > t) ≈ Pw·exp(-t·Pw/Wq) where Pw is the Erlang-C probability of
// waiting and Wq the Allen-Cunneen mean wait, so the conditional mean is
// Wq/Pw as in the M/M/c exact distribution.
func (g GGC) ProbWaitLE(t float64) (float64, error) {
	m := MMC{Lambda: g.Lambda, Mu: g.Mu, C: g.C}
	pw, err := m.ErlangC()
	if err != nil {
		return 0, err
	}
	wq, err := g.MeanWait()
	if err != nil {
		return 0, err
	}
	if pw == 0 || wq == 0 {
		return 1, nil
	}
	if t < 0 {
		t = 0
	}
	return 1 - pw*math.Exp(-t*pw/wq), nil
}

// RequiredContainersGGC sizes a pool under the Allen-Cunneen approximation:
// the smallest c such that P(W ≤ t) ≥ slo.Percentile. With CA2 = CS2 = 1 it
// agrees with the exact M/M/c sizing to within the approximation of the
// exponential tail.
func RequiredContainersGGC(lambda, mu, ca2, cs2 float64, slo SLO) (int, error) {
	if lambda < 0 || mu <= 0 || !finite(lambda, mu) {
		return 0, fmt.Errorf("queuing: invalid rates lambda=%v mu=%v", lambda, mu)
	}
	// A NaN or infinite SCV meets no SLO until Erlang-C underflows, so the
	// scan would return a meaningless count instead of failing.
	if !finite(ca2) || ca2 < 0 {
		return 0, fmt.Errorf("queuing: invalid SCV ca2=%v: must be finite and non-negative", ca2)
	}
	if !finite(cs2) || cs2 < 0 {
		return 0, fmt.Errorf("queuing: invalid SCV cs2=%v: must be finite and non-negative", cs2)
	}
	if lambda == 0 {
		return 0, nil
	}
	t, err := slo.WaitBudget(mu)
	if err != nil {
		return 0, err
	}
	c, err := search(stabilityFloor(lambda, mu), MaxSolverContainers, 0, func(c int) (bool, error) {
		if lambda/(float64(c)*mu) >= 1 {
			return false, nil
		}
		p, err := GGC{Lambda: lambda, Mu: mu, C: c, CA2: ca2, CS2: cs2}.ProbWaitLE(t)
		return p >= slo.Percentile, err
	})
	if errors.Is(err, errExhausted) {
		return 0, fmt.Errorf("queuing: G/G/c scan exhausted (lambda=%v mu=%v)", lambda, mu)
	}
	return c, err
}
