package queuing

import "math"

// NaiveMMC evaluates the M/M/c steady-state formulas exactly as written in
// a textbook: explicit factorials and powers in float64. It exists to
// reproduce the paper's Figure 5 comparison, where the authors' Scala
// implementation "was not able to compute the results in some cases due to
// its precision limitations" while the Julia implementation scaled to 1000
// containers. float64 factorial overflows at 171!, and r^n overflows for
// moderate r and large n, so this implementation fails (returns NaN/Inf or
// nonsense) well before 1000 containers — exactly the failure mode the
// paper observed.
//
// Do not use NaiveMMC outside benchmarks and tests; MMC is the production
// implementation.
type NaiveMMC struct {
	Lambda float64
	Mu     float64
	C      int
}

func factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// P0 computes Eq 2 directly: P0 = [ r^c/(c!(1-ρ)) + Σ r^n/n! ]^{-1}.
func (m NaiveMMC) P0() float64 {
	r := m.Lambda / m.Mu
	rho := m.Lambda / (float64(m.C) * m.Mu)
	if rho >= 1 {
		return math.NaN()
	}
	sum := 0.0
	for n := 0; n < m.C; n++ {
		sum += math.Pow(r, float64(n)) / factorial(n)
	}
	sum += math.Pow(r, float64(m.C)) / (factorial(m.C) * (1 - rho))
	return 1 / sum
}

// Pn computes Eq 1 directly.
func (m NaiveMMC) Pn(n int, p0 float64) float64 {
	r := m.Lambda / m.Mu
	if n <= m.C {
		return math.Pow(r, float64(n)) / factorial(n) * p0
	}
	return math.Pow(r, float64(n)) / (math.Pow(float64(m.C), float64(n-m.C)) * factorial(m.C)) * p0
}

// ProbWaitLE computes the Eq 4 bound by direct summation.
func (m NaiveMMC) ProbWaitLE(t float64) float64 {
	p0 := m.P0()
	if math.IsNaN(p0) || math.IsInf(p0, 0) {
		return math.NaN()
	}
	L := int(math.Floor(t*float64(m.C)*m.Mu + float64(m.C) - 1))
	if L < 0 {
		return 0
	}
	sum := 0.0
	for n := 0; n <= L; n++ {
		sum += m.Pn(n, p0)
	}
	return sum
}
