package queuing

import (
	"math"
	"slices"
	"testing"
	"time"

	"lass/internal/xrand"
)

// additionalFrom is AdditionalHetContainers searched from hint: a fresh
// Sizer whose previous heterogeneous answer was hint.
func additionalFrom(lambda float64, existing []float64, newRate float64, slo SLO, hint int) (int, error) {
	s := Sizer{add: hint}
	return s.Additional(lambda, len(existing), func(i int) float64 { return existing[i] }, newRate, slo)
}

// checkSizer sizes every rate in order on s and fails on any answer, or
// any error, that differs from Algorithm 1's upward scan. It returns how
// many positive rates the bracket answered without a probe.
func checkSizer(t *testing.T, name string, s *Sizer, mu float64, slo SLO, lambdas []float64) (hits int) {
	t.Helper()
	for i, l := range lambdas {
		before := s.probes
		got, err := s.Size(l, mu, slo)
		want, wantErr := RequiredContainers(l, mu, slo, 0)
		if (err == nil) != (wantErr == nil) || got != want {
			t.Fatalf("%s step %d (lambda=%v mu=%v %+v): Sizer (%d, %v), Algorithm 1 (%d, %v)",
				name, i, l, mu, slo, got, err, want, wantErr)
		}
		if l > 0 && s.probes == before {
			hits++
		}
	}
	return hits
}

// bracketEdges returns the rates at and around s's bracket edges: each
// edge, half and twice the guard band to either side, and one ulp to
// either side.
func bracketEdges(s *Sizer) []float64 {
	var out []float64
	for _, e := range []float64{s.lamLo, s.lamHi} {
		out = append(out, e,
			e*(1-memoGuard/2), e*(1+memoGuard/2), e*(1-2*memoGuard), e*(1+2*memoGuard),
			math.Nextafter(e, 0), math.Nextafter(e, math.Inf(1)))
	}
	return out
}

// TestSizerMatchesAlgorithm1 replays seeded rate sequences — ascending,
// descending, shuffled, repeated, a slow drift and the warm-sizer swings —
// each on a fresh Sizer, and every fourth call also sizes the rates at and
// around the bracket's edges on a copy. Every answer must equal Algorithm 1's cold
// scan. A rate inside the guard band outside the bracket must be searched,
// not answered, and the repeated and drifting sequences must hit the
// bracket. One Sizer that alternates between keys must match too.
func TestSizerMatchesAlgorithm1(t *testing.T) {
	rng := xrand.New(62)
	keys := []struct {
		mu  float64
		slo SLO
	}{{10, memoSLOs[0]}, {4, memoSLOs[2]}, {1 / 0.06, memoSLOs[1]}}
	lambdas := make([]float64, 200)
	for i := range lambdas {
		lambdas[i] = rng.Uniform(0.01, 120)
	}
	asc := slices.Sorted(slices.Values(lambdas))
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	var repeated []float64
	for _, l := range lambdas[:60] {
		repeated = append(repeated, l, l, l)
	}
	drift := []float64{40}
	for range 199 {
		drift = append(drift, drift[len(drift)-1]*rng.Uniform(0.98, 1.02))
	}
	for _, k := range keys {
		for _, seq := range []struct {
			name     string
			ls       []float64
			wantHits bool
		}{{"ascending", asc, false}, {"descending", desc, false}, {"shuffled", lambdas, false}, {"repeated", repeated, true}, {"drift", drift, true}, {"swings", swingLambdas, false}} {
			var s Sizer
			hits := 0
			for i, l := range seq.ls {
				hits += checkSizer(t, seq.name, &s, k.mu, k.slo, []float64{l})
				if l == 0 || i%4 != 0 {
					continue
				}
				probe := s
				checkSizer(t, seq.name+" edges", &probe, k.mu, k.slo, bracketEdges(&s))
				for _, l := range []float64{s.lamHi * (1 + memoGuard/2), s.lamLo * (1 - memoGuard/2)} {
					probe := s
					if checkSizer(t, seq.name+" guard band", &probe, k.mu, k.slo, []float64{l}) != 0 {
						t.Errorf("%s mu=%v: the bracket [%v, %v] answered %v inside its guard band", seq.name, k.mu, s.lamLo, s.lamHi, l)
					}
				}
			}
			if seq.wantHits && hits == 0 {
				t.Errorf("%s mu=%v: the bracket answered none of %d calls", seq.name, k.mu, len(seq.ls))
			}
		}
	}
	var s Sizer
	for i, l := range lambdas {
		k := keys[i%len(keys)]
		checkSizer(t, "interleaved keys", &s, k.mu, k.slo, []float64{l})
	}
}

// roundingReversal returns a real rounding reversal of the M/M/c
// predicate: one container fails the default SLO at μ = 10 at λ₁ = fails
// but meets it at λ₂ = fits, a few ulps above.
func roundingReversal(t *testing.T) (fails, fits float64) {
	t.Helper()
	const mu = 10.0
	meets := func(lambda float64) bool {
		ok, err := meetsMMC(lambda, mu, slo95x100ms.Deadline.Seconds(), slo95x100ms.Percentile, 1)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	yes, no := 0.0, mu
	for mid := yes + (no-yes)/2; mid > yes && mid < no; mid = yes + (no-yes)/2 {
		if meets(mid) {
			yes = mid
		} else {
			no = mid
		}
	}
	lambda := no
	for k := 0; k < 32; k++ {
		lambda = math.Nextafter(lambda, 0)
	}
	for k := 0; k < 64 && fits == 0; k++ {
		if !meets(lambda) {
			fails = lambda
		} else if fails != 0 {
			fits = lambda
		}
		lambda = math.Nextafter(lambda, math.Inf(1))
	}
	if fits == 0 {
		t.Fatalf("no rounding reversal within 32 ulps of the edge %v; pick another case", no)
	}
	return fails, fits
}

// TestSizerGuardsRoundingReversal: once one container's bracket reaches
// from well below λ₁ up to λ₂ (roundingReversal), λ₁ lies inside it, and
// only the guard band makes the Sizer search it and answer Algorithm 1's
// two.
func TestSizerGuardsRoundingReversal(t *testing.T) {
	fails, fits := roundingReversal(t)
	var s Sizer
	checkSizer(t, "reversal", &s, 10, slo95x100ms, []float64{fits / 2, fits})
	if s.c != 1 || s.lamLo != fits/2 || s.lamHi != fits {
		t.Fatalf("bracket %d over [%v, %v], want 1 over [%v, %v]", s.c, s.lamLo, s.lamHi, fits/2, fits)
	}
	checkSizer(t, "reversal", &s, 10, slo95x100ms, []float64{fails})
}

// TestSizerIgnoresProcessMemo: a fresh Sizer probes exactly as many counts
// over a fixed rate sequence after the process-wide memo has been warmed
// through MinimalContainersFrom as before, and MinimalContainers leaves
// the memo empty.
func TestSizerIgnoresProcessMemo(t *testing.T) {
	resetSizingMemo()
	defer resetSizingMemo()
	const mu = 10
	probes := func() int {
		var s Sizer
		checkSizer(t, "swings", &s, mu, slo95x100ms, swingLambdas)
		return s.probes
	}
	cold := probes()
	for _, l := range swingLambdas {
		if _, err := MinimalContainers(l, mu, slo95x100ms); err != nil {
			t.Fatal(err)
		}
	}
	if fits, _ := memoEdges(memoKey{mu, slo95x100ms.Deadline.Seconds(), slo95x100ms.Percentile}); fits != nil {
		t.Fatalf("MinimalContainers recorded into the process memo: %v", fits)
	}
	for _, l := range swingLambdas {
		if _, err := MinimalContainersFrom(l, mu, slo95x100ms, 0); err != nil {
			t.Fatal(err)
		}
	}
	if warm := probes(); cold == 0 || warm != cold {
		t.Fatalf("a fresh Sizer probed %d counts with an empty memo and %d with a warm one", cold, warm)
	}
}

// TestSizerAllocationFree: a bracket hit, a homogeneous search and a warm
// heterogeneous search all allocate nothing once the Sizer's buffers have
// grown.
func TestSizerAllocationFree(t *testing.T) {
	var s Sizer
	slo := SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	lambda := 45.2
	if _, err := s.Size(lambda, 10, slo); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Size(lambda, 10, slo); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a bracket hit allocated %.1f times per call; want 0", allocs)
	}
	// Each rate is a fresh one inside the guard band above the bracket,
	// so every call searches.
	probes := s.probes
	if allocs := testing.AllocsPerRun(200, func() {
		lambda = math.Nextafter(lambda, 50)
		if _, err := s.Size(lambda, 10, slo); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm-started search allocated %.1f times per call; want 0", allocs)
	}
	if s.probes == probes {
		t.Fatal("no call inside the guard band searched")
	}
	existing := []float64{4, 10, 10, 10}
	rate := func(i int) float64 { return existing[i] }
	if _, err := s.Additional(120, len(existing), rate, 10, slo); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Additional(120, len(existing), rate, 10, slo); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm heterogeneous sizing allocated %.1f times per call; want 0", allocs)
	}
}
