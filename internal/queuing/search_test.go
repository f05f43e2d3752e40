package queuing

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// linearWalk is the probe sequence of the hand-written scans search
// replaced: from the clamped hint, down to one count below the answer (or
// to lo), or up to the answer (or to hi when nothing meets).
func linearWalk(lo, hi, hint, threshold int) []int {
	if lo > hi {
		return nil
	}
	start, ans := min(max(hint, lo), hi), max(threshold, lo)
	var walk []int
	switch {
	case ans > hi:
		for c := start; c <= hi; c++ {
			walk = append(walk, c)
		}
	case start >= ans:
		for c := start; c >= max(ans-1, lo); c-- {
			walk = append(walk, c)
		}
	default:
		for c := start; c <= ans; c++ {
			walk = append(walk, c)
		}
	}
	return walk
}

// TestSearchProbesLinearWalk runs search over every small (lo, hi, hint,
// threshold), meets(c) being c ≥ threshold, and checks the answer, the
// exhaustion result and that it probes exactly the linear walk's counts in
// the same order.
func TestSearchProbesLinearWalk(t *testing.T) {
	for lo := 0; lo <= 4; lo++ {
		for hi := lo - 1; hi <= lo+6; hi++ {
			for hint := -1; hint <= hi+2; hint++ {
				for threshold := lo - 1; threshold <= hi+1; threshold++ {
					var probes []int
					got, err := search(lo, hi, hint, func(c int) (bool, error) {
						probes = append(probes, c)
						return c >= threshold, nil
					})
					want, wantErr := max(threshold, lo), error(nil)
					if want > hi {
						want, wantErr = 0, errExhausted
					}
					if got != want || err != wantErr {
						t.Fatalf("search(%d, %d, hint %d) with threshold %d = (%d, %v)", lo, hi, hint, threshold, got, err)
					}
					if walk := linearWalk(lo, hi, hint, threshold); !slices.Equal(probes, walk) {
						t.Fatalf("search(%d, %d, hint %d) with threshold %d probed %v, the linear walk %v",
							lo, hi, hint, threshold, probes, walk)
					}
				}
			}
		}
	}
}

// TestSolversRejectNonFiniteRates: a NaN or infinite rate, or a NaN,
// infinite or negative SCV, is an invalid input, reported before any count
// is probed, not an SLO no count meets. The wall clock times each
// rejection: probing every count up to MaxSolverContainers takes seconds
// to minutes.
//
//lass:wallclock
func TestSolversRejectNonFiniteRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		run  func() (int, error)
		want string
	}{
		{"Minimal NaN lambda", func() (int, error) { return MinimalContainers(nan, 10, slo95x100ms) }, "invalid rates"},
		{"Minimal +Inf mu", func() (int, error) { return MinimalContainers(30, inf, slo95x100ms) }, "invalid rates"},
		{"Minimal -Inf lambda", func() (int, error) { return MinimalContainers(-inf, 10, slo95x100ms) }, "invalid rates"},
		{"Required NaN mu", func() (int, error) { return RequiredContainers(30, nan, slo95x100ms, 0) }, "invalid rates"},
		{"Required +Inf lambda", func() (int, error) { return RequiredContainers(inf, 10, slo95x100ms, 0) }, "invalid rates"},
		{"Naive NaN lambda", func() (int, error) { return RequiredContainersNaive(nan, 10, slo95x100ms, 0) }, "invalid rates"},
		{"GGC +Inf mu", func() (int, error) { return RequiredContainersGGC(30, inf, 1, 1, slo95x100ms) }, "invalid rates"},
		{"GGC NaN ca2", func() (int, error) { return RequiredContainersGGC(30, 10, nan, 1, slo95x100ms) }, "invalid SCV ca2"},
		{"GGC +Inf cs2", func() (int, error) { return RequiredContainersGGC(30, 10, 1, inf, slo95x100ms) }, "invalid SCV cs2"},
		{"GGC -Inf ca2", func() (int, error) { return RequiredContainersGGC(30, 10, -inf, 1, slo95x100ms) }, "invalid SCV ca2"},
		{"GGC negative cs2", func() (int, error) { return RequiredContainersGGC(30, 10, 1, -0.5, slo95x100ms) }, "invalid SCV cs2"},
		{"Het NaN lambda", func() (int, error) { return AdditionalHetContainers(nan, []float64{5}, 10, slo95x100ms) }, "invalid rates"},
		{"Het +Inf newRate", func() (int, error) { return AdditionalHetContainers(30, []float64{5}, inf, slo95x100ms) }, "invalid rates"},
		{"Het NaN existing", func() (int, error) { return AdditionalHetContainers(30, []float64{5, nan}, 10, slo95x100ms) }, "invalid rates"},
		{"Het -Inf existing", func() (int, error) { return AdditionalHetContainers(30, []float64{-inf}, 10, slo95x100ms) }, "invalid rates"},
	} {
		start := time.Now()
		_, err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want an error containing %q", tc.name, err, tc.want)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s: took %v to reject", tc.name, d)
		}
	}
}

// FuzzSizingSearch checks the warm-started searches against references
// that share none of their code: MinimalContainersFrom against Algorithm
// 1's upward scan, and AdditionalHetContainersFrom against a literal
// upward loop over one deflated container plus standard ones. A priming
// rate λ₀ is sized first under the same key, so the fuzzer also varies
// what the sizing memo holds when λ is asked. λ, λ₀ ≤ 200 and μ ≥ 0.5
// keep every execution to a few hundred counts.
func FuzzSizingSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, lambda, mu float64, deadlineMs uint16, pct float64, hint int, deflated, prime float64) {
		if !finite(lambda, mu, pct, deflated, prime) {
			t.Skip()
		}
		lambda = math.Mod(math.Abs(lambda), 200)
		prime = math.Mod(math.Abs(prime), 200)
		mu = 0.5 + math.Mod(math.Abs(mu), 50)
		deflated = mu * (0.1 + math.Mod(math.Abs(deflated), 0.9))
		slo := SLO{
			Deadline:    time.Duration(1+deadlineMs%1000) * time.Millisecond,
			Percentile:  0.5 + math.Mod(math.Abs(pct), 0.49),
			WaitingOnly: true,
		}
		hint %= 512

		for _, l := range []float64{prime, lambda} {
			cold, coldErr := RequiredContainers(l, mu, slo, 0)
			warm, warmErr := MinimalContainersFrom(l, mu, slo, hint)
			if (coldErr == nil) != (warmErr == nil) || warm != cold {
				t.Fatalf("lambda=%v (primed at %v) mu=%v %+v hint=%d: MinimalContainersFrom (%d, %v), Algorithm 1 (%d, %v)",
					l, prime, mu, slo, hint, warm, warmErr, cold, coldErr)
			}
		}

		want, wantErr := 0, error(nil)
		if lambda > 0 {
			want, wantErr = -1, errExhausted
			pool := []float64{deflated}
			for add := 0; len(pool) <= MaxSolverContainers; add++ {
				h, err := NewHetMMC(lambda, pool)
				if err != nil {
					t.Fatal(err)
				}
				if h.Stable() {
					p, err := h.ProbWaitLE(slo.Deadline.Seconds())
					if err != nil {
						t.Fatal(err)
					}
					if p >= slo.Percentile {
						want, wantErr = add, nil
						break
					}
				}
				pool = append(pool, mu)
			}
		}
		got, err := AdditionalHetContainersFrom(lambda, []float64{deflated}, mu, slo, hint)
		if (err == nil) != (wantErr == nil) || (err == nil && got != want) {
			t.Fatalf("lambda=%v deflated=%v mu=%v %+v hint=%d: AdditionalHetContainersFrom (%d, %v), upward loop (%d, %v)",
				lambda, deflated, mu, slo, hint, got, err, want, wantErr)
		}
	})
}
