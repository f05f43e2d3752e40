package queuing

import (
	"math"
	"sync"
	"testing"
	"time"
)

// refLogFactorial is the pre-cache form: one math.Lgamma call per use.
// The cache must serve bit-identical values.
func refLogFactorial(n int) float64 {
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

func TestLogFactorialCacheMatchesLgamma(t *testing.T) {
	for n := 0; n <= 5000; n++ {
		if got, want := logFactorial(n), refLogFactorial(n); got != want {
			t.Fatalf("logFactorial(%d) = %v, want %v", n, got, want)
		}
	}
	// Spot-check far beyond the pre-grown range to force another growth.
	for _, n := range []int{8192, 100_000} {
		if got, want := logFactorial(n), refLogFactorial(n); got != want {
			t.Fatalf("logFactorial(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestLogFactorialCacheConcurrent(t *testing.T) {
	// Concurrent readers while the table grows: run under -race in CI.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; n < 4000; n += 3 {
				if got, want := logFactorial(n), refLogFactorial(n); got != want {
					t.Errorf("logFactorial(%d) = %v, want %v", n, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// refProbWaitLE is the unhoisted pre-optimization ProbWaitLE, kept frozen:
// every probe re-derives log(r), log(c), and log(c!) through the logPn
// method. The production form hoists those per call and must stay
// bit-identical to this.
func refProbWaitLE(m MMC, t float64) (float64, error) {
	lp0, err := m.logP0()
	if err != nil {
		return 0, err
	}
	L := m.waitBoundStates(t)
	if L < 0 {
		return 0, nil
	}
	logPn := func(n int) float64 {
		r := m.Lambda / m.Mu
		if r == 0 {
			if n == 0 {
				return 0
			}
			return math.Inf(-1)
		}
		logr := math.Log(r)
		if n <= m.C {
			return float64(n)*logr - refLogFactorial(n) + lp0
		}
		return float64(n)*logr - float64(n-m.C)*math.Log(float64(m.C)) - refLogFactorial(m.C) + lp0
	}
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
		p = 1
	}
	return p, nil
}

func TestProbWaitLEMatchesUnhoistedForm(t *testing.T) {
	for _, lambda := range []float64{0, 0.5, 9, 45, 120, 900, 4000} {
		for _, mu := range []float64{1, 10, 33.3} {
			for c := 1; c <= 256; c = c*2 + 1 {
				m := MMC{Lambda: lambda, Mu: mu, C: c}
				for _, tt := range []float64{0, 0.01, 0.1, 1.5} {
					want, wantErr := refProbWaitLE(m, tt)
					got, gotErr := m.ProbWaitLE(tt)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("MMC%+v ProbWaitLE(%v): err %v vs reference %v", m, tt, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					if got != want {
						t.Fatalf("MMC%+v ProbWaitLE(%v) = %v, reference (unhoisted) = %v: not bit-identical",
							m, tt, got, want)
					}
				}
			}
		}
	}
}

// swingLambdas is the adversarial demand trajectory the warm-sizer tests
// replay: slow drift, a 10x burst, collapse to zero, recovery, a spike
// that makes the previous epoch's count wildly unstable (rho >= 1 at the
// hint), and jitter around the stability boundary.
var swingLambdas = []float64{
	45, 46.3, 47.1, 44.9, 45.5, // slow drift: warm scan should touch O(1) candidates
	455, 470, 430, // 10x burst
	0, 0, // demand collapse: idle epochs
	45, 45.2, // recovery from zero (hint is stale high-water or zero)
	4500,           // 100x spike: hint is far below the new stability floor
	9.7, 10.3, 9.9, // near-idle jitter
	0.001, 1200, 0.5, 890, // whiplash between extremes
}

func TestWarmSizerMatchesColdUnderSwings(t *testing.T) {
	slo := SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	for _, mu := range []float64{1, 10, 31.7} {
		hint := 0
		for i, lambda := range swingLambdas {
			cold, coldErr := RequiredContainers(lambda, mu, slo, 0)
			warm, warmErr := MinimalContainersFrom(lambda, mu, slo, hint)
			if (coldErr == nil) != (warmErr == nil) {
				t.Fatalf("step %d (lambda=%v mu=%v hint=%d): warm err %v vs cold err %v",
					i, lambda, mu, hint, warmErr, coldErr)
			}
			if coldErr == nil && warm != cold {
				t.Fatalf("step %d (lambda=%v mu=%v hint=%d): warm sizer found %d, cold scan %d",
					i, lambda, mu, hint, warm, cold)
			}
			hint = warm
		}
	}
}

func TestWarmSizerMatchesColdExhaustive(t *testing.T) {
	// Every (lambda, hint) pair in a dense grid, including hints far above
	// and below the answer: the warm result must always equal Algorithm 1's
	// upward scan, which shares neither the search nor the memo. The memo
	// is emptied before each call so that every hint is searched from.
	defer resetSizingMemo()
	slo := SLO{Deadline: 50 * time.Millisecond, Percentile: 0.99, WaitingOnly: true}
	const mu = 10
	for lambda := 0.0; lambda <= 300; lambda += 7.3 {
		cold, coldErr := RequiredContainers(lambda, mu, slo, 0)
		if coldErr != nil {
			t.Fatalf("cold sizing failed at lambda=%v: %v", lambda, coldErr)
		}
		for _, hint := range []int{0, 1, cold - 3, cold - 1, cold, cold + 1, cold + 17, 4 * cold, 1000} {
			resetSizingMemo()
			warm, err := MinimalContainersFrom(lambda, mu, slo, hint)
			if err != nil {
				t.Fatalf("warm sizing failed at lambda=%v hint=%d: %v", lambda, hint, err)
			}
			if warm != cold {
				t.Fatalf("lambda=%v hint=%d: warm %d != cold %d", lambda, hint, warm, cold)
			}
		}
	}
}

func TestWarmHetSizerMatchesCold(t *testing.T) {
	slo := SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	// A deflated pool: 12 containers, a third of them slowed.
	existing := make([]float64, 12)
	for i := range existing {
		existing[i] = 10
		if i%3 == 0 {
			existing[i] = 7.5
		}
	}
	hint := 0
	for i, lambda := range swingLambdas {
		cold, coldErr := additionalFrom(lambda, existing, 10, slo, 0)
		warm, warmErr := additionalFrom(lambda, existing, 10, slo, hint)
		if (coldErr == nil) != (warmErr == nil) {
			t.Fatalf("step %d (lambda=%v hint=%d): warm err %v vs cold err %v", i, lambda, hint, warmErr, coldErr)
		}
		if coldErr == nil && warm != cold {
			t.Fatalf("step %d (lambda=%v hint=%d): warm het sizer found %d, cold scan %d",
				i, lambda, hint, warm, cold)
		}
		hint = warm
	}
	// Empty pool and absurd hints degrade to the cold answer too.
	for _, hint := range []int{0, 1, 5, 500} {
		cold, err1 := additionalFrom(90, nil, 10, slo, 0)
		warm, err2 := additionalFrom(90, nil, 10, slo, hint)
		if err1 != nil || err2 != nil {
			t.Fatalf("empty-pool sizing failed: %v / %v", err1, err2)
		}
		if warm != cold {
			t.Fatalf("empty pool hint=%d: warm %d != cold %d", hint, warm, cold)
		}
	}
}

func TestProbWaitLEAllocationFree(t *testing.T) {
	m := MMC{Lambda: 900, Mu: 10, C: 120}
	if _, err := m.ProbWaitLE(0.1); err != nil { // warm the factorial cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.ProbWaitLE(0.1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ProbWaitLE allocated %.1f times per call; the sizing hot path must stay allocation-free", allocs)
	}
}

// TestWarmSizerAllocationFree: neither a memo hit nor a search (a memo
// miss that records into an existing table) allocates.
func TestWarmSizerAllocationFree(t *testing.T) {
	resetSizingMemo()
	slo := SLO{Deadline: 100 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	key, lo := memoKey{10, slo.Deadline.Seconds(), slo.Percentile}, stabilityFloor(45.2, 10)
	hint, err := MinimalContainersFrom(45.2, 10, slo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := memoLookup(key, 45.2, lo, 0); !ok || c != hint {
		t.Fatalf("memo after sizing 45.2: (%d, %v), want (%d, true)", c, ok, hint)
	}
	allocs := testing.AllocsPerRun(200, func() {
		c, err := MinimalContainersFrom(45.2, 10, slo, hint)
		if err != nil || c != hint {
			t.Fatalf("memo hit: (%d, %v), want %d", c, err, hint)
		}
	})
	if allocs != 0 {
		t.Fatalf("a memo hit allocated %.1f times per call; want 0", allocs)
	}

	// Each call below is a fresh λ inside the guard band above the
	// recorded edge, so the memo cannot decide it and the search runs.
	lambda := 45.2
	allocs = testing.AllocsPerRun(200, func() {
		lambda = math.Nextafter(lambda, 50)
		if _, ok := memoLookup(key, lambda, lo, hint); ok {
			t.Fatalf("memo decided lambda=%v inside the guard band", lambda)
		}
		c, err := MinimalContainersFrom(lambda, 10, slo, hint)
		if err != nil {
			t.Fatal(err)
		}
		hint = c
	})
	if allocs != 0 {
		t.Fatalf("warm-started sizing allocated %.1f times per call; want 0", allocs)
	}
}
