package queuing

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lass/internal/functions"
	"lass/internal/xrand"
)

// resetSizingMemo empties the process-wide sizing memo.
func resetSizingMemo() {
	sizingMemo.mu.Lock()
	sizingMemo.index.Store(nil)
	sizingMemo.mu.Unlock()
}

// memoEdges returns copies of key's recorded facts.
func memoEdges(k memoKey) (fits, short []float64) {
	p := sizingMemo.index.Load().find(k)
	if p == nil {
		return nil, nil
	}
	tab := p.Load()
	for i := range tab.fits {
		fits = append(fits, fact(&tab.fits[i]))
		short = append(short, fact(&tab.short[i]))
	}
	return fits, short
}

// memoSLOs are the SLOs the repo sizes against: slo95x100ms is
// controller.DefaultSLO(), the same target end to end, and the tight
// 50 ms/p99 one of the exhaustive warm-sizer test.
var memoSLOs = []SLO{
	slo95x100ms,
	{Deadline: 100 * time.Millisecond, Percentile: 0.95},
	{Deadline: 50 * time.Millisecond, Percentile: 0.99, WaitingOnly: true},
}

// catalogMus returns the distinct service rates of the function catalog.
func catalogMus() []float64 {
	var mus []float64
	for _, s := range functions.Catalog() {
		if mu := s.ServiceRate(); !slices.Contains(mus, mu) {
			mus = append(mus, mu)
		}
	}
	return mus
}

// TestMeetsNonincreasingInLambda checks the property the memo's answers
// between recorded rates rest on: for fixed c, μ and SLO, once c
// containers miss the SLO at some λ they miss it at every λ more than a
// relative memoGuard larger. It covers every count 1..64 and a sparse
// sample up to memoCounts−1 (the largest answer the memo records), for
// the catalog's service rates under the repo's SLOs and for keys drawn
// from FuzzSizingSearch's ranges. A coarse grid over [0, cμ] locates the
// edge, bisection pins it, and rates at multiples of memoGuard/4 and
// single ulps around it are probed too. Rounding does reverse the
// predicate within a few ulps of some edges (c = 1 at μ = 10 and the
// default SLO is one), which is why the memo defers to the search inside
// the guard band.
func TestMeetsNonincreasingInLambda(t *testing.T) {
	counts := []int{96, 128, 192, 256, 384, 512, 768, memoCounts - 1}
	for c := 64; c >= 1; c-- {
		counts = append([]int{c}, counts...)
	}
	for _, mu := range catalogMus() {
		for _, slo := range memoSLOs {
			for _, c := range counts {
				checkMeetsMonotone(t, mu, slo, c)
			}
		}
	}
	rng := xrand.New(1023)
	sparse := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, memoCounts - 1}
	for range 6 {
		mu := rng.Uniform(0.5, 50.5)
		slo := SLO{
			Deadline:    time.Duration(rng.Uniform(1, 1000) * float64(time.Millisecond)),
			Percentile:  rng.Uniform(0.5, 0.99),
			WaitingOnly: rng.Uniform(0, 1) < 0.5,
		}
		for _, c := range sparse {
			checkMeetsMonotone(t, mu, slo, c)
		}
	}
}

// checkMeetsMonotone probes c containers' M/M/c predicate over rates in
// [0, cμ] and fails if it meets the SLO at a rate more than a relative
// memoGuard above one where it fails.
func checkMeetsMonotone(t *testing.T, mu float64, slo SLO, c int) {
	t.Helper()
	const grid, ulps = 128, 16
	wait, err := slo.WaitBudget(mu)
	if err != nil {
		return // the deadline is shorter than the service time
	}
	// firstFalse is the smallest rate seen to fail, lastTrue the largest
	// seen to meet; they may overlap only inside the guard band.
	firstFalse, lastTrue := math.Inf(1), 0.0
	meets := func(lambda float64) bool {
		ok, err := meetsMMC(lambda, mu, wait, slo.Percentile, c)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			lastTrue = max(lastTrue, lambda)
		} else {
			firstFalse = min(firstFalse, lambda)
		}
		if lastTrue > firstFalse*(1+memoGuard) || firstFalse < lastTrue*(1-memoGuard) {
			t.Fatalf("mu=%v %+v c=%d: fails at lambda=%v but meets at %v", mu, slo, c, firstFalse, lastTrue)
		}
		return ok
	}
	top := float64(c) * mu
	for i := 1; i <= grid; i++ {
		meets(top * float64(i) / grid)
	}
	yes, no := firstFalse-top/grid, firstFalse
	for mid := yes + (no-yes)/2; mid > yes && mid < no; mid = yes + (no-yes)/2 {
		if meets(mid) {
			yes = mid
		} else {
			no = mid
		}
	}
	for k := -16; k <= 16; k++ {
		meets(no * (1 + float64(k)*memoGuard/4))
	}
	lambda := no
	for k := 0; k < ulps; k++ {
		lambda = math.Nextafter(lambda, 0)
	}
	for k := 0; k < 2*ulps; k++ {
		meets(lambda)
		lambda = math.Nextafter(lambda, math.Inf(1))
	}
}

// memoCase is one sizing call of a differential sequence.
type memoCase struct {
	mu     float64
	slo    SLO
	lambda float64
}

// checkAgainstAlgorithm1 sizes every case in order, warm-started from the
// previous answer for its key, and fails on any answer that differs from
// Algorithm 1's upward scan. It returns how many calls the memo answered.
func checkAgainstAlgorithm1(t *testing.T, name string, cases []memoCase) (hits int) {
	t.Helper()
	hints := map[memoCase]int{}
	for i, cs := range cases {
		wait, err := cs.slo.WaitBudget(cs.mu)
		if err != nil {
			t.Fatal(err)
		}
		key := memoCase{mu: cs.mu, slo: cs.slo}
		if _, ok := memoLookup(memoKey{cs.mu, wait, cs.slo.Percentile}, cs.lambda, stabilityFloor(cs.lambda, cs.mu), hints[key]); ok {
			hits++
		}
		got, err := MinimalContainersFrom(cs.lambda, cs.mu, cs.slo, hints[key])
		if err != nil {
			t.Fatalf("%s step %d: %v", name, i, err)
		}
		want, err := RequiredContainers(cs.lambda, cs.mu, cs.slo, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s step %d (lambda=%v mu=%v %+v): memoized sizing %d, Algorithm 1 %d",
				name, i, cs.lambda, cs.mu, cs.slo, got, want)
		}
		hints[key] = got
	}
	return hits
}

// TestSizingMemoMatchesAlgorithm1 starts each seeded call sequence from an
// empty memo — ascending, descending, shuffled and repeated rates, rates
// exactly on and just inside recorded edges, and several keys interleaved
// — and requires every answer to equal Algorithm 1's.
func TestSizingMemoMatchesAlgorithm1(t *testing.T) {
	defer resetSizingMemo()
	rng := xrand.New(30)
	keys := []memoCase{
		{mu: 10, slo: memoSLOs[0]},
		{mu: 4, slo: memoSLOs[2]},
		{mu: 1 / 0.06, slo: memoSLOs[1]},
	}
	lambdas := make([]float64, 300)
	for i := range lambdas {
		lambdas[i] = rng.Uniform(0.01, 200)
	}
	of := func(k memoCase, ls []float64) []memoCase {
		out := make([]memoCase, len(ls))
		for i, l := range ls {
			out[i] = memoCase{k.mu, k.slo, l}
		}
		return out
	}
	asc := slices.Sorted(slices.Values(lambdas))
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	var repeated []float64
	for _, l := range lambdas[:100] {
		repeated = append(repeated, l, l, l)
	}
	repeated = append(repeated, lambdas[:100]...)

	for _, k := range keys {
		// A one-way sweep proves each count's bracket from one side only,
		// so it hits only at the stability floor; the others must hit.
		for _, seq := range []struct {
			name     string
			ls       []float64
			wantHits bool
		}{{"ascending", asc, false}, {"descending", desc, false}, {"shuffled", lambdas, true}, {"repeated", repeated, true}} {
			resetSizingMemo()
			if hits := checkAgainstAlgorithm1(t, seq.name, of(k, seq.ls)); seq.wantHits && hits == 0 {
				t.Errorf("%s mu=%v: the memo answered none of %d calls", seq.name, k.mu, len(seq.ls))
			}
		}

		// Every recorded edge exactly, inside the guard band (deferred to
		// the search), and just outside it. A rate inside a band is asked
		// both from the floor and with the edge's count as the hint, so
		// neither the scan nor the hint-first check may decide it.
		wait, _ := k.slo.WaitBudget(k.mu)
		mk := memoKey{k.mu, wait, k.slo.Percentile}
		decided := func(l float64, hint int) bool {
			_, scanned := memoLookup(mk, l, stabilityFloor(l, k.mu), 0)
			_, hinted := memoLookup(mk, l, stabilityFloor(l, k.mu), hint)
			return scanned || hinted
		}
		fits, short := memoEdges(mk)
		var edges []float64
		for c := range fits {
			if f := fits[c]; f > 0 {
				edges = append(edges, f, f*(1+memoGuard/2), f*(1-2*memoGuard))
				if decided(f*(1+memoGuard/2), c) {
					t.Errorf("mu=%v: the memo decided a rate inside the guard band above fits[%d]=%v", k.mu, c, f)
				}
			}
			if s := short[c]; !math.IsInf(s, 1) {
				edges = append(edges, s, s*(1-memoGuard/2), s*(1+2*memoGuard))
				if decided(s*(1-memoGuard/2), c+1) {
					t.Errorf("mu=%v: the memo decided a rate inside the guard band below short[%d]=%v", k.mu, c, s)
				}
			}
		}
		if len(edges) == 0 {
			t.Fatalf("mu=%v: nothing recorded after the repeated sequence", k.mu)
		}
		checkAgainstAlgorithm1(t, "edges", of(k, edges))
	}

	// All keys interleaved call by call, from an empty memo.
	resetSizingMemo()
	var mixed []memoCase
	for _, l := range lambdas {
		for _, k := range keys {
			mixed = append(mixed, memoCase{k.mu, k.slo, l})
		}
	}
	if hits := checkAgainstAlgorithm1(t, "interleaved", mixed); hits == 0 {
		t.Errorf("interleaved: the memo answered none of %d calls", len(mixed))
	}
}

// TestSizingMemoGuardsRoundingReversal replays a real rounding reversal:
// one container meets the default SLO at μ = 10 for some λ₂ but fails at
// a λ₁ a few ulps below it. After λ₂ is sized (recording that one
// container fits up to λ₂), λ₁ must still get Algorithm 1's answer of
// two: only the guard band keeps the memo from answering one.
func TestSizingMemoGuardsRoundingReversal(t *testing.T) {
	resetSizingMemo()
	defer resetSizingMemo()
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
	var fails, fits float64 // fails < fits, one container failing at the first, meeting at the second
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
	checkAgainstAlgorithm1(t, "reversal", []memoCase{{mu, slo95x100ms, fits}, {mu, slo95x100ms, fails}})
}

// TestSizingMemoConcurrent: readers race with two kinds of writer (run
// under -race in CI), and every answer is checked against Algorithm 1.
// Readers size rates up to 120 on every catalog service rate. Climbers
// size rates up to 400 on the same keys, so the tables grow, and their
// facts are republished as copies while the readers hit them. Clearers
// bring 2 × memoKeys new keys, pushing the memo through its clear while
// the readers hold tables from the index before it.
func TestSizingMemoConcurrent(t *testing.T) {
	resetSizingMemo()
	defer resetSizingMemo()
	mus := catalogMus()
	const readTop, climbTop = 120.0, 400.0
	want := map[[2]float64]int{}
	for _, mu := range mus {
		for _, step := range []float64{2.3, 3.7} {
			for l := 0.5; l < climbTop; l += step {
				c, err := RequiredContainers(l, mu, slo95x100ms, 0)
				if err != nil {
					t.Fatal(err)
				}
				want[[2]float64{mu, l}] = c
			}
		}
	}
	check := func(who string, g int, l, mu float64, slo SLO, got int, err error, w int) bool {
		if err != nil || got != w {
			t.Errorf("%s %d lambda=%v mu=%v %+v: (%d, %v), Algorithm 1 %d", who, g, l, mu, slo, got, err, w)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	run := func(g int, f func(g int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g)
		}()
	}
	for g := 0; g < 6; g++ {
		run(g, func(g int) {
			for rep := 0; rep < 3; rep++ {
				for i := range mus {
					mu := mus[(i+g)%len(mus)]
					for l := 0.5; l < readTop; l += 2.3 {
						got, err := MinimalContainersFrom(l, mu, slo95x100ms, g)
						if !check("reader", g, l, mu, slo95x100ms, got, err, want[[2]float64{mu, l}]) {
							return
						}
					}
				}
			}
		})
	}
	for g := 0; g < 2; g++ {
		run(g, func(g int) {
			for i := range mus {
				mu, hint := mus[(i+g)%len(mus)], 0
				for l := 0.5; l < climbTop; l += 3.7 {
					got, err := MinimalContainersFrom(l, mu, slo95x100ms, hint)
					if !check("climber", g, l, mu, slo95x100ms, got, err, want[[2]float64{mu, l}]) {
						return
					}
					hint = got
				}
			}
		})
	}
	for g := 0; g < 2; g++ {
		run(g, func(g int) {
			for i := 0; i < memoKeys; i++ {
				slo := SLO{Deadline: time.Duration(1000+g*memoKeys+i) * time.Microsecond, Percentile: 0.9, WaitingOnly: true}
				w, err := RequiredContainers(3.1, 10, slo, 0)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := MinimalContainersFrom(3.1, 10, slo, 0)
				if !check("clearer", g, 3.1, 10, slo, got, err, w) {
					return
				}
			}
		})
	}
	wg.Wait()
}

// TestSizingMemoHitTakesNoLock: a memo hit answers while another
// goroutine holds the writers' mutex. The wall clock bounds the wait for
// an answer that, were a hit to lock, would never come.
//
//lass:wallclock
func TestSizingMemoHitTakesNoLock(t *testing.T) {
	resetSizingMemo()
	defer resetSizingMemo()
	const lambda, mu = 45.2, 10.0
	want, err := RequiredContainers(lambda, mu, slo95x100ms, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MinimalContainers(lambda, mu, slo95x100ms); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		c   int
		err error
	}
	done := make(chan answer, 2)
	sizingMemo.mu.Lock()
	for _, hint := range []int{0, want} {
		go func() {
			c, err := MinimalContainersFrom(lambda, mu, slo95x100ms, hint)
			done <- answer{c, err}
		}()
	}
	timeout := time.After(5 * time.Second)
	for range 2 {
		select {
		case a := <-done:
			if a.err != nil || a.c != want {
				t.Errorf("memo hit under a held lock: (%d, %v), Algorithm 1 %d", a.c, a.err, want)
			}
		case <-timeout:
			sizingMemo.mu.Unlock()
			t.Fatal("a memo hit did not answer within 5 s while the writers' mutex was held")
		}
	}
	sizingMemo.mu.Unlock()
}

// TestMemoIndexSpreadsKeys: the keys the repo sizes against — the
// control_churn service rates 8 to 12 and the catalog's, under the repo's
// SLOs — sit at or next to their home slots. Their float bits differ only
// in high bits, so a hash of the low bits would pile them into one slot.
func TestMemoIndexSpreadsKeys(t *testing.T) {
	resetSizingMemo()
	defer resetSizingMemo()
	mus := catalogMus()
	for mu := 8.0; mu <= 12; mu++ {
		mus = append(mus, mu)
	}
	for _, slo := range memoSLOs {
		for _, mu := range mus {
			if _, err := MinimalContainers(3, mu, slo); err != nil && !strings.Contains(err.Error(), "no waiting budget") {
				t.Fatal(err)
			}
		}
	}
	x := sizingMemo.index.Load()
	probes := 0
	for i, s := range x.slots {
		if s.tab != nil {
			d := (i - int(s.key.hash()>>x.shift)) & (len(x.slots) - 1)
			if d > 2 {
				t.Errorf("key %+v sits %d slots past its home slot", s.key, d)
			}
			probes += d + 1
		}
	}
	if mean := float64(probes) / float64(x.keys); x.keys < 10 || mean > 1.5 {
		t.Fatalf("%d keys take %.2f probes each on average; want at least 10 keys and at most 1.5", x.keys, mean)
	}
}

// TestSizingMemoBounded: a stream of 100k distinct keys, as a fuzzer
// generates, never holds more than memoKeys tables, and no table grows
// past memoCounts counts.
func TestSizingMemoBounded(t *testing.T) {
	resetSizingMemo()
	defer resetSizingMemo()
	size := func() (keys, longest int) {
		x := sizingMemo.index.Load()
		if len(x.slots) > 2*memoKeys {
			t.Fatalf("the memo's key index has %d slots, bound %d", len(x.slots), 2*memoKeys)
		}
		for _, s := range x.slots {
			if s.tab != nil {
				keys++
				tab := s.tab.Load()
				longest = max(longest, len(tab.fits), len(tab.short))
			}
		}
		return keys, longest
	}
	for i := 0; i < 100_000; i++ {
		slo := SLO{Deadline: time.Duration(1+i%997) * time.Millisecond, Percentile: 0.5 + float64(i%49)/100, WaitingOnly: true}
		if _, err := MinimalContainers(0.7, 1+float64(i)/1000, slo); err != nil {
			t.Fatal(err)
		}
		if i%1000 == 0 {
			if keys, _ := size(); keys > memoKeys {
				t.Fatalf("after %d keys the memo holds %d tables, bound %d", i+1, keys, memoKeys)
			}
		}
	}
	k := memoKey{1, 0.1, 0.95}
	memoRecord(k, 5000, 1, memoCounts)
	if fits, _ := memoEdges(k); fits != nil {
		t.Fatalf("an answer of memoCounts containers was recorded")
	}
	memoRecord(k, 5000, 1, memoCounts-1)
	if fits, _ := memoEdges(k); len(fits) != memoCounts {
		t.Fatalf("an answer of memoCounts-1 containers grew its table to %d counts, want %d", len(fits), memoCounts)
	}
	if keys, longest := size(); keys > memoKeys || longest > memoCounts {
		t.Fatalf("memo holds %d tables, the longest %d counts; bound %d × %d", keys, longest, memoKeys, memoCounts)
	}
}
