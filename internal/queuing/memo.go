package queuing

import (
	"math"
	"sync"
)

// sizingMemo lets MinimalContainersFrom answer from facts earlier searches
// proved instead of probing again. For a fixed key (μ, wait budget t,
// percentile p) the answer depends on λ alone, and every search that
// returns c has proved two facts at its λ: c containers meet the SLO, and
// c−1 do not (search probed c−1 and it failed) or c−1 is below the
// stability floor. Per key and count c the memo keeps
//
//	fits[c]:  the largest λ at which c was the answer (0: none yet)
//	short[c]: the smallest λ at which c was verified too few (+Inf: none)
//
// and answers c for a λ with c ≥ ⌊λ/μ⌋+1, λ ≤ fits[c], and either
// c = ⌊λ/μ⌋+1 or λ ≥ short[c−1] — with zero probes.
//
// Exactness. A λ equal to a recorded one replays a probe the search made
// with the same inputs. A λ between recorded values rests on P(Q ≤ t)
// being nonincreasing in λ for fixed c: L = ⌊tcμ + c − 1⌋ does not involve
// λ, and the M/M/c birth–death chain is stochastically monotone in λ, so a
// larger λ puts less mass on states 0..L (and stability, λ/(cμ) < 1, only
// fails as λ rises). So c meets at every λ below fits[c] and c−1 fails at
// every λ above short[c−1]. Floating-point rounding is not monotone, so a
// λ within a relative memoGuard of a recorded edge, other than the edge
// itself, is searched. That the computed predicate's reversals stay inside
// memoGuard is checked, not proved: TestMeetsNonincreasingInLambda probes
// every count up to 64 and a sparse sample up to memoCounts−1, for the
// catalog's service rates and for random keys from the fuzzer's ranges.
//
// Most answers come from between recorded rates. A simulated site's
// estimated λ rarely repeats: in one metro_day run about 93% of the sizing
// calls bring a rate never seen before, and the memo still answers all but
// a handful of them. A cache keyed on the exact rate would miss those.
//
// Memory. At most memoKeys keys, each with at most memoCounts counts of
// two float64s: 16 B × memoCounts × memoKeys = 4 MiB. Answers of
// memoCounts containers or more are not recorded, and a new key arriving
// when memoKeys are held clears the memo first, so a stream of distinct
// keys (a fuzzer's random SLOs) costs a bounded table, not a growing one.
//
// The memo depends only on model inputs, so like the log-factorial cache
// it is shared by the whole process: parallel sweep cells and a coordinator
// restarted in the same process reuse what any earlier search proved. A
// coordinator that takes over in a new process starts empty. A lookup
// holds the mutex for a map read and a scan of at most memoCounts floats,
// and allocates nothing.
var sizingMemo struct {
	mu   sync.Mutex
	tabs map[memoKey]*memoTable
}

const (
	memoKeys   = 256
	memoCounts = 1024
	// memoGuard is the relative distance from a recorded λ inside which
	// the memo defers to the search.
	memoGuard = 1e-9
)

// memoKey identifies one λ → c step function: the M/M/c predicate's inputs
// other than λ and c.
type memoKey struct{ mu, t, p float64 }

// memoTable is one key's verified facts, indexed by container count.
type memoTable struct {
	fits  []float64
	short []float64
}

// memoLookup returns the container count the recorded facts prove for
// lambda, whose stability floor is lo, or ok = false when they do not
// decide it.
func memoLookup(k memoKey, lambda float64, lo int) (c int, ok bool) {
	sizingMemo.mu.Lock()
	defer sizingMemo.mu.Unlock()
	tab := sizingMemo.tabs[k]
	if tab == nil {
		return 0, false
	}
	// The first count proven to meet the SLO is the answer if the count
	// below it is proven to fail; nothing below it is proven to meet.
	for c := lo; c < len(tab.fits); c++ {
		if !atOrBelow(lambda, tab.fits[c]) {
			continue
		}
		if c == lo || atOrAbove(lambda, tab.short[c-1]) {
			return c, true
		}
		return 0, false
	}
	return 0, false
}

// atOrBelow reports whether lambda is the recorded edge or below it by
// more than memoGuard.
func atOrBelow(lambda, edge float64) bool { return lambda == edge || lambda < edge*(1-memoGuard) }

// atOrAbove reports whether lambda is the recorded edge or above it by
// more than memoGuard.
func atOrAbove(lambda, edge float64) bool { return lambda == edge || lambda > edge*(1+memoGuard) }

// memoRecord stores the facts a search proved when it answered c for
// lambda from the stability floor lo.
func memoRecord(k memoKey, lambda float64, lo, c int) {
	if c >= memoCounts {
		return
	}
	sizingMemo.mu.Lock()
	defer sizingMemo.mu.Unlock()
	tab := sizingMemo.tabs[k]
	if tab == nil {
		if sizingMemo.tabs == nil || len(sizingMemo.tabs) >= memoKeys {
			sizingMemo.tabs = make(map[memoKey]*memoTable)
		}
		tab = &memoTable{}
		sizingMemo.tabs[k] = tab
	}
	for len(tab.fits) <= c {
		tab.fits = append(tab.fits, 0)
		tab.short = append(tab.short, math.Inf(1))
	}
	tab.fits[c] = max(tab.fits[c], lambda)
	if c > lo {
		tab.short[c-1] = min(tab.short[c-1], lambda)
	}
}
