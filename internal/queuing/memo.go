package queuing

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
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
// c = ⌊λ/μ⌋+1 or λ ≥ short[c−1] — with zero probes. The caller's hint (the
// previous epoch's answer) is checked first: when fits[hint] and
// short[hint−1] decide λ, the lookup returns the hint without scanning up
// from the stability floor. That answer rests on the same two facts, "hint
// meets at λ" and "hint−1 fails at λ", as the scan's, and the satisfying
// counts are upward-closed, so both name the one smallest count.
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
// Answers between recorded rates are what a cache keyed on the exact rate
// would miss.
//
// Memory. At most memoKeys keys, each with at most memoCounts counts of
// two float64s: 16 B × memoCounts × memoKeys = 4 MiB, plus a key index of
// at most 2 × memoKeys slots. Answers of memoCounts containers or more are
// not recorded, and a new key arriving when memoKeys are held clears the
// memo first, so a stream of distinct keys (a fuzzer's random SLOs) costs
// a bounded table, not a growing one.
//
// The memo depends only on model inputs, so like the log-factorial cache
// it is shared by the whole process. Only MinimalContainersFrom reads and
// writes it, for the benchmark's closed sizing loops; the controller sizes
// each function through its own Sizer, whose bracket keeps the same two
// facts for one count and uses the same guard (atOrBelow, atOrAbove).
//
// Concurrency. A lookup takes no lock and allocates nothing. It loads the
// published key index (immutable once stored), then the key's table
// through its own atomic pointer, then facts one atomic word at a time.
// Writers serialise on mu. They replace the index only to add a key or to
// clear, and a key's table only to grow it (a copy of every fact so far);
// all other writes raise one fits word or lower one short word in place.
// A reader therefore never sees a half-built structure, and every fact it
// can read is true: fits only rises and short only falls, each value
// recorded by a finished search, so any mix of older and newer words is a
// mix of true facts, weaker or stronger. A reader still holding a grown
// table's old copy, or an index from before a clear, reads facts that were
// true when written and stay true; it may only miss what a newer copy
// knows, and a miss falls through to the search.
var sizingMemo struct {
	mu    sync.Mutex
	index atomic.Pointer[memoIndex]
}

const (
	memoKeys   = 256
	memoCounts = 1024
	// memoGuard is the relative distance from a recorded λ inside which
	// the memo defers to the search.
	memoGuard = 1e-9
)

// memoKey identifies one λ → c step function: the M/M/c predicate's inputs
// other than λ and c. All three are positive and finite (the solver
// rejects anything else first), so two keys are equal exactly when their
// float bits are.
type memoKey struct{ mu, t, p float64 }

// hash mixes the keys' float bits through odd multiplications. Keys
// differ mostly in their exponent and leading mantissa bits (the float
// bits of the service rates 8 to 12 share their 49 low bits, all zero),
// so slots come from the product's top bits, which every input bit
// reaches.
func (k memoKey) hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := math.Float64bits(k.mu) * m
	h = (h ^ math.Float64bits(k.t)) * m
	return (h ^ math.Float64bits(k.p)) * m
}

// memoIndex is an immutable, open-addressed (linear probing) index from
// key to table, at most half full: len(slots) is a power of two and at
// least twice the keys held, so at most 2 × memoKeys.
type memoIndex struct {
	slots []memoSlot
	shift uint // 64 − log2(len(slots)): a hash's top bits pick the home slot
	keys  int
}

// memoSlot is one index entry; a nil tab marks an empty slot.
type memoSlot struct {
	key memoKey
	tab *atomic.Pointer[memoTable]
}

// memoTable is one key's verified facts, indexed by container count, as
// float64 bits. Its slices never change length; a table that must hold a
// larger count is replaced by a grown copy.
type memoTable struct {
	fits  []atomic.Uint64
	short []atomic.Uint64
}

// find returns k's table pointer, or nil when x (possibly nil) lacks k.
func (x *memoIndex) find(k memoKey) *atomic.Pointer[memoTable] {
	if x == nil {
		return nil
	}
	return x.slot(k).tab
}

// slot returns k's slot, or the empty slot where k would go.
func (x *memoIndex) slot(k memoKey) *memoSlot {
	mask := len(x.slots) - 1
	for i := int(k.hash() >> x.shift); ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.tab == nil || s.key == k {
			return s
		}
	}
}

// with returns a new index holding x's keys (none when x holds memoKeys,
// the memo's clear) plus k with an empty table, and k's table pointer.
func (x *memoIndex) with(k memoKey) (*memoIndex, *atomic.Pointer[memoTable]) {
	var old []memoSlot
	keys := 1
	if x != nil && x.keys < memoKeys {
		old, keys = x.slots, x.keys+1
	}
	n := 8
	for n < 2*keys {
		n *= 2
	}
	next := &memoIndex{slots: make([]memoSlot, n), shift: uint(64 - bits.TrailingZeros(uint(n))), keys: keys}
	for _, s := range old {
		if s.tab != nil {
			*next.slot(s.key) = s
		}
	}
	tab := new(atomic.Pointer[memoTable])
	tab.Store(&memoTable{})
	*next.slot(k) = memoSlot{k, tab}
	return next, tab
}

// grown returns a copy of t long enough to hold count c: double its length
// or c+1, whichever is more, capped at memoCounts.
func (t *memoTable) grown(c int) *memoTable {
	n := min(memoCounts, max(c+1, 2*len(t.fits)))
	g := &memoTable{fits: make([]atomic.Uint64, n), short: make([]atomic.Uint64, n)}
	inf := math.Float64bits(math.Inf(1))
	for i := range n {
		if i < len(t.fits) {
			g.fits[i].Store(t.fits[i].Load())
			g.short[i].Store(t.short[i].Load())
		} else {
			g.short[i].Store(inf)
		}
	}
	return g
}

// fact reads one recorded λ.
func fact(w *atomic.Uint64) float64 { return math.Float64frombits(w.Load()) }

// memoLookup returns the container count the recorded facts prove for
// lambda, whose stability floor is lo, or ok = false when they do not
// decide it. The caller's hint is checked before the scan from lo.
func memoLookup(k memoKey, lambda float64, lo, hint int) (c int, ok bool) {
	p := sizingMemo.index.Load().find(k)
	if p == nil {
		return 0, false
	}
	tab := p.Load()
	fits, short := tab.fits, tab.short
	if hint > lo && hint < len(fits) && atOrBelow(lambda, fact(&fits[hint])) && atOrAbove(lambda, fact(&short[hint-1])) {
		return hint, true
	}
	// The first count proven to meet the SLO is the answer if the count
	// below it is proven to fail; nothing below it is proven to meet.
	for c := lo; c < len(fits); c++ {
		if !atOrBelow(lambda, fact(&fits[c])) {
			continue
		}
		if c == lo || atOrAbove(lambda, fact(&short[c-1])) {
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
	x := sizingMemo.index.Load()
	p := x.find(k)
	if p == nil {
		x, p = x.with(k)
		sizingMemo.index.Store(x)
	}
	tab := p.Load()
	if c >= len(tab.fits) {
		tab = tab.grown(c)
		p.Store(tab)
	}
	if lambda > fact(&tab.fits[c]) {
		tab.fits[c].Store(math.Float64bits(lambda))
	}
	if c > lo && lambda < fact(&tab.short[c-1]) {
		tab.short[c-1].Store(math.Float64bits(lambda))
	}
}
