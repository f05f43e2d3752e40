package metrics

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"lass/internal/xrand"
)

func TestReservoirBasics(t *testing.T) {
	r := NewReservoir()
	if r.Count() != 0 || r.Max() != 0 || r.Quantile(0.5) != 0 {
		t.Error("empty reservoir should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		r.Add(v)
	}
	if r.Count() != 5 {
		t.Errorf("count=%d", r.Count())
	}
	if r.Max() != 5 {
		t.Errorf("max=%v", r.Max())
	}
	if q := r.Quantile(0.5); q != 3 {
		t.Errorf("median=%v", q)
	}
	if q := r.Quantile(0); q != 1 {
		t.Errorf("q0=%v", q)
	}
	if q := r.Quantile(1); q != 5 {
		t.Errorf("q1=%v", q)
	}
}

func TestReservoirQuantileInterpolation(t *testing.T) {
	r := NewReservoir()
	r.Add(0)
	r.Add(10)
	if q := r.Quantile(0.5); q != 5 {
		t.Errorf("interpolated median=%v want 5", q)
	}
	if q := r.Quantile(0.25); q != 2.5 {
		t.Errorf("q25=%v want 2.5", q)
	}
}

func TestReservoirFractionBelow(t *testing.T) {
	r := NewReservoir()
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if f := r.FractionBelow(50); f != 0.5 {
		t.Errorf("FractionBelow(50)=%v", f)
	}
	if f := r.FractionBelow(100); f != 1 {
		t.Errorf("FractionBelow(100)=%v", f)
	}
	if f := r.FractionBelow(0.5); f != 0 {
		t.Errorf("FractionBelow(0.5)=%v", f)
	}
}

func TestReservoirAddAfterQuantile(t *testing.T) {
	// Adding after a quantile query must keep results correct (re-sort).
	r := NewReservoir()
	r.Add(1)
	r.Add(3)
	_ = r.Quantile(0.5)
	r.Add(2)
	if q := r.Quantile(0.5); q != 2 {
		t.Errorf("median after insert=%v", q)
	}
}

func TestReservoirDuration(t *testing.T) {
	r := NewReservoir()
	r.AddDuration(250 * time.Millisecond)
	if q := r.Quantile(0.5); q != 0.25 {
		t.Errorf("sample=%v", q)
	}
}

func TestQuickReservoirQuantileMatchesSort(t *testing.T) {
	rng := xrand.New(11)
	f := func(n uint8, qRaw uint8) bool {
		size := int(n%50) + 1
		q := float64(qRaw) / 255
		r := NewReservoir()
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = rng.Float64() * 100
			r.Add(vals[i])
		}
		sort.Float64s(vals)
		pos := q * float64(size-1)
		lo := int(math.Floor(pos))
		hi := lo + 1
		var want float64
		if hi >= size {
			want = vals[size-1]
		} else {
			frac := pos - float64(lo)
			want = vals[lo]*(1-frac) + vals[hi]*frac
		}
		return math.Abs(r.Quantile(q)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// floatReservoir is the spec Reservoir's compact storage must answer like,
// bit for bit: the float64-only reservoir it replaced, which keeps every
// sample as a float64, sorts them in place with sort.Float64s when a query
// needs order, and applies the documented formulas.
type floatReservoir struct {
	samples []float64
	sorted  bool
}

func (r *floatReservoir) add(v float64) { r.samples = append(r.samples, v); r.sorted = false }

func (r *floatReservoir) sort() {
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
}

func (r *floatReservoir) quantile(q float64) float64 {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	r.sort()
	if q <= 0 {
		return r.samples[0]
	}
	if q >= 1 {
		return r.samples[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return r.samples[n-1]
	}
	frac := pos - float64(lo)
	return r.samples[lo]*(1-frac) + r.samples[lo+1]*frac
}

func (r *floatReservoir) max() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	if r.sorted {
		return r.samples[len(r.samples)-1]
	}
	m := r.samples[0]
	for _, v := range r.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func (r *floatReservoir) fractionBelow(limit float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	return float64(sort.SearchFloat64s(r.samples, math.Nextafter(limit, math.Inf(1)))) / float64(len(r.samples))
}

// durationEdges are durations at the edges of the compact range and of
// Duration.Seconds' whole-second split.
var durationEdges = []time.Duration{
	1, 2, time.Second - 1, time.Second, time.Second + 1, 4*time.Second - 1,
	math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 1, -1,
	math.MinInt64, math.MaxInt64,
}

// FuzzReservoir decodes bytes into interleaved AddDuration (zero, in the
// compact range, negative, at or past 2^32 ns, range edges), Add (±0, NaN,
// ±Inf, ordinary floats) and Quantile / FractionBelow queries, and checks
// every answer, with Count and Max after each operation, against
// floatReservoir's bits. Zeros of either sign are one answer once a −0 has
// been added, since sort.Float64s leaves ±0 in arrival order, which compact
// storage does not keep; NaNs are one answer. Quantile at NaN panics in both
// and is not fuzzed. Seeds: testdata/fuzz/FuzzReservoir.
func FuzzReservoir(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*128 { // longer programs add no coverage
			return
		}
		r, spec := NewReservoir(), &floatReservoir{}
		negZero := false
		same := func(got, want float64) bool {
			return math.Float64bits(got) == math.Float64bits(want) ||
				got != got && want != want || negZero && got == 0 && want == 0
		}
		for i := 0; i+2 < len(data); i += 3 {
			op, a := data[i], int64(data[i+1])<<8|int64(data[i+2])
			shift := op >> 4
			var d time.Duration
			switch op % 8 {
			case 0:
				d = 0
			case 1: // fine steps below 2^23 ns, coarse ones up to 2^32
				d = 1 + time.Duration(a)<<shift
				if shift >= 8 {
					d = 1 + time.Duration(a)*time.Duration(shift-7)<<13
				}
			case 2:
				d = durationEdges[int(a)%len(durationEdges)]
			case 3:
				d = -1 - time.Duration(a)<<shift
			case 4:
				d = math.MaxUint32 + 1 + time.Duration(a)<<(2*shift)
			case 5:
				v := [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
					float64(a)/1000 - 10, float64(a) * 1e-300, float64(a) * 1e300}[a%8]
				negZero = negZero || math.Signbit(v) && v == 0
				r.Add(v)
				spec.add(v)
			case 6:
				q := [...]float64{0, 1, -1, 2, math.Inf(1), math.Inf(-1), float64(a) / 65535, 0.5}[shift%8]
				if got, want := r.Quantile(q), spec.quantile(q); !same(got, want) {
					t.Fatalf("op %d: Quantile(%v) = %v, want %v", i/3, q, got, want)
				}
			case 7:
				limit := time.Duration(a << shift).Seconds()
				switch shift % 8 {
				case 1:
					limit = math.Nextafter(limit, math.Inf(-1))
				case 2:
					limit = math.Nextafter(limit, math.Inf(1))
				case 3:
					limit = math.NaN()
				case 4:
					limit = math.Inf(int(a%2)*2 - 1)
				case 5:
					limit = -limit
				case 6:
					limit = float64(a)/1000 - 10
				}
				if got, want := r.FractionBelow(limit), spec.fractionBelow(limit); !same(got, want) {
					t.Fatalf("op %d: FractionBelow(%v) = %v, want %v", i/3, limit, got, want)
				}
			}
			if op%8 <= 4 {
				r.AddDuration(d)
				spec.add(d.Seconds())
			}
			if r.Count() != len(spec.samples) {
				t.Fatalf("op %d: Count = %d, want %d", i/3, r.Count(), len(spec.samples))
			}
			if got, want := r.Max(), spec.max(); !same(got, want) {
				t.Fatalf("op %d: Max = %v, want %v", i/3, got, want)
			}
		}
	})
}

// heapGrowth is the live heap that build's result holds, in bytes.
func heapGrowth(build func() *Reservoir) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestReservoirCompactStorage holds AddDuration's storage to its stated
// cost: a zero duration allocates and retains nothing, and an in-range one
// retains 4 bytes plus append slack, where a float64 would retain 8.
func TestReservoirCompactStorage(t *testing.T) {
	r := NewReservoir()
	if a := testing.AllocsPerRun(1000, func() { r.AddDuration(0) }); a != 0 {
		t.Errorf("AddDuration(0): %v allocations, want 0", a)
	}
	const n = 1_000_000
	zeros := heapGrowth(func() *Reservoir {
		r := NewReservoir()
		for range n {
			r.AddDuration(0)
		}
		return r
	})
	if zeros > 64<<10 {
		t.Errorf("%d zero samples retain %d bytes, want nothing", n, zeros)
	}
	inRange := heapGrowth(func() *Reservoir {
		r := NewReservoir()
		for i := range n {
			r.AddDuration(time.Duration(1 + i*4093))
		}
		return r
	})
	if inRange > 6*n { // 4 bytes a sample, plus at most half again of append slack
		t.Errorf("%d in-range samples retain %d bytes (%.2f per sample), want at most 6 per sample",
			n, inRange, float64(inRange)/n)
	}
	t.Logf("retained: %d zeros %d B, %d in range %d B (%.2f per sample)", n, zeros, n, inRange, float64(inRange)/n)
}

// nearestRank is the exact order statistic Histogram.Quantile estimates: the
// sample of rank ⌈q·n⌉ (at least 1) in sorted, which must be non-empty.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	rank := 1
	if q >= 1 {
		rank = n
	} else if q > 0 {
		rank = max(1, int(math.Ceil(q*float64(n))))
	}
	return sorted[rank-1]
}

// errorBound is h's stated relative error, 2^-(k+1) for k mantissa bits.
func errorBound(h *Histogram) float64 { return math.Ldexp(1, int(h.shift)-53) }

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(1e-6, 100, 512)
	if b := errorBound(h); b != 1.0/64 {
		t.Fatalf("512 buckets over 1e-6..100 keep k=%d mantissa bits (bound %v), want 5", 52-h.shift, b)
	}
	rng := xrand.New(21)
	var vals []float64
	for i := 0; i < 100000; i++ {
		v := rng.Exp(10) // mean 0.1s
		h.Add(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		hq, eq := h.Quantile(q), nearestRank(vals, q)
		if math.Abs(hq-eq) > errorBound(h)*eq {
			t.Errorf("q=%v: hist=%v exact=%v, beyond %v relative", q, hq, eq, errorBound(h))
		}
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(0.001, 1, 16)
	h.Add(0.0001) // underflow
	h.Add(0.0002) // underflow
	h.Add(100)    // overflow
	if h.total != 3 || h.underf != 2 || h.overf != 1 {
		t.Errorf("count=%d under=%d over=%d, want 3 2 1", h.total, h.underf, h.overf)
	}
	if q := h.Quantile(0.01); q != 0.0001 {
		t.Errorf("rank-1 quantile=%v want the exact min", q)
	}
	if q := h.Quantile(0.5); q != 0.001 {
		t.Errorf("underflow quantile=%v want the range's min", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Errorf("overflow quantile=%v want max seen", q)
	}
}

// TestHistogramInfIsOverflow: +Inf is above every range, so it counts as
// overflow and is the exact max (it once landed in underflow and read back
// as the range's min).
func TestHistogramInfIsOverflow(t *testing.T) {
	h := NewHistogram(0.001, 1, 16)
	h.Add(0.5)
	h.Add(math.Inf(1))
	if h.underf != 0 || h.overf != 1 {
		t.Errorf("under=%d over=%d, want 0 1", h.underf, h.overf)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("Quantile(1)=%v want +Inf", q)
	}
	if q := h.Quantile(0); q != 0.5 {
		t.Errorf("Quantile(0)=%v want 0.5", q)
	}
}

func TestHistogramConstantStreamIsExact(t *testing.T) {
	h := NewHistogram(0.001, 1, 16)
	for i := 0; i < 1000; i++ {
		h.Add(0.5)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0.5 {
			t.Errorf("Quantile(%v)=%v of a constant 0.5 stream", q, got)
		}
	}
}

// TestHistogramNaNZeroNegative: NaN is ignored; zero, −0, negatives and −Inf
// are underflow, and the exact min keeps the smallest of them.
func TestHistogramNaNZeroNegative(t *testing.T) {
	h := NewHistogram(0.001, 1, 16)
	h.Add(math.NaN())
	if h.total != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("NaN counted: total=%d", h.total)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -3, math.Inf(-1)} {
		h.Add(v)
	}
	h.Add(0.5)
	if h.total != 5 || h.underf != 4 {
		t.Errorf("total=%d under=%d, want 5 4", h.total, h.underf)
	}
	if q := h.Quantile(0); !math.IsInf(q, -1) {
		t.Errorf("Quantile(0)=%v want -Inf", q)
	}
	if q := h.Quantile(0.5); q != 0.001 {
		t.Errorf("underflow quantile=%v want the range's min", q)
	}
	if q := h.Quantile(1); q != 0.5 {
		t.Errorf("Quantile(1)=%v want 0.5", q)
	}
	if q := h.Quantile(math.NaN()); !math.IsInf(q, -1) {
		t.Errorf("Quantile(NaN)=%v want the min", q)
	}
}

// TestHistogramStateIsFixed: Add allocates nothing and the bucket array never
// grows, so memory is flat in the number of samples.
func TestHistogramStateIsFixed(t *testing.T) {
	h := NewHistogram(100e-9, 1e4, 3000)
	n, c := len(h.counts), cap(h.counts)
	rng := xrand.New(5)
	if a := testing.AllocsPerRun(1000, func() { h.Add(rng.Exp(1e3)) }); a != 0 {
		t.Errorf("Add allocates %v times per call", a)
	}
	for i := 0; i < 1_000_000; i++ {
		h.Add(rng.LogNormal(-9, 6)) // spills far past both ends
	}
	if len(h.counts) != n || cap(h.counts) != c {
		t.Errorf("buckets went from len %d cap %d to len %d cap %d", n, c, len(h.counts), cap(h.counts))
	}
	if h.underf == 0 || h.overf == 0 {
		t.Errorf("under=%d over=%d: the stream should spill both ways", h.underf, h.overf)
	}
}

// TestHistogramResolution: every bucket is at most as wide, relative to its
// lower edge, as one of the requested geometric buckets, and, when those are
// narrower than an octave, the counters stay under three per requested bucket
// plus one octave.
func TestHistogramResolution(t *testing.T) {
	for _, tc := range []struct {
		min, max float64
		buckets  int
	}{{1e-6, 100, 256}, {10, 1e11, 1200}, {100e-9, 1e4, 3000}, {1, 2, 1}, {0.5, 1e300, 7}, {1, 1.001, 100000}} {
		h := NewHistogram(tc.min, tc.max, tc.buckets)
		geo := math.Expm1(math.Log(tc.max/tc.min) / float64(tc.buckets))
		octave := 1 << (52 - h.shift)
		if geo < 1 && len(h.counts) >= 3*tc.buckets+octave {
			t.Errorf("%+v: %d counters", tc, len(h.counts))
		}
		for i := range h.counts {
			b := (h.base + uint64(i)) << h.shift
			lo, hi := math.Float64frombits(b), math.Float64frombits(b+1<<h.shift)
			if (hi-lo)/lo > geo {
				t.Fatalf("%+v: bucket %d [%v, %v) is wider than %v", tc, i, lo, hi, geo)
			}
		}
		if first := math.Float64frombits(h.base << h.shift); first > tc.min {
			t.Errorf("%+v: first bucket starts at %v", tc, first)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0.001, 1, 16)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramInvalidParamsPanics(t *testing.T) {
	for _, tc := range []struct {
		min, max float64
		buckets  int
	}{{0, 1, 16}, {-1, 1, 16}, {1, 1, 16}, {1, 0.5, 16}, {1, 2, 0},
		{0x1p-1074, 1, 16}, {1, math.Inf(1), 16}, {math.NaN(), 1, 16}, {1, math.NaN(), 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v, %v, %d): want panic", tc.min, tc.max, tc.buckets)
				}
			}()
			NewHistogram(tc.min, tc.max, tc.buckets)
		}()
	}
}

// FuzzHistogram decodes bytes into a stream of in-range, underflow, overflow,
// ±Inf, NaN, zero and negative samples and checks count, min and max exactly
// and every quantile against a sorted copy: within the exact min and max, and
// within the stated bound when the order statistic is in range, else between
// it and the range edge it passed.
// Seeds: testdata/fuzz/FuzzHistogram.
func FuzzHistogram(f *testing.F) {
	const lo, hi = 1e-3, 1e3
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 { // longer streams add no coverage
			return
		}
		h := NewHistogram(lo, hi, []int{1, 7, 64, 1000}[data[0]%4])
		var vals []float64
		for i := 1; i+1 < len(data); i += 2 {
			x := float64(data[i+1])
			var v float64
			switch data[i] % 8 {
			case 0, 1, 2:
				v = lo * math.Pow(hi/lo, x/255)
			case 3: // powers of two: exact bucket edges
				v = math.Ldexp(1, int(data[i+1]%21)-10)
			case 4:
				v = lo * x / 256
			case 5:
				v = hi * (1 + x)
			case 6:
				v = math.Inf(1 - 2*int(data[i+1]%2))
			case 7:
				v = -x
				if data[i+1]%2 == 1 {
					v = math.NaN()
				}
			}
			h.Add(v)
			if v == v {
				vals = append(vals, v)
			}
		}
		sort.Float64s(vals)
		if h.total != uint64(len(vals)) {
			t.Fatalf("count %d, want %d", h.total, len(vals))
		}
		if len(vals) == 0 {
			if q := h.Quantile(0.5); q != 0 {
				t.Fatalf("empty Quantile=%v", q)
			}
			return
		}
		if h.minSeen != vals[0] || h.maxSeen != vals[len(vals)-1] {
			t.Fatalf("min %v max %v, want %v %v", h.minSeen, h.maxSeen, vals[0], vals[len(vals)-1])
		}
		bound := errorBound(h) * (1 + 1e-12)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			got, want := h.Quantile(q), nearestRank(vals, q)
			var ok bool
			switch {
			case q == 0 || q == 1:
				ok = got == want
			case want < lo:
				ok = want <= got && got <= lo
			case want > hi:
				ok = hi <= got && got <= want
			default:
				ok = math.Abs(got-want) <= bound*want
			}
			if !ok || got < vals[0] || got > vals[len(vals)-1] {
				t.Fatalf("Quantile(%v)=%v, exact %v (bound %v, %d samples)", q, got, want, errorBound(h), len(vals))
			}
		}
	})
}

func TestTimeWeightedAverage(t *testing.T) {
	a := NewTimeWeightedAverage()
	a.Set(0, 1.0)
	a.Set(10*time.Second, 0.0)
	// 1.0 for 10s then 0 for 10s -> mean 0.5 at t=20s.
	if m := a.Mean(20 * time.Second); math.Abs(m-0.5) > 1e-12 {
		t.Errorf("mean=%v want 0.5", m)
	}
	if a.value != 0 {
		t.Errorf("value=%v", a.value)
	}
}

func TestTimeWeightedAverageLateStart(t *testing.T) {
	a := NewTimeWeightedAverage()
	a.Set(10*time.Second, 2.0)
	// Window starts at first Set; 2.0 held for 10s.
	if m := a.Mean(20 * time.Second); math.Abs(m-2) > 1e-12 {
		t.Errorf("mean=%v want 2", m)
	}
	if m := a.Mean(5 * time.Second); m != 0 {
		t.Errorf("mean before start=%v want 0", m)
	}
}

func TestTimeWeightedAverageBackwardsPanics(t *testing.T) {
	a := NewTimeWeightedAverage()
	a.Set(10*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("want panic on time going backwards")
		}
	}()
	a.Set(5*time.Second, 2)
}

func TestSeries(t *testing.T) {
	s := NewSeries("alloc")
	if s.Last() != 0 || s.ValueAt(time.Second) != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty series should report zeros")
	}
	s.Record(0, 1)
	s.Record(10*time.Second, 3)
	s.Record(20*time.Second, 2)
	if s.Last() != 2 {
		t.Errorf("last=%v", s.Last())
	}
	if v := s.ValueAt(15 * time.Second); v != 3 {
		t.Errorf("ValueAt(15s)=%v", v)
	}
	if v := s.ValueAt(10 * time.Second); v != 3 {
		t.Errorf("ValueAt(10s)=%v (right-continuous)", v)
	}
	if v := s.ValueAt(25 * time.Second); v != 2 {
		t.Errorf("ValueAt(25s)=%v", v)
	}
	if s.Max() != 3 {
		t.Errorf("max=%v", s.Max())
	}
}

// everySample is the append-every-sample series that Series replaced, with
// Fig 9's summing loop for the mean: the reference TestSeriesMatchesEverySample
// holds the change-point Series to.
type everySample struct{ points []Point }

func (r *everySample) record(t time.Duration, v float64) {
	r.points = append(r.points, Point{T: t, V: v})
}

func (r *everySample) last() float64 {
	if len(r.points) == 0 {
		return 0
	}
	return r.points[len(r.points)-1].V
}

func (r *everySample) valueAt(t time.Duration) float64 {
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].T > t })
	if idx == 0 {
		return 0
	}
	return r.points[idx-1].V
}

func (r *everySample) max() float64 {
	m := 0.0
	for i, p := range r.points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

func (r *everySample) mean() float64 {
	var sum float64
	for _, p := range r.points {
		sum += p.V
	}
	if len(r.points) == 0 {
		return 0
	}
	return sum / float64(len(r.points))
}

// TestSeriesMatchesEverySample records seeded sequences with long repeat
// runs, signed zeros, NaNs with distinct payloads, infinities and equal
// timestamps, and after every Record compares the bits of every answer with
// the series that keeps every sample. Recording a repeated value must not
// allocate.
func TestSeriesMatchesEverySample(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	// Go leaves the payload of a computed NaN unspecified: adding two NaNs
	// may keep either operand's, depending on the instructions emitted.
	sameSum := func(a, b float64) bool { return same(a, b) || math.IsNaN(a) && math.IsNaN(b) }
	palette := []float64{
		0, math.Copysign(0, -1), 1, 2, 3.5, -1,
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		math.Inf(1), math.Inf(-1),
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		s, ref := NewSeries("prop"), &everySample{}
		now := time.Duration(rng.Intn(10)) * time.Second
		v := palette[rng.Intn(len(palette))]
		for step := 0; step < 300; step++ {
			if rng.Float64() < 0.7 {
				now += time.Duration(1+rng.Intn(5)) * time.Second
			}
			switch u := rng.Float64(); {
			case u < 0.15:
				v = palette[rng.Intn(len(palette))]
			case u < 0.2:
				v = rng.Norm(0, 10)
			}
			s.Record(now, v)
			ref.record(now, v)
			if !same(s.Last(), ref.last()) || !same(s.Max(), ref.max()) || !sameSum(s.Mean(), ref.mean()) || s.Samples != len(ref.points) {
				t.Fatalf("seed %d step %d: Last/Max/Mean/Samples = %v/%v/%v/%d, every sample gives %v/%v/%v/%d",
					seed, step, s.Last(), s.Max(), s.Mean(), s.Samples, ref.last(), ref.max(), ref.mean(), len(ref.points))
			}
			probes := []time.Duration{ref.points[0].T - time.Second}
			for i, p := range ref.points {
				probes = append(probes, p.T)
				if i > 0 && p.T > ref.points[i-1].T {
					probes = append(probes, (ref.points[i-1].T+p.T)/2)
				}
			}
			for _, at := range probes {
				if g, w := s.ValueAt(at), ref.valueAt(at); !same(g, w) {
					t.Fatalf("seed %d step %d: ValueAt(%v) = %v, every sample gives %v", seed, step, at, g, w)
				}
			}
		}
		if len(s.Points) >= len(ref.points) {
			t.Errorf("seed %d: %d points kept of %d samples; repeats must not add points", seed, len(s.Points), len(ref.points))
		}
	}

	// Each call records 1<<14 repeats: appending every sample would grow
	// the slice at least once per call.
	s, now := NewSeries("repeat"), time.Duration(0)
	s.Record(now, 4)
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 1<<14; i++ {
			now += time.Second
			s.Record(now, 4)
		}
	})
	if allocs != 0 || len(s.Points) != 1 {
		t.Errorf("recording a repeated value: %v allocations per call, %d points; want 0 and 1", allocs, len(s.Points))
	}
}

func TestSLOTracker(t *testing.T) {
	tr := NewSLOTracker(100 * time.Millisecond)
	if tr.Attainment() != 1 {
		t.Error("no-traffic attainment should be 1")
	}
	for i := 0; i < 95; i++ {
		tr.Observe(50 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		tr.Observe(200 * time.Millisecond)
	}
	if tr.Total() != 100 || tr.Violations() != 5 {
		t.Errorf("total=%d violations=%d", tr.Total(), tr.Violations())
	}
	if math.Abs(tr.Attainment()-0.95) > 1e-12 {
		t.Errorf("attainment=%v", tr.Attainment())
	}
	// Boundary: exactly the deadline is a pass.
	tr2 := NewSLOTracker(100 * time.Millisecond)
	tr2.Observe(100 * time.Millisecond)
	if tr2.Violations() != 0 {
		t.Error("deadline-exact latency should not violate")
	}
}

// BenchmarkHistogramAdd and BenchmarkHistogramQuantile time the live
// runtime's wait store at its own bounds.
func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(100e-9, 1e4, 3000)
	vals := make([]float64, 1024)
	rng := xrand.New(3)
	for i := range vals {
		vals[i] = rng.Exp(1e5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i&1023])
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram(100e-9, 1e4, 3000)
	rng := xrand.New(3)
	for i := 0; i < 1_000_000; i++ {
		h.Add(rng.Exp(1e5))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.95)
	}
}
