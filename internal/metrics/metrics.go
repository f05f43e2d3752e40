// Package metrics provides the measurement primitives used by the LaSS
// reproduction: exact-quantile reservoirs for waiting/response times
// (zero durations counted, others kept as 32-bit nanoseconds, with answers
// bit-identical to sorting every sample as a float64), fixed-size
// log-linear histograms for high-volume latency capture (the live
// runtime's waits; nearest-rank quantiles within 2^-(k+1) relative error of
// the exact order statistic, k mantissa bits per bucket), time-weighted
// averages for utilization accounting, and step-function series, stored as
// change points with an exact sample count and mean, for the
// allocation-over-time figures.
//
// The paper reports P95 waiting times (Figs 3, 4), cluster utilization
// percentages (Figs 8, 9), and container-allocation time series (Figs 6, 8,
// 9); each of those maps onto one primitive here.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// Reservoir collects float64 samples and answers exact quantile queries.
// At the scales used in this repository (at most a few million samples per
// experiment) exact quantiles are affordable and remove any estimator error
// from the model-validation figures.
//
// Storage is compact while every sample has come from AddDuration as a
// duration in [0, 2^32) ns (4.29 s), which is all the simulator records:
// zero durations, a request that found an idle container, are only counted,
// and the others are kept as uint32 nanoseconds, 4 bytes a sample. Any other
// sample, an Add or a duration out of that range, switches the reservoir
// once to a []float64 of every sample.
//
// The answers do not depend on the storage. time.Duration.Seconds, the
// float AddDuration records, is monotone on [0, 2^32) ns, so the counted
// zeros followed by the sorted uint32 values, each converted on read, are
// exactly the sequence sorting those samples as float64 gives. Quantile,
// FractionBelow and Max read that sequence with the float64 path's
// arithmetic and comparisons.
type Reservoir struct {
	zeros  int       // compact: samples of 0 ns
	ns     []uint32  // compact: samples in [1, 2^32) ns
	floats []float64 // every sample, once wide
	wide   bool      // storage is floats
	sorted bool      // the storage in use is sorted
}

// NewReservoir returns an empty reservoir.
func NewReservoir() *Reservoir { return &Reservoir{} }

// Add records one sample.
func (r *Reservoir) Add(v float64) {
	if !r.wide {
		r.widen()
	}
	r.floats = append(r.floats, v)
	r.sorted = false
}

// AddDuration records a duration sample in seconds.
func (r *Reservoir) AddDuration(d time.Duration) {
	switch {
	case r.wide || d < 0 || d > math.MaxUint32:
		r.Add(d.Seconds())
	case d == 0:
		r.zeros++
	default:
		r.ns = append(r.ns, uint32(d))
		r.sorted = false
	}
}

// widen moves the compact samples to floats, zeros first, so a sorted
// reservoir stays sorted.
func (r *Reservoir) widen() {
	r.floats = make([]float64, r.zeros, r.zeros+len(r.ns)+1)
	for _, v := range r.ns {
		r.floats = append(r.floats, time.Duration(v).Seconds())
	}
	r.zeros, r.ns, r.wide = 0, nil, true
}

// Count returns the number of samples recorded.
func (r *Reservoir) Count() int { return r.zeros + len(r.ns) + len(r.floats) }

// ensureSorted sorts the storage in use, once per batch of samples.
func (r *Reservoir) ensureSorted() {
	if r.sorted {
		return
	}
	if r.wide {
		sort.Float64s(r.floats)
	} else {
		slices.Sort(r.ns)
	}
	r.sorted = true
}

// at returns the i-th smallest sample of a sorted reservoir.
func (r *Reservoir) at(i int) float64 {
	switch {
	case r.wide:
		return r.floats[i]
	case i < r.zeros:
		return 0
	default:
		return time.Duration(r.ns[i-r.zeros]).Seconds()
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics. It returns 0 for an empty reservoir.
func (r *Reservoir) Quantile(q float64) float64 {
	n := r.Count()
	if n == 0 {
		return 0
	}
	r.ensureSorted()
	if q <= 0 {
		return r.at(0)
	}
	if q >= 1 {
		return r.at(n - 1)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return r.at(n - 1)
	}
	frac := pos - float64(lo)
	return r.at(lo)*(1-frac) + r.at(hi)*frac
}

// Max returns the largest sample, or 0 if empty.
func (r *Reservoir) Max() float64 {
	if !r.wide {
		if len(r.ns) == 0 {
			return 0
		}
		if r.sorted {
			return time.Duration(r.ns[len(r.ns)-1]).Seconds()
		}
		return time.Duration(slices.Max(r.ns)).Seconds()
	}
	if len(r.floats) == 0 {
		return 0
	}
	if r.sorted {
		return r.floats[len(r.floats)-1]
	}
	m := r.floats[0]
	for _, v := range r.floats[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// FractionBelow returns the fraction of samples <= limit.
func (r *Reservoir) FractionBelow(limit float64) float64 {
	n := r.Count()
	if n == 0 {
		return 0
	}
	r.ensureSorted()
	// Upper bound: the number of samples not at or above the next float
	// past limit, which for a NaN limit is every sample.
	next := math.Nextafter(limit, math.Inf(1))
	if r.wide {
		return float64(sort.SearchFloat64s(r.floats, next)) / float64(n)
	}
	idx := sort.Search(len(r.ns), func(i int) bool { return time.Duration(r.ns[i]).Seconds() >= next })
	if !(0 >= next) {
		idx += r.zeros
	}
	return float64(idx) / float64(n)
}

// Histogram is a fixed-size log-linear histogram (HDR style) with a stated
// relative error, for high-volume capture where keeping every sample would
// grow memory with run length. A bucket is a float64's exponent plus its top
// k mantissa bits, so Add is a shift and a subtraction on math.Float64bits:
// no logarithm, no allocation, and the state never grows after NewHistogram.
// Each octave splits into 2^k equal-width buckets, at most 2^-k of their
// lower edge wide.
//
// Quantile(q) is nearest-rank: the sample of rank ⌈q·n⌉ (at least 1) in
// sorted order. It reports that sample's bucket midpoint, clamped to the
// exact minimum and maximum seen, so it is within 2^-(k+1) relative error
// of the exact order statistic whenever that statistic lies in the tracked
// range; Quantile(0) and Quantile(1) are the exact min and max, and a
// constant stream reads back exactly.
//
// Inputs: a value below the range, including zero, negatives and -Inf,
// counts as underflow; one above it, including +Inf, as overflow. Both count
// in the rank and in the exact min and max, and a rank that falls among them
// reports the range edge they passed. NaN has no rank: Add ignores it.
type Histogram struct {
	lo, hi  float64 // tracked range [min, max]
	shift   uint    // 52 - k: drops the mantissa bits below the bucket
	base    uint64  // the bucket index of lo, in shifted bits
	counts  []uint64
	total   uint64
	underf  uint64
	overf   uint64
	minSeen float64
	maxSeen float64
}

// NewHistogram returns a histogram tracking [min, max] at a resolution no
// coarser than buckets geometric buckets over that range: k is the fewest
// mantissa bits whose bucket width, 2^-k of its lower edge, is at most the
// geometric buckets' width (one bucket per octave at the coarsest). For
// geometric buckets narrower than an octave that is fewer than three
// counters per bucket asked for, plus 2^k. min must be a normal positive
// float64 and max finite. Typical latency use: NewHistogram(1e-6, 100, 256),
// 1 µs to 100 s at k = 4 (within 3.1%).
func NewHistogram(min, max float64, buckets int) *Histogram {
	if !(min >= 0x1p-1022) || !(max > min) || math.IsInf(max, 1) || buckets < 1 {
		panic("metrics: invalid histogram parameters")
	}
	width := math.Expm1(math.Log(max/min) / float64(buckets))
	k := 0
	for k < 52 && math.Ldexp(1, -k) > width {
		k++
	}
	shift := uint(52 - k)
	base := math.Float64bits(min) >> shift
	return &Histogram{
		lo:      min,
		hi:      max,
		shift:   shift,
		base:    base,
		counts:  make([]uint64, math.Float64bits(max)>>shift-base+1),
		minSeen: math.Inf(1),
		maxSeen: math.Inf(-1),
	}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	if v != v {
		return
	}
	if v < h.minSeen {
		h.minSeen = v
	}
	if v > h.maxSeen {
		h.maxSeen = v
	}
	h.total++
	switch {
	case v < h.lo:
		h.underf++
	case v > h.hi:
		h.overf++
	default:
		h.counts[math.Float64bits(v)>>h.shift-h.base]++
	}
}

// Quantile returns the nearest-rank q-quantile (q clamped to [0, 1]) within
// the error stated on Histogram, or 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(1)
	if q >= 1 {
		rank = h.total
	} else if q > 0 {
		rank = max(1, uint64(math.Ceil(q*float64(h.total))))
	}
	var est float64
	switch {
	case rank == 1:
		return h.minSeen
	case rank == h.total:
		return h.maxSeen
	case rank <= h.underf:
		est = h.lo
	case rank > h.total-h.overf:
		est = h.hi
	default:
		cum := h.underf
		for i, c := range h.counts {
			if cum += c; cum >= rank {
				b := (h.base + uint64(i)) << h.shift
				est = (math.Float64frombits(b) + math.Float64frombits(b+1<<h.shift)) / 2
				break
			}
		}
	}
	return math.Min(math.Max(est, h.minSeen), h.maxSeen)
}

// TimeWeightedAverage integrates a piecewise-constant signal over time and
// reports its time-weighted mean: exactly how the paper computes "system
// utilization" over an experiment (Figs 8, 9).
type TimeWeightedAverage struct {
	last     time.Duration
	value    float64
	integral float64
	started  bool
	start    time.Duration
}

// NewTimeWeightedAverage returns an integrator starting at time 0, value 0.
func NewTimeWeightedAverage() *TimeWeightedAverage { return &TimeWeightedAverage{} }

// Set records that the signal changed to v at time now. Calls must be
// monotone in now.
func (a *TimeWeightedAverage) Set(now time.Duration, v float64) {
	if !a.started {
		a.started = true
		a.start = now
		a.last = now
		a.value = v
		return
	}
	if now < a.last {
		panic(fmt.Sprintf("metrics: time went backwards: %v < %v", now, a.last))
	}
	a.integral += a.value * (now - a.last).Seconds()
	a.last = now
	a.value = v
}

// Mean returns the time-weighted mean of the signal over [start, now].
func (a *TimeWeightedAverage) Mean(now time.Duration) float64 {
	if !a.started || now <= a.start {
		return 0
	}
	integral := a.integral
	if now > a.last {
		integral += a.value * (now - a.last).Seconds()
	}
	return integral / (now - a.start).Seconds()
}

// Point is one (time, value) sample of a recorded series.
type Point struct {
	T time.Duration
	V float64
}

// Series records a named time series, used to reproduce the
// allocation-over-time and workload-over-time plots (Figs 6, 8, 9). It is a
// right-continuous step function stored as change points: Points holds a
// sample only when its value's bits differ from the last point's, so a value
// held for a whole run costs one point. Samples counts every Record, and Mean
// averages every recorded value, repeats included, exactly.
type Series struct {
	Name   string
	Points []Point
	// Samples is the number of Record calls, repeats included.
	Samples int
	sum     float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record samples the series at t. Points are expected in time order. A value
// whose bits repeat the last point's adds no point (−0 and +0, and NaNs with
// different payloads, stay distinct), so ValueAt, Last and Max answer as if
// every sample were kept.
func (s *Series) Record(t time.Duration, v float64) {
	s.Samples++
	s.sum += v
	if n := len(s.Points); n == 0 || math.Float64bits(s.Points[n-1].V) != math.Float64bits(v) {
		s.Points = append(s.Points, Point{T: t, V: v})
	}
}

// Mean returns the mean of every recorded value, or 0 if empty. It adds the
// values in recording order, so it is bit-identical to summing a series that
// kept every sample and dividing by the count (a NaN result aside, whose
// payload Go leaves unspecified).
func (s *Series) Mean() float64 {
	if s.Samples == 0 {
		return 0
	}
	return s.sum / float64(s.Samples)
}

// Last returns the most recent value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// ValueAt returns the value of the series at time t, treating the series as
// a right-continuous step function. Returns 0 before the first point.
func (s *Series) ValueAt(t time.Duration) float64 {
	idx := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if idx == 0 {
		return 0
	}
	return s.Points[idx-1].V
}

// Max returns the maximum recorded value, or 0 if empty.
func (s *Series) Max() float64 {
	m := 0.0
	for i, p := range s.Points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// SLOTracker counts requests against a latency target, reporting attainment
// the way the paper states SLOs: "a high percentile of requests complete by
// the deadline".
type SLOTracker struct {
	Deadline time.Duration
	total    uint64
	violated uint64
}

// NewSLOTracker returns a tracker for the given deadline.
func NewSLOTracker(deadline time.Duration) *SLOTracker {
	return &SLOTracker{Deadline: deadline}
}

// Observe records one request's latency.
func (t *SLOTracker) Observe(latency time.Duration) {
	t.total++
	if latency > t.Deadline {
		t.violated++
	}
}

// Total returns the number of observed requests.
func (t *SLOTracker) Total() uint64 { return t.total }

// Violations returns the number of requests exceeding the deadline.
func (t *SLOTracker) Violations() uint64 { return t.violated }

// Attainment returns the fraction of requests meeting the deadline
// (1.0 when no requests were observed, i.e. an SLO with no traffic holds).
func (t *SLOTracker) Attainment() float64 {
	if t.total == 0 {
		return 1
	}
	return 1 - float64(t.violated)/float64(t.total)
}
