// Package metrics provides the measurement primitives used by the LaSS
// reproduction: exact-quantile reservoirs for waiting/response times,
// log-bucketed histograms for high-volume latency capture, time-weighted
// averages for utilization accounting, and time-series recorders for the
// allocation-over-time figures.
//
// The paper reports P95 waiting times (Figs 3, 4), cluster utilization
// percentages (Figs 8, 9), and container-allocation time series (Figs 6, 8,
// 9); each of those maps onto one primitive here.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Reservoir collects float64 samples and answers exact quantile queries.
// At the scales used in this repository (at most a few million samples per
// experiment) exact quantiles are affordable and remove any estimator error
// from the model-validation figures.
type Reservoir struct {
	samples []float64
	sorted  bool
}

// NewReservoir returns an empty reservoir.
func NewReservoir() *Reservoir { return &Reservoir{} }

// Add records one sample.
func (r *Reservoir) Add(v float64) {
	r.samples = append(r.samples, v)
	r.sorted = false
}

// AddDuration records a duration sample in seconds.
func (r *Reservoir) AddDuration(d time.Duration) { r.Add(d.Seconds()) }

// Count returns the number of samples recorded.
func (r *Reservoir) Count() int { return len(r.samples) }

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics. It returns 0 for an empty reservoir.
func (r *Reservoir) Quantile(q float64) float64 {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	if q <= 0 {
		return r.samples[0]
	}
	if q >= 1 {
		return r.samples[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return r.samples[n-1]
	}
	frac := pos - float64(lo)
	return r.samples[lo]*(1-frac) + r.samples[hi]*frac
}

// Max returns the largest sample, or 0 if empty.
func (r *Reservoir) Max() float64 {
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

// FractionBelow returns the fraction of samples <= limit.
func (r *Reservoir) FractionBelow(limit float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	// Upper bound: first index with sample > limit.
	idx := sort.SearchFloat64s(r.samples, math.Nextafter(limit, math.Inf(1)))
	return float64(idx) / float64(len(r.samples))
}

// Histogram is a log-bucketed latency histogram with bounded relative error,
// suitable for high-volume capture on the real-time data path where keeping
// every sample would be wasteful. Buckets grow geometrically from min to max.
type Histogram struct {
	min     float64
	growth  float64
	counts  []uint64
	total   uint64
	underf  uint64
	overf   uint64
	maxSeen float64
}

// NewHistogram returns a histogram covering [min, max] with the given number
// of geometric buckets. Typical latency use: NewHistogram(1e-6, 100, 256)
// for 1 microsecond to 100 seconds with ~7% relative bucket width.
func NewHistogram(min, max float64, buckets int) *Histogram {
	if min <= 0 || max <= min || buckets < 1 {
		panic("metrics: invalid histogram parameters")
	}
	return &Histogram{
		min:    min,
		growth: math.Pow(max/min, 1/float64(buckets)),
		counts: make([]uint64, buckets),
	}
}

func (h *Histogram) bucketOf(v float64) int {
	if v < h.min {
		return -1
	}
	b := int(math.Log(v/h.min) / math.Log(h.growth))
	if b >= len(h.counts) {
		return len(h.counts)
	}
	return b
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.total++
	if v > h.maxSeen {
		h.maxSeen = v
	}
	switch b := h.bucketOf(v); {
	case b < 0:
		h.underf++
	case b >= len(h.counts):
		h.overf++
	default:
		h.counts[b]++
	}
}

// Quantile returns an approximate q-quantile using the geometric midpoint of
// the containing bucket. Underflow samples report as min; overflow as the
// maximum observed value.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64 = h.underf
	if cum >= target {
		return h.min
	}
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			hiEdge := h.min * math.Pow(h.growth, float64(i+1))
			loEdge := h.min * math.Pow(h.growth, float64(i))
			return math.Sqrt(hiEdge * loEdge)
		}
	}
	return h.maxSeen
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
// allocation-over-time and workload-over-time plots (Figs 6, 8, 9).
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends a point. Points are expected in time order.
func (s *Series) Record(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
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
