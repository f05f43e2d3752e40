package metrics

import (
	"math"
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

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram(1e-6, 100, 512)
	rng := xrand.New(21)
	exact := NewReservoir()
	for i := 0; i < 100000; i++ {
		v := rng.Exp(10) // mean 0.1s
		h.Add(v)
		exact.Add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		hq := h.Quantile(q)
		eq := exact.Quantile(q)
		if math.Abs(hq-eq)/eq > 0.05 {
			t.Errorf("q=%v: hist=%v exact=%v", q, hq, eq)
		}
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(0.001, 1, 16)
	h.Add(0.0001) // underflow
	h.Add(100)    // overflow
	if h.total != 2 {
		t.Errorf("count=%d", h.total)
	}
	if q := h.Quantile(0.01); q != 0.001 {
		t.Errorf("underflow quantile=%v want min", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Errorf("overflow quantile=%v want max seen", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0.001, 1, 16)
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramInvalidParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewHistogram(0, 1, 16)
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
	if s.Last() != 0 || s.ValueAt(time.Second) != 0 || s.Max() != 0 {
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
