package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	a2 := New(42)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestForkDecorrelates(t *testing.T) {
	parent := New(7)
	child := parent.Fork()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("fork produced %d collisions", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := New(2)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Uniform(2, 4)
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.01 {
		t.Errorf("uniform(2,4) mean %v", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(3)
	for _, rate := range []float64{0.5, 1, 10} {
		sum := 0.0
		n := 200000
		for i := 0; i < n; i++ {
			sum += r.Exp(rate)
		}
		mean := sum / float64(n)
		if math.Abs(mean-1/rate) > 0.02/rate {
			t.Errorf("exp(%v) mean %v want %v", rate, mean, 1/rate)
		}
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormMoments(t *testing.T) {
	r := New(4)
	n := 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.Norm(5, 2)
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	variance := ss/float64(n) - mean*mean
	if math.Abs(mean-5) > 0.02 {
		t.Errorf("norm mean %v", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.03 {
		t.Errorf("norm stddev %v", math.Sqrt(variance))
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := New(5)
	n := 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(1, 0.5)
	}
	// Median of lognormal is exp(mu); test via counting below exp(1).
	below := 0
	for _, v := range vals {
		if v < math.E {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below median %v", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(6)
	for _, mean := range []float64{0.5, 3, 12, 80, 400} {
		sum := 0
		n := 50000
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > 0.03*mean+0.05 {
			t.Errorf("poisson(%v) mean %v", mean, got)
		}
	}
	if v := r.Poisson(0); v != 0 {
		t.Errorf("poisson(0) = %d", v)
	}
	if v := r.Poisson(-1); v != 0 {
		t.Errorf("poisson(-1) = %d", v)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d count %d not ~10000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(8)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
