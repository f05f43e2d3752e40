package functions

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"lass/internal/xrand"
)

func TestCatalogMatchesTable1(t *testing.T) {
	want := map[string]struct {
		cpu int64
		mem int64
	}{
		"micro-benchmark": {400, 256},
		"mobilenet-v2":    {2000, 1024},
		"shufflenet-v2":   {1000, 512},
		"squeezenet":      {1000, 512},
		"binaryalert":     {500, 256},
		"geofence":        {300, 128},
		"image-resizer":   {800, 256},
	}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d entries want %d", len(cat), len(want))
	}
	for _, s := range cat {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected function %q", s.Name)
			continue
		}
		if s.CPUMillis != w.cpu || s.MemoryMiB != w.mem {
			t.Errorf("%s: size %d mC + %d MiB, want %d + %d (Table 1)",
				s.Name, s.CPUMillis, s.MemoryMiB, w.cpu, w.mem)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("geofence")
	if err != nil {
		t.Fatal(err)
	}
	if s.Language != "JavaScript" {
		t.Errorf("language %q", s.Language)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("want error for unknown function")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good, _ := ByName("geofence")
	cases := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.CPUMillis = 0 },
		func(s *Spec) { s.MemoryMiB = -1 },
		func(s *Spec) { s.MeanServiceTime = 0 },
		func(s *Spec) { s.SCV = -1 },
		func(s *Spec) { s.Slack = 1 },
		func(s *Spec) { s.Slack = -0.1 },
		func(s *Spec) { s.Weight = 0 },
	}
	for i, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestServiceRate(t *testing.T) {
	s := MicroBenchmark(100 * time.Millisecond)
	if r := s.ServiceRate(); math.Abs(r-10) > 1e-9 {
		t.Errorf("rate=%v want 10", r)
	}
	s2 := MicroBenchmark(200 * time.Millisecond)
	if r := s2.ServiceRate(); math.Abs(r-5) > 1e-9 {
		t.Errorf("rate=%v want 5", r)
	}
}

func TestDeflationWithinSlackIsCheap(t *testing.T) {
	// Fig 7: "for 5 of the functions tested, deflating the CPU by 30%
	// only yields a small penalty on service time".
	for _, name := range []string{"binaryalert", "geofence", "image-resizer", "shufflenet-v2", "squeezenet"} {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := s.ServiceTimeMultiplier(0.75) // 25% deflation, within slack for these
		if m > 1.10 {
			t.Errorf("%s: 25%% deflation multiplier %v > 1.10", name, m)
		}
	}
}

func TestDeflationBeyondSlackDegradesProportionally(t *testing.T) {
	s, _ := ByName("squeezenet") // slack 0.25, u = 0.75
	m50 := s.ServiceTimeMultiplier(0.5)
	// Starved region: roughly u/f = 1.5x, plus the small epsilon.
	if m50 < 1.4 || m50 > 1.7 {
		t.Errorf("50%% deflation multiplier %v want ~1.5", m50)
	}
	m30 := s.ServiceTimeMultiplier(0.3)
	if m30 < 2.3 || m30 > 2.8 {
		t.Errorf("70%% deflation multiplier %v want ~2.5", m30)
	}
}

func TestMobileNetDegradesImmediately(t *testing.T) {
	// §6.5: MobileNet runs at ~100% CPU, "almost the worst case for
	// deflation" — 30% deflation costs ~30%+ more inference time.
	s, _ := ByName("mobilenet-v2")
	m := s.ServiceTimeMultiplier(0.7)
	if m < 1.3 {
		t.Errorf("mobilenet 30%% deflation multiplier %v want >= 1.3", m)
	}
	// Other functions at the same deflation are much less affected.
	g, _ := ByName("geofence")
	if gm := g.ServiceTimeMultiplier(0.7); gm >= m {
		t.Errorf("geofence multiplier %v should be below mobilenet %v", gm, m)
	}
}

func TestMultiplierProperties(t *testing.T) {
	f := func(nameIdx uint8, frac uint8) bool {
		cat := Catalog()
		s := cat[int(nameIdx)%len(cat)]
		f1 := 0.05 + 0.95*float64(frac)/255
		f2 := f1 / 2
		m1 := s.ServiceTimeMultiplier(f1)
		m2 := s.ServiceTimeMultiplier(f2)
		// Monotone: less CPU never speeds you up; and never below 1.
		return m2 >= m1-1e-12 && m1 >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestMultiplierEdgeCases(t *testing.T) {
	s, _ := ByName("squeezenet")
	if m := s.ServiceTimeMultiplier(1.0); m != 1 {
		t.Errorf("full size multiplier %v", m)
	}
	if m := s.ServiceTimeMultiplier(1.5); m != 1 {
		t.Errorf("inflated multiplier %v want 1", m)
	}
	if m := s.ServiceTimeMultiplier(0); !math.IsInf(m, 1) {
		t.Errorf("zero CPU multiplier %v want +Inf", m)
	}
	if r := s.RateAt(0); r != 0 {
		t.Errorf("zero CPU rate %v want 0", r)
	}
}

func TestRateAtConsistentWithMultiplier(t *testing.T) {
	s, _ := ByName("binaryalert")
	for _, f := range []float64{0.3, 0.5, 0.7, 1.0} {
		want := s.ServiceRate() / s.ServiceTimeMultiplier(f)
		if got := s.RateAt(f); math.Abs(got-want) > 1e-9 {
			t.Errorf("f=%v: rate %v want %v", f, got, want)
		}
	}
}

func TestSampleServiceTimeMean(t *testing.T) {
	rng := xrand.New(55)
	for _, scv := range []float64{0, 0.25, 1} {
		s := MicroBenchmark(100 * time.Millisecond)
		s.SCV = scv
		var sum time.Duration
		n := 50000
		for i := 0; i < n; i++ {
			sum += s.SampleServiceTime(rng, 1.0)
		}
		mean := sum / time.Duration(n)
		if mean < 95*time.Millisecond || mean > 105*time.Millisecond {
			t.Errorf("scv=%v: sampled mean %v want ~100ms", scv, mean)
		}
	}
}

func TestSampleServiceTimeDeflatedMean(t *testing.T) {
	rng := xrand.New(56)
	s := MicroBenchmark(100 * time.Millisecond) // slack 0.35
	var sum time.Duration
	n := 50000
	for i := 0; i < n; i++ {
		sum += s.SampleServiceTime(rng, 0.4)
	}
	mean := (sum / time.Duration(n)).Seconds()
	want := s.MeanServiceTimeAt(0.4).Seconds()
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("deflated sampled mean %vs want %vs", mean, want)
	}
}

func TestIsDNN(t *testing.T) {
	for _, n := range []string{"mobilenet-v2", "shufflenet-v2", "squeezenet"} {
		if !IsDNN(n) {
			t.Errorf("%s should be DNN", n)
		}
	}
	for _, n := range []string{"geofence", "binaryalert", "micro-benchmark", "image-resizer"} {
		if IsDNN(n) {
			t.Errorf("%s should not be DNN", n)
		}
	}
}
