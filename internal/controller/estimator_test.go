package controller

import (
	"math"
	"strings"
	"testing"
	"time"

	"lass/internal/xrand"
)

func TestDualWindowValidation(t *testing.T) {
	if _, err := NewDualWindow(DualWindowConfig{Short: 0, Long: time.Minute, BurstFactor: 2}); err == nil {
		t.Error("want error for zero short window")
	}
	if _, err := NewDualWindow(DualWindowConfig{Short: time.Minute, Long: time.Minute, BurstFactor: 2}); err == nil {
		t.Error("want error for short >= long")
	}
	if _, err := NewDualWindow(DualWindowConfig{Short: time.Second, Long: time.Minute, BurstFactor: 1}); err == nil {
		t.Error("want error for burst factor <= 1")
	}
	// One-second buckets: a sub-second short window would divide 0 by 0
	// and silently switch burst detection off.
	for _, c := range []struct {
		cfg   DualWindowConfig
		field string
	}{
		{DualWindowConfig{Short: 500 * time.Millisecond, Long: time.Minute, BurstFactor: 2}, "Short"},
		{DualWindowConfig{Short: 2500 * time.Millisecond, Long: time.Minute, BurstFactor: 2}, "Short"},
		{DualWindowConfig{Short: 2 * time.Second, Long: 10500 * time.Millisecond, BurstFactor: 2}, "Long"},
	} {
		_, err := NewDualWindow(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: err=%v, want one naming %s", c.cfg, err, c.field)
		}
	}
}

// sumCompleted is the loop form of the running sums: the n most recent
// complete seconds of counts, re-summed from the ring.
func (d *DualWindow) sumCompleted(n int) float64 {
	if n > len(d.buckets)-1 {
		n = len(d.buckets) - 1
	}
	var s float64
	pos := d.headPos - 1
	if pos < 0 {
		pos = len(d.buckets) - 1
	}
	for i := 0; i < n; i++ {
		s += d.buckets[pos]
		pos--
		if pos < 0 {
			pos = len(d.buckets) - 1
		}
	}
	return s
}

// loopRate is Rate recomputed from the ring with sumCompleted.
func (d *DualWindow) loopRate(now time.Duration) (float64, bool) {
	d.advance(now)
	completed := d.head - d.first
	if completed < 1 {
		return d.buckets[d.headPos], false
	}
	effShort := min(int(d.cfg.Short/time.Second), int(completed))
	effLong := min(int(d.cfg.Long/time.Second), int(completed))
	shortRate := d.sumCompleted(effShort) / float64(effShort)
	longRate := d.sumCompleted(effLong) / float64(effLong)
	if longRate > 0 && shortRate >= d.cfg.BurstFactor*longRate {
		return shortRate, true
	}
	return longRate, false
}

// driveDualWindow interprets prog as one op per byte — low two bits pick the
// op, the high six its argument — starting at start: a burst of arg+1
// arrivals at the current instant, a step of arg×20 ms, a step of
// arg×250 ms, or a gap of (arg+1)/32 of the long window (past it from
// arg 32 on). After every op Rate must equal the loop oracle bit for bit.
func driveDualWindow(t testing.TB, cfg DualWindowConfig, start time.Duration, prog []byte) {
	t.Helper()
	if len(prog) > 4096 {
		prog = prog[:4096]
	}
	d, err := NewDualWindow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := start
	for step, b := range prog {
		arg := time.Duration(b >> 2)
		switch b & 3 {
		case 0:
			for i := time.Duration(0); i <= arg; i++ {
				d.RecordArrival(now)
			}
		case 1:
			now += arg * 20 * time.Millisecond
		case 2:
			now += arg * 250 * time.Millisecond
		case 3:
			now += (arg + 1) * cfg.Long / 32
		}
		wantRate, wantBurst := d.loopRate(now)
		rate, burst := d.Rate(now)
		if math.Float64bits(rate) != math.Float64bits(wantRate) || burst != wantBurst {
			t.Fatalf("%+v start=%v step %d (op %#02x) at %v: Rate=(%v, %v), loop=(%v, %v)",
				cfg, start, step, b, now, rate, burst, wantRate, wantBurst)
		}
	}
}

// TestDualWindowRunningSumsMatchLoop runs seeded programs — mostly arrivals
// and short steps, with bursts and gaps longer than the long window mixed
// in — over window shapes from 1 s/2 s to the paper's 10 s/2 min, each from
// a sub-second and a whole-second start, so the early period where fewer
// seconds have completed than either window holds is covered too.
func TestDualWindowRunningSumsMatchLoop(t *testing.T) {
	shapes := [][2]time.Duration{{1, 2}, {2, 10}, {5, 60}, {10, 120}, {119, 120}}
	for i, sh := range shapes {
		cfg := DualWindowConfig{Short: sh[0] * time.Second, Long: sh[1] * time.Second, BurstFactor: 2}
		for _, start := range []time.Duration{0, 300 * time.Millisecond, 7*time.Second + 999*time.Millisecond} {
			rng := xrand.New(uint64(i) + 1)
			prog := make([]byte, 4096)
			for j := range prog {
				op := 0
				switch r := rng.Intn(100); {
				case r >= 97:
					op = 3
				case r >= 85:
					op = 2
				case r >= 50:
					op = 1
				}
				prog[j] = byte(rng.Intn(64))<<2 | byte(op)
			}
			driveDualWindow(t, cfg, start, prog)
		}
	}
}

// FuzzDualWindow is the same differential check over fuzzer-chosen window
// shapes, start instants and programs; testdata/fuzz/FuzzDualWindow holds
// the seed corpus.
func FuzzDualWindow(f *testing.F) {
	f.Add(uint8(9), uint8(109), uint16(300), []byte{0x00, 0x15, 0x00, 0x15, 0x12, 0xfc, 0x12, 0xff, 0x00, 0x12})
	f.Fuzz(func(t *testing.T, short, long uint8, startMs uint16, prog []byte) {
		cfg := DualWindowConfig{Short: time.Duration(1+short%20) * time.Second, BurstFactor: 2}
		cfg.Long = cfg.Short + time.Duration(1+long%140)*time.Second
		driveDualWindow(t, cfg, time.Duration(startMs)*time.Millisecond, prog)
	})
}

// TestDualWindowLongWindowOffByOne pins the documented off-by-one: past the
// long window, Rate divides Long/1s − 1 complete seconds by Long/1s.
func TestDualWindowLongWindowOffByOne(t *testing.T) {
	d, _ := NewDualWindow(DefaultDualWindow())
	for s := 0; s < 300; s++ {
		d.RecordArrival(time.Duration(s) * time.Second)
	}
	if rate, burst := d.Rate(300 * time.Second); rate != 119.0/120 || burst {
		t.Errorf("steady 1/s reads (%v, %v), want (119/120, false)", rate, burst)
	}
}

func TestDualWindowSteadyRate(t *testing.T) {
	d, err := NewDualWindow(DefaultDualWindow())
	if err != nil {
		t.Fatal(err)
	}
	// 20 req/s for 3 minutes (deterministic spacing).
	for ms := 0; ms < 180_000; ms += 50 {
		d.RecordArrival(time.Duration(ms) * time.Millisecond)
	}
	rate, burst := d.Rate(180 * time.Second)
	if burst {
		t.Error("steady load flagged as burst")
	}
	if math.Abs(rate-20) > 1 {
		t.Errorf("rate=%v want ~20", rate)
	}
}

func TestDualWindowBurstDetection(t *testing.T) {
	d, _ := NewDualWindow(DefaultDualWindow())
	// 5 req/s for 2 minutes, then 25 req/s for 10 seconds.
	for ms := 0; ms < 120_000; ms += 200 {
		d.RecordArrival(time.Duration(ms) * time.Millisecond)
	}
	for ms := 120_000; ms < 130_000; ms += 40 {
		d.RecordArrival(time.Duration(ms) * time.Millisecond)
	}
	rate, burst := d.Rate(130 * time.Second)
	if !burst {
		t.Fatal("5x rate jump not detected as burst")
	}
	if math.Abs(rate-25) > 3 {
		t.Errorf("burst rate=%v want ~25 (short window)", rate)
	}
}

func TestDualWindowNoBurstUsesLongWindow(t *testing.T) {
	d, _ := NewDualWindow(DefaultDualWindow())
	// 10 req/s for 110s then 15 req/s for 10s: 1.5x is below the 2x
	// burst factor, so the long window should dominate.
	for ms := 0; ms < 110_000; ms += 100 {
		d.RecordArrival(time.Duration(ms) * time.Millisecond)
	}
	for ms := 110_000; ms < 120_000; ms += 67 {
		d.RecordArrival(time.Duration(ms) * time.Millisecond)
	}
	rate, burst := d.Rate(120 * time.Second)
	if burst {
		t.Error("1.5x jump should not trip the 2x burst factor")
	}
	if rate > 12 {
		t.Errorf("rate=%v should be near the long-window average ~10.4", rate)
	}
}

func TestDualWindowEarlyRunScaling(t *testing.T) {
	// 3 seconds into a run, a 10 req/s stream must estimate ~10, not be
	// diluted by 117 seconds of empty history.
	d, _ := NewDualWindow(DefaultDualWindow())
	for ms := 0; ms < 3000; ms += 100 {
		d.RecordArrival(time.Duration(ms) * time.Millisecond)
	}
	rate, _ := d.Rate(3 * time.Second)
	if math.Abs(rate-10) > 2 {
		t.Errorf("early rate=%v want ~10", rate)
	}
}

func TestDualWindowIdleDecaysToZero(t *testing.T) {
	d, _ := NewDualWindow(DefaultDualWindow())
	for ms := 0; ms < 10_000; ms += 10 {
		d.RecordArrival(time.Duration(ms) * time.Millisecond)
	}
	// 5 minutes of silence: every bucket has rolled over.
	rate, burst := d.Rate(310 * time.Second)
	if rate != 0 || burst {
		t.Errorf("rate=%v burst=%v after long idle", rate, burst)
	}
}

func TestDualWindowRateDropsAfterLoadEnds(t *testing.T) {
	d, _ := NewDualWindow(DefaultDualWindow())
	for ms := 0; ms < 120_000; ms += 50 {
		d.RecordArrival(time.Duration(ms) * time.Millisecond)
	}
	rate1, _ := d.Rate(120 * time.Second)
	rate2, _ := d.Rate(180 * time.Second) // 60s of silence
	if rate2 >= rate1 {
		t.Errorf("rate did not decay: %v -> %v", rate1, rate2)
	}
}

func TestEWMA(t *testing.T) {
	if _, err := NewEWMA(0); err == nil {
		t.Error("want error for alpha 0")
	}
	if _, err := NewEWMA(1.1); err == nil {
		t.Error("want error for alpha > 1")
	}
	e, err := NewEWMA(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if v := e.Update(10); v != 10 {
		t.Errorf("first update=%v want 10 (no history)", v)
	}
	if v := e.Update(20); v != 15 {
		t.Errorf("second update=%v want 15", v)
	}
	if e.Value() != 15 {
		t.Errorf("value=%v", e.Value())
	}
	e.Reset()
	if v := e.Update(100); v != 100 {
		t.Errorf("after reset update=%v want 100", v)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e, _ := NewEWMA(0.3)
	for i := 0; i < 50; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Errorf("value=%v", e.Value())
	}
}
