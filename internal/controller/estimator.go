// Package controller implements the LaSS control plane (paper §3-§5): the
// arrival-rate estimators, the epoch-driven model-based container
// allocation algorithm, weighted fair-share adjustment under overload, and
// the termination/deflation resource-reclamation policies.
//
// What the paper fixes is a constant here, not configuration: the P95 ≤
// 100 ms waiting-time SLO (§6.1, DefaultSLO), τ = 30% deflation in 5%
// steps (§4.2), capped water-filling (§4.1), the rate EWMA's weight and
// the 60 s lazy-drain TTL. Config holds only what callers set to
// different values.
package controller

import (
	"fmt"
	"time"
)

// DualWindowConfig configures the burst-detecting rate estimator of §5:
// "monitoring two sliding windows every 5 seconds: a 2-minute long window
// and a 10-second short window ... if the arrival rate in the short window
// is twice as high as the arrival rate in the long window, LaSS switches to
// calculating the arrival rate based on the short window."
type DualWindowConfig struct {
	Short       time.Duration // default 10s
	Long        time.Duration // default 2min
	BurstFactor float64       // default 2.0
}

// DefaultDualWindow returns the paper's window configuration.
func DefaultDualWindow() DualWindowConfig {
	return DualWindowConfig{Short: 10 * time.Second, Long: 2 * time.Minute, BurstFactor: 2}
}

// DualWindow estimates a function's arrival rate from per-second arrival
// counts kept in a ring buffer covering the long window. Only complete
// seconds are counted: including the currently-filling bucket would dilute
// the rate by a partial interval.
//
// Known off-by-one, kept on purpose: the ring holds Long/1s buckets
// including the one still filling, so once the run is older than the long
// window Rate divides Long/1s − 1 complete seconds of counts by Long/1s
// (with the default windows a steady 1/s stream reads 119/120 ≈ 0.99167).
// Fixing it moves every simulated number, so it is left for a change that
// re-pins them.
type DualWindow struct {
	cfg       DualWindowConfig
	buckets   []float64
	shortSecs int
	head      int64 // absolute second index of buckets[headPos]
	headPos   int
	started   bool
	first     int64 // absolute second of the first recorded/observed instant
	// shortSum and longSum are running totals of the shortSecs and
	// len(buckets)-1 most recent complete seconds. The buckets hold integer
	// counts, so adding a second as it completes and subtracting it as it
	// leaves is exact in float64 and equals re-summing the window.
	shortSum, longSum float64
}

// NewDualWindow builds the estimator. Both windows must be whole seconds:
// the buckets are one second wide.
func NewDualWindow(cfg DualWindowConfig) (*DualWindow, error) {
	if cfg.Short <= 0 || cfg.Long <= 0 || cfg.Short >= cfg.Long {
		return nil, fmt.Errorf("controller: invalid windows short=%v long=%v", cfg.Short, cfg.Long)
	}
	if cfg.Short%time.Second != 0 {
		return nil, fmt.Errorf("controller: Short window %v is not a whole number of seconds", cfg.Short)
	}
	if cfg.Long%time.Second != 0 {
		return nil, fmt.Errorf("controller: Long window %v is not a whole number of seconds", cfg.Long)
	}
	if cfg.BurstFactor <= 1 {
		return nil, fmt.Errorf("controller: burst factor %v must exceed 1", cfg.BurstFactor)
	}
	return &DualWindow{cfg: cfg, buckets: make([]float64, cfg.Long/time.Second), shortSecs: int(cfg.Short / time.Second)}, nil
}

func secOf(t time.Duration) int64 { return int64(t / time.Second) }

// advance rolls the ring forward to the bucket containing now, zeroing
// skipped seconds and moving each one through the running sums as it
// completes and as it leaves each window.
func (d *DualWindow) advance(now time.Duration) {
	sec := secOf(now)
	if !d.started {
		d.started = true
		d.first = sec
		d.head = sec
		return
	}
	// Wrap by compare, not %: n is not a constant, and this loop runs once
	// per simulated second per function.
	n := len(d.buckets)
	for d.head < sec {
		done := d.buckets[d.headPos]
		d.head++
		if d.headPos++; d.headPos == n {
			d.headPos = 0
		}
		leaving := d.headPos - d.shortSecs - 1 // ≥ −n, as shortSecs < n
		if leaving < 0 {
			leaving += n
		}
		d.shortSum += done - d.buckets[leaving]
		d.longSum += done - d.buckets[d.headPos]
		d.buckets[d.headPos] = 0
	}
}

// RecordArrival counts one arrival at time now. Calls must be monotone in
// now (simulation order guarantees this).
func (d *DualWindow) RecordArrival(now time.Duration) {
	d.advance(now)
	d.buckets[d.headPos]++
}

// Rate returns the estimated arrival rate (req/s) at time now and whether
// the short window detected a burst. Early in a run, windows are scaled to
// the observed duration so the estimate is not diluted by empty history.
func (d *DualWindow) Rate(now time.Duration) (rate float64, burst bool) {
	d.advance(now)
	completed := d.head - d.first // whole seconds observed before the current one
	if completed < 1 {
		// Sub-second history: the current bucket is all there is.
		return d.buckets[d.headPos], false
	}
	// Seconds before the first are empty buckets, so the running sums are
	// already the sums over the observed seconds.
	shortRate := d.shortSum / float64(min(int64(d.shortSecs), completed))
	longRate := d.longSum / float64(min(int64(len(d.buckets)), completed))
	if longRate > 0 && shortRate >= d.cfg.BurstFactor*longRate {
		return shortRate, true
	}
	return longRate, false
}

// EWMA smooths a per-epoch rate series (§3.3: "subjected to an
// exponentially weighted moving average with a high weight given to the
// most recent epoch").
type EWMA struct {
	alpha   float64
	value   float64
	started bool
}

// NewEWMA builds a smoother; alpha in (0,1], higher = more weight on the
// newest observation.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("controller: EWMA alpha %v out of (0,1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Update folds in a new observation and returns the smoothed value.
func (e *EWMA) Update(v float64) float64 {
	if !e.started {
		e.started = true
		e.value = v
		return v
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
	return e.value
}

// Reset clears the smoother to its initial state.
func (e *EWMA) Reset() { e.started = false; e.value = 0 }
