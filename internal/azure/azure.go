// Package azure handles workloads in the format of the Azure Functions
// Trace 2019 from the Azure Public Dataset, which the paper's §6.7
// experiment samples: per-function invocation counts aggregated per minute
// over a 24-hour day (CSV rows with owner/app/function hashes, a trigger
// column, and 1440 minute columns).
//
// The real dataset is not redistributable here, so the package provides
// both a reader for the genuine CSVs (drop them in and the Fig 9 harness
// will use them) and a statistical synthesizer that produces traces with
// the shapes the paper relies on: steady diurnal load for most functions
// and the "highly sporadic pattern" the MobileNet workload follows (§6.7).
package azure

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"lass/internal/workload"
	"lass/internal/xrand"
)

// MinutesPerDay is the number of per-minute buckets in one trace row.
const MinutesPerDay = 1440

// Row is one function's day of per-minute invocation counts.
type Row struct {
	OwnerHash    string
	AppHash      string
	FunctionHash string
	Trigger      string
	Counts       []float64 // length MinutesPerDay for genuine traces
}

// TotalInvocations returns the sum of the row's counts.
func (r Row) TotalInvocations() float64 {
	var s float64
	for _, c := range r.Counts {
		s += c
	}
	return s
}

// Window returns the counts for minutes [from, to), clamped to the row.
// The paper samples 11:00-12:00 (minutes 660-720) for the Fig 9 hour.
func (r Row) Window(from, to int) []float64 {
	if from < 0 {
		from = 0
	}
	if to > len(r.Counts) {
		to = len(r.Counts)
	}
	if from >= to {
		return nil
	}
	return r.Counts[from:to]
}

// Schedule converts a count window into an arrival-rate schedule
// ("discrete change mode that adjusts the arrival rate each minute", §6.1).
func Schedule(counts []float64) (*workload.Schedule, error) {
	return workload.FromPerMinuteCounts(counts)
}

// Read parses trace rows from CSV in the Azure schema:
// HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440. A header row is
// detected and skipped. Rows may have fewer minute columns (partial days).
func Read(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var rows []Row
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("azure: csv parse: %w", err)
		}
		line++
		if len(rec) < 5 {
			return nil, fmt.Errorf("azure: line %d: want >=5 columns, got %d", line, len(rec))
		}
		if line == 1 && looksLikeHeader(rec) {
			continue
		}
		row := Row{
			OwnerHash:    rec[0],
			AppHash:      rec[1],
			FunctionHash: rec[2],
			Trigger:      rec[3],
			Counts:       make([]float64, 0, len(rec)-4),
		}
		for i, f := range rec[4:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("azure: line %d minute %d: %w", line, i+1, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("azure: line %d minute %d: negative count %v", line, i+1, v)
			}
			row.Counts = append(row.Counts, v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func looksLikeHeader(rec []string) bool {
	// The genuine dataset header is detectable by its field names (its
	// minute columns are the numerals "1".."1440", so numeric sniffing of
	// column 5 would misfire).
	return rec[0] == "HashOwner" || rec[3] == "Trigger"
}

// Write emits rows in the Azure CSV schema, with a header.
func Write(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if len(rows) == 0 {
		return fmt.Errorf("azure: no rows to write")
	}
	n := len(rows[0].Counts)
	header := []string{"HashOwner", "HashApp", "HashFunction", "Trigger"}
	for i := 1; i <= n; i++ {
		header = append(header, strconv.Itoa(i))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.OwnerHash, r.AppHash, r.FunctionHash, r.Trigger}
		for _, c := range r.Counts {
			rec = append(rec, strconv.FormatFloat(c, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Archetype names a statistical shape for synthesized traces. The Azure
// characterization paper (Shahrad et al., referenced as the trace's source)
// reports orders-of-magnitude rate variability across functions, a large
// population of rarely-invoked functions, and diurnal cycles in the
// aggregate — the archetypes cover the shapes §6.7 relies on.
type Archetype int

const (
	// Steady is diurnal load: a day-long sinusoid plus Poisson noise.
	Steady Archetype = iota
	// Periodic is timer-triggered load: spikes at a fixed interval over a
	// low base.
	Periodic
	// Bursty is on/off load: alternating busy and quiet intervals with
	// geometric dwell times.
	Bursty
	// Sporadic is mostly-idle load with rare intense bursts — the "highly
	// sporadic pattern" of the paper's MobileNet workload (§6.7).
	Sporadic
)

// String returns the archetype name.
func (a Archetype) String() string {
	switch a {
	case Steady:
		return "steady"
	case Periodic:
		return "periodic"
	case Bursty:
		return "bursty"
	case Sporadic:
		return "sporadic"
	}
	return fmt.Sprintf("archetype(%d)", int(a))
}

// SynthConfig configures trace synthesis.
type SynthConfig struct {
	Archetype Archetype
	// MeanPerMinute is the target long-run mean invocations per minute.
	MeanPerMinute float64
	// Minutes is the trace length (default MinutesPerDay).
	Minutes int
}

// Synthesize produces one trace row with the archetype's shape. The row's
// long-run mean is approximately MeanPerMinute (exactly in expectation).
func Synthesize(rng *xrand.Rand, cfg SynthConfig) (Row, error) {
	if cfg.MeanPerMinute < 0 {
		return Row{}, fmt.Errorf("azure: negative mean %v", cfg.MeanPerMinute)
	}
	n := cfg.Minutes
	if n == 0 {
		n = MinutesPerDay
	}
	if n < 0 {
		return Row{}, fmt.Errorf("azure: negative minutes %d", cfg.Minutes)
	}
	counts := make([]float64, n)
	switch cfg.Archetype {
	case Steady:
		for i := range counts {
			phase := 2 * math.Pi * float64(i) / float64(MinutesPerDay)
			mean := cfg.MeanPerMinute * (1 + 0.4*math.Sin(phase))
			counts[i] = float64(rng.Poisson(mean))
		}
	case Periodic:
		period := 15 // minutes between timer firings
		base := cfg.MeanPerMinute * 0.2
		spike := (cfg.MeanPerMinute - base) * float64(period)
		for i := range counts {
			mean := base
			if i%period == 0 {
				mean += spike
			}
			counts[i] = float64(rng.Poisson(mean))
		}
	case Bursty:
		// Two-state modulated Poisson process: busy at 3x mean, quiet at
		// 0.1x. Busy dwell ~10 min, quiet dwell ~22 min, so the stationary
		// busy fraction is (1/22)/(1/22+1/10) ≈ 0.3125 and the long-run
		// mean is 0.3125·3m + 0.6875·0.1m ≈ m.
		busyRate := 3 * cfg.MeanPerMinute
		quietRate := 0.1 * cfg.MeanPerMinute
		busy := rng.Float64() < 0.3125
		for i := range counts {
			if busy {
				counts[i] = float64(rng.Poisson(busyRate))
				if rng.Float64() < 1.0/10 {
					busy = false
				}
			} else {
				counts[i] = float64(rng.Poisson(quietRate))
				if rng.Float64() < 1.0/22 {
					busy = true
				}
			}
		}
	case Sporadic:
		// Rare intense bursts: ~3% of minutes busy at ~33x the mean;
		// otherwise silent.
		burstRate := cfg.MeanPerMinute / 0.03
		inBurst := false
		for i := range counts {
			if inBurst {
				counts[i] = float64(rng.Poisson(burstRate))
				if rng.Float64() < 1.0/5 { // bursts last ~5 minutes
					inBurst = false
				}
			} else if rng.Float64() < 0.03/5 {
				inBurst = true
				counts[i] = float64(rng.Poisson(burstRate))
			}
		}
	default:
		return Row{}, fmt.Errorf("azure: unknown archetype %v", cfg.Archetype)
	}
	return Row{
		OwnerHash:    fmt.Sprintf("owner-%08x", rng.Uint64()&0xffffffff),
		AppHash:      fmt.Sprintf("app-%08x", rng.Uint64()&0xffffffff),
		FunctionHash: fmt.Sprintf("func-%s-%08x", cfg.Archetype, rng.Uint64()&0xffffffff),
		Trigger:      triggerFor(cfg.Archetype),
		Counts:       counts,
	}, nil
}

func triggerFor(a Archetype) string {
	switch a {
	case Periodic:
		return "timer"
	case Sporadic:
		return "event"
	default:
		return "http"
	}
}

// FindActiveWindow returns the start minute of the length-window slice of
// counts with the largest total — how the Fig 9 harness picks an hour that
// actually contains the sporadic function's bursts, mirroring the paper's
// choice of the 11:00-12:00 sample from the full-day trace (§6.7).
func FindActiveWindow(counts []float64, window int) int {
	if window <= 0 || window >= len(counts) {
		return 0
	}
	var sum float64
	for _, c := range counts[:window] {
		sum += c
	}
	best, bestAt := sum, 0
	for i := window; i < len(counts); i++ {
		sum += counts[i] - counts[i-window]
		if sum > best {
			best, bestAt = sum, i-window+1
		}
	}
	return bestAt
}

// Stats summarizes a count vector, used to verify synthesized shapes.
type Stats struct {
	Mean       float64
	Max        float64
	NonZero    int     // minutes with any invocation
	CV         float64 // coefficient of variation
	P99        float64
	BusyShare  float64 // fraction of invocations in the busiest 5% of minutes
	TotalCount float64
}

// Summarize computes Stats for a count vector.
func Summarize(counts []float64) Stats {
	if len(counts) == 0 {
		return Stats{}
	}
	var st Stats
	for _, c := range counts {
		st.TotalCount += c
		if c > st.Max {
			st.Max = c
		}
		if c > 0 {
			st.NonZero++
		}
	}
	st.Mean = st.TotalCount / float64(len(counts))
	var ss float64
	for _, c := range counts {
		d := c - st.Mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(counts)))
	if st.Mean > 0 {
		st.CV = sd / st.Mean
	}
	sorted := append([]float64(nil), counts...)
	sort.Float64s(sorted)
	st.P99 = sorted[int(0.99*float64(len(sorted)-1))]
	top := len(sorted) / 20
	if top < 1 {
		top = 1
	}
	var topSum float64
	for _, c := range sorted[len(sorted)-top:] {
		topSum += c
	}
	if st.TotalCount > 0 {
		st.BusyShare = topSum / st.TotalCount
	}
	return st
}
