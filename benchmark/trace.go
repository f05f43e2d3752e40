package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"lass/internal/metrics"
)

// span is one timed interval at a layer boundary. Spans of one request,
// epoch or invocation share Op; Parent is the ID of the span that caused
// this one (0 = none).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxStoredSpans caps the spans kept for the trace file. A fed_full run
// makes millions of placement calls; every one of them is counted and timed
// in the per-name statistics, but only the first maxStoredSpans are written
// out (the file records how many were dropped).
const maxStoredSpans = 200_000

// spanStats aggregates every span of one name, stored or not.
type spanStats struct {
	name  string
	count uint64
	total time.Duration
	// hist holds durations in nanoseconds: log buckets from 10 ns to 100 s
	// keep percentile error under 2% without keeping every sample.
	hist *metrics.Histogram
}

func (s *spanStats) quantileNs(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	return s.hist.Quantile(q)
}

// tracer records spans in memory; nothing is written until the run ends. A
// nil *tracer is the untraced run: start and end are no-ops on it, so
// workload code calls them unconditionally.
//
// A tracer is used from one goroutine: the simulator and control workloads
// are single-threaded, and the wall-clock workloads turn their recorded call
// timelines into spans after the run. A placement span therefore costs two
// clock reads and a histogram insert, no lock.
type tracer struct {
	origin time.Time
	spans  []span
	nextID int
	stats  map[string]*spanStats
}

//lass:wallclock spans time the program from outside on the machine clock.
func newTracer() *tracer {
	return &tracer{origin: time.Now(), stats: make(map[string]*spanStats)}
}

// series returns the aggregate for one span name, creating it on first use
// (nil on the nil tracer). Hot paths resolve their series once and start
// spans with startIn.
func (t *tracer) series(name string) *spanStats {
	if t == nil {
		return nil
	}
	st := t.stats[name]
	if st == nil {
		st = &spanStats{name: name, hist: metrics.NewHistogram(10, 1e11, 1200)}
		t.stats[name] = st
	}
	return st
}

// open is a started span: a value, so the hot placement path allocates
// nothing per call.
type open struct {
	t      *tracer
	st     *spanStats
	id     int // children name this as their parent
	parent int
	op     uint64
	start  time.Duration
}

func (t *tracer) start(name string, parent int, op uint64) open {
	return t.startIn(t.series(name), parent, op)
}

//lass:wallclock spans time the program from outside on the machine clock.
func (t *tracer) startIn(st *spanStats, parent int, op uint64) open {
	if t == nil {
		return open{}
	}
	t.nextID++
	return open{t: t, st: st, id: t.nextID, parent: parent, op: op, start: time.Since(t.origin)}
}

// end closes the span.
//
//lass:wallclock spans time the program from outside on the machine clock.
func (o open) end() {
	if o.t != nil {
		o.endAt(time.Since(o.t.origin))
	}
}

func (o open) endAt(end time.Duration) {
	t, d := o.t, end-o.start
	o.st.count++
	o.st.total += d
	o.st.hist.Add(float64(d))
	if len(t.spans) < maxStoredSpans {
		t.spans = append(t.spans, span{Name: o.st.name, ID: o.id, Parent: o.parent, Op: o.op,
			Start: int64(o.start), End: int64(end)})
	}
}

// add records a span whose interval was measured elsewhere (offsets from
// the caller's own origin) and returns its ID.
func (t *tracer) add(st *spanStats, parent int, op uint64, start, end time.Duration) int {
	t.nextID++
	open{t: t, st: st, id: t.nextID, parent: parent, op: op, start: start}.endAt(end)
	return t.nextID
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its direct children. Children of a concurrent
// parent may overlap one another, so their intervals are merged before
// subtracting.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Dropped  uint64             `json:"dropped_spans"`
	SelfNs   map[string]int64   `json:"self_ns_by_name"`
	Layers   map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

// write dumps the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64, layers map[string]float64) error {
	var recorded uint64
	for _, st := range t.stats {
		recorded += st.count
	}
	selfByName := make(map[string]int64)
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		selfByName[s.Name] += self[s.ID]
	}
	out := traceFile{Workload: workload, Seed: seed, Dropped: recorded - uint64(len(t.spans)),
		SelfNs: selfByName, Layers: layers, Spans: t.spans}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
