package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"
)

// All host-clock reads of the benchmark go through these helpers, so the
// //lass:wallclock sanction sits in one place: the benchmark times the
// program from outside and nothing it reads feeds simulated state.

//lass:wallclock the benchmark measures real elapsed time from outside.
func now() time.Time { return time.Now() }

//lass:wallclock the benchmark measures real elapsed time from outside.
func since(t time.Time) time.Duration { return time.Since(t) }

//lass:wallclock open-loop generators and pollers wait on the machine clock.
func sleep(d time.Duration) { time.Sleep(d) }

// stopwatch times fn on the host clock whether or not a tracer is on (the
// end-to-end metrics come from untraced runs) and records a span when one
// is.
func stopwatch(tr *tracer, name string, parent int, op uint64, fn func() error) (time.Duration, error) {
	o := tr.start(name, parent, op)
	start := now()
	err := fn()
	d := since(start)
	o.end()
	return d, err
}

// memDelta is heap allocation and GC CPU between two readings.
type memDelta struct {
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // seconds
	allCPU  float64 // seconds
}

func (a memDelta) sub(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.allCPU - b.allCPU}
}

// readMem reads the runtime's exact allocation counters and its CPU-class
// estimates (the latter advance at GC cycle boundaries).
func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	d := memDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		d.allCPU = samples[1].Value.Float64()
	}
	return d
}

// peakRSSMB returns this process's peak resident set in MiB from
// /proc/self/status (VmHWM), or the Go runtime's view of memory obtained
// from the OS where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				fields := bytes.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(string(fields[0]), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
