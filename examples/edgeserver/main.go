// Edge server in real time: the same LaSS controller that drives the
// simulations autoscaling real pools of concurrency slots, in which callers
// run their handlers, against the wall clock. The example registers an
// image-classification-like handler, pushes a two-phase load through it
// (quiet, then a burst), and prints how the pool and the tail latency
// respond. Everything runs in-process; no network is involved (see
// cmd/lass-server for the HTTP front end).
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"lass"

	"lass/internal/cluster"
	"lass/internal/controller"
)

//lass:wallclock interactive demo of the real-time platform.
func main() {
	platform, err := lass.NewRealtime(lass.RealtimeConfig{
		Cluster: cluster.Config{Nodes: 3, CPUPerNode: 4000, MemPerNode: 16384, Policy: cluster.WorstFit},
		Controller: controller.Config{
			// Faster epochs than the paper's 5s so the demo reacts within
			// seconds of wall-clock time.
			EvalInterval:  500 * time.Millisecond,
			Windows:       controller.DualWindowConfig{Short: 2 * time.Second, Long: 20 * time.Second, BurstFactor: 2},
			MinContainers: 1,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Stop()

	// A "classifier": 20 ms of emulated inference per call, stretched if
	// its container has been CPU-deflated.
	spec := lass.MicroBenchmark(20 * time.Millisecond)
	spec.ColdStart = 100 * time.Millisecond
	classify := func(ctx context.Context, payload []byte) ([]byte, error) {
		work := time.Duration(float64(20*time.Millisecond) * spec.ServiceTimeMultiplier(lass.HandlerCPUFraction(ctx)))
		select {
		case <-time.After(work):
			return []byte("label:cat"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	slo := lass.SLO{Deadline: 50 * time.Millisecond, Percentile: 0.95, WaitingOnly: true}
	if err := platform.Register(spec, classify, slo); err != nil {
		log.Fatal(err)
	}
	if err := platform.Provision(spec.Name, 1); err != nil {
		log.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the first container warm up

	var wg sync.WaitGroup
	invoke := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := platform.Invoke(ctx, spec.Name, nil); err != nil {
				log.Printf("invoke: %v", err)
			}
		}()
	}

	report := func(phase string) {
		st, err := platform.Stats(spec.Name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s rate-estimate %5.1f req/s  desired %d  pool %d  P95 wait %6.1f ms  SLO %.3f\n",
			phase, st.LambdaHat, st.Desired, st.Containers,
			float64(st.P95Wait)/float64(time.Millisecond), st.Attainment)
	}

	// Phase 1: quiet — 10 req/s for 4 seconds.
	for i := 0; i < 40; i++ {
		invoke()
		time.Sleep(100 * time.Millisecond)
	}
	report("quiet")

	// Phase 2: burst — ~70 req/s for 6 seconds. One 20 ms-per-call worker
	// saturates at 50 req/s; the controller must grow the pool within a
	// couple of epochs.
	deadline := time.Now().Add(6 * time.Second)
	for time.Now().Before(deadline) {
		invoke()
		time.Sleep(14 * time.Millisecond)
	}
	report("burst")

	// Phase 3: quiet again; the pool drains back down.
	time.Sleep(time.Second)
	for i := 0; i < 40; i++ {
		invoke()
		time.Sleep(100 * time.Millisecond)
	}
	time.Sleep(2 * time.Second)
	report("cooldown")

	wg.Wait()
	fmt.Printf("cluster utilization now: %.1f%%\n", platform.Utilization())
}
