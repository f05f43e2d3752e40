// Command lass-sim runs an ad-hoc LaSS simulation from flags: one or more
// catalog functions under static or trace-driven Poisson load on a
// configurable cluster, printing per-function latency and allocation
// summaries.
//
// Usage:
//
//	lass-sim -functions squeezenet:40,geofence:120 -duration 10m
//	lass-sim -functions mobilenet-v2:20 -policy termination -nodes 3
//	lass-sim -functions binaryalert:80 -trace traces.csv   # Azure CSV rates
//	lass-sim -federation -out federation.csv               # offload sweep
//	lass-sim -federation -fed-trace -topology star         # trace-driven, star topology
//	lass-sim -federation -global-fairshare -admission      # federation-wide §4.1 allocator
//	lass-sim -federation -global-fairshare -coordinator centroid  # RTT-centroid coordinator
//	lass-sim -federation -fed-fairshare                    # local-vs-global allocation sweep
//	lass-sim -federation -fed-placers                      # every registered placement policy
//	lass-sim -federation -fed-coordinator                  # coordinator election/outage/lease sweep
//	lass-sim -federation -fed-chaos -chaos-replicates 8    # election x lease across seeded failures
//	lass-sim -federation -fed-hierarchy                    # flat vs borrow vs borrow+reclaim quota trees
//	lass-sim -federation -scenario scenarios/metro-flaps.yaml  # one declarative scenario file
//	lass-sim -federation -scenario all                     # every committed scenarios/*.yaml
//	lass-sim -federation -policy grant-aware               # one placement policy only
//	lass-sim -federation -sweep-workers 8                  # parallel sweep, identical output
//	lass-sim -federation -cpuprofile cpu.pprof
//
// With -federation the command runs the multi-cluster edge–cloud offload
// experiment instead: three edge sites plus a cloud backend with warm-pool
// cold starts and per-invocation pricing, sweeping every placement policy
// in the placer registry (never / cloud-only / nearest-peer / model-driven
// / grant-aware / cost-bounded, plus custom lass.RegisterPlacer policies),
// and writes the comparison (per-policy SLO-violation rates, cloud cold
// starts and cost) as CSV. -policy restricts the sweep to one
// registered placement policy. -fed-trace drives each site from its
// own Azure-format trace row (synthesized deterministically, or row i of
// the -trace CSV); -fed-fairshare sweeps per-site-local versus
// federation-wide (global) fair-share allocation on a skewed-load scenario
// instead; -fed-placers sweeps every registered policy on the skewed
// traces with global fair share, admission, and a throttled cloud all on;
// -fed-coordinator sweeps coordinator election (fixed vs RTT-centroid),
// outage windows, and grant leases on an asymmetric star; -fed-chaos
// sweeps election x grant-lease across -chaos-replicates seeded failure
// realizations (base seed -chaos-seed) of one chaos distribution,
// reporting mean/p95 violations and missed epochs per variant;
// -fed-hierarchy sweeps the global allocator's quota structure (flat vs
// region→metro→site borrowing vs borrowing + cross-site reclaim) on the
// starved/borrower/donor metro; -scenario
// runs a declarative scenario file (fleet + topology + workload + chaos
// + assertions; "all" runs every committed scenarios/*.yaml);
// -global-fairshare / -alloc-epoch / -coordinator run any sweep under the
// global allocator (fixed or centroid-elected coordinator placement);
// -admission turns on offload-aware §3.4 admission control;
// -offered-load keeps origins estimating demand from offered load under
// per-site-local allocation; -cloud-max-concurrency caps concurrent
// cloud instances per function (FIFO queueing at the cap); -topology
// selects the inter-site latency model (ring|star); the -cloud-* flags
// tune the cloud's warm window and price points; -sweep-workers runs that
// many sweep cells concurrently (rows are emitted in canonical order, so
// the output is byte-identical at any worker count).
//
// -cpuprofile / -memprofile write pprof profiles for hot-path work.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lass/internal/azure"
	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/experiments"
	"lass/internal/federation"
	"lass/internal/functions"
	"lass/internal/workload"
)

func main() {
	var (
		fnsFlag  = flag.String("functions", "squeezenet:40", "comma-separated name:rate pairs (req/s)")
		duration = flag.Duration("duration", 10*time.Minute, "simulated duration")
		nodes    = flag.Int("nodes", 3, "cluster nodes")
		cpu      = flag.Int64("cpu", 4000, "millicores per node")
		mem      = flag.Int64("mem", 16384, "MiB per node")
		policy   = flag.String("policy", "deflation",
			fmt.Sprintf("reclamation policy (deflation|termination); with -federation: run only the named placement policy (%s, or any placer registered via lass.RegisterPlacer)",
				strings.Join(federation.BuiltinPlacerNames, "|")))
		seed       = flag.Uint64("seed", 1, "random seed")
		trace      = flag.String("trace", "", "optional Azure-schema CSV; row i drives function i (ad-hoc mode) or site i (-fed-trace)")
		fed        = flag.Bool("federation", false, "run the edge-cloud federation offload-policy sweep")
		fedTrace   = flag.Bool("fed-trace", false, "with -federation: drive each site from its own Azure-format trace row")
		fedFair    = flag.Bool("fed-fairshare", false, "with -federation: sweep local vs global allocation on the skewed-load scenario instead")
		fedPlace   = flag.Bool("fed-placers", false, "with -federation: sweep every registered placement policy on the skewed-trace scenario (global fair share + admission + throttled cloud)")
		fedCoord   = flag.Bool("fed-coordinator", false, "with -federation: sweep coordinator election, outages, and grant leases on the asymmetric-star scenario")
		fedChaos   = flag.Bool("fed-chaos", false, "with -federation: sweep election x grant-lease across seeded chaos replicates (GE coordinator flicker + partial partition)")
		fedHier    = flag.Bool("fed-hierarchy", false, "with -federation: sweep flat vs quota-tree borrowing vs borrowing + cross-site reclaim on the starved/borrower/donor metro")
		scenarioF  = flag.String("scenario", "", "with -federation: run the named declarative scenario file instead of a sweep (\"all\" = every committed scenarios/*.yaml)")
		chaosSeed  = flag.Int64("chaos-seed", 0, "with -federation -fed-chaos or -scenario: base chaos seed, replicate r draws seed+r (0 = derived/authored seed)")
		chaosReps  = flag.Int("chaos-replicates", 0, "with -federation -fed-chaos or -scenario: seeded failure replicates per variant or scenario (0 = default: 8 chaos, 1 scenario)")
		globalFS   = flag.Bool("global-fairshare", false, "with -federation: run the sweep under the federation-wide fair-share allocator")
		allocEpoch = flag.Duration("alloc-epoch", 0, "with -federation -global-fairshare: global allocation epoch (0 = default 5s)")
		coord      = flag.String("coordinator", "", "with -federation -global-fairshare: coordinator election (fixed|centroid; default fixed at site 0)")
		admission  = flag.Bool("admission", false, "with -federation: offload-aware §3.4 admission control (reject only when no site's grant has headroom)")
		offered    = flag.Bool("offered-load", false, "with -federation: estimate demand from offered load at every ingress (ControllerConfig.OfferedLoadDemand) even under per-site-local allocation")
		cloudConc  = flag.Int("cloud-max-concurrency", 0, "with -federation: per-function cloud concurrency cap, FIFO queueing at the cap (0 = unbounded)")
		topology   = flag.String("topology", "ring", "with -federation: inter-site latency topology (ring|star)")
		cloudWarm  = flag.Duration("cloud-warm", 0, "with -federation: cloud warm-instance keep-alive window (0 = default 10m, negative = no keep-alive)")
		priceInv   = flag.Float64("cloud-price-invocation", 0, "with -federation: $ per cloud invocation (0 = default $0.20/M, negative = free)")
		priceGBs   = flag.Float64("cloud-price-gbsec", 0, "with -federation: $ per GB-second of cloud execution (0 = default, negative = free)")
		out        = flag.String("out", "federation.csv", "CSV output path for -federation")
		quickSweep = flag.Bool("quick", false, "shorten the -federation sweep for smoke testing")
		workers    = flag.Int("sweep-workers", 1, "with -federation: concurrent sweep cells (1 = serial; output is byte-identical at any worker count)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer writeMemProfile(*memProfile)
	}

	// fedOnly lists the flags that only mean something to the federation
	// sweep; both directions of the ignored-flag warnings derive from it.
	fedOnly := map[string]bool{"fed-trace": true, "fed-fairshare": true, "fed-placers": true,
		"fed-coordinator": true, "fed-chaos": true, "fed-hierarchy": true,
		"scenario": true, "chaos-seed": true, "chaos-replicates": true,
		"topology":   true,
		"cloud-warm": true, "cloud-price-invocation": true,
		"cloud-price-gbsec": true, "global-fairshare": true, "alloc-epoch": true,
		"coordinator": true,
		"admission":   true, "offered-load": true,
		"cloud-max-concurrency": true, "sweep-workers": true,
		"out": true, "quick": true}

	if *fed {
		// The sweep's edge scenario is fixed; flags for the ad-hoc mode
		// would be silently meaningless, so call them out. -policy is
		// shared: it selects the placement policy here, the reclamation
		// policy in ad-hoc mode.
		fedFlags := map[string]bool{"federation": true, "seed": true, "policy": true,
			"cpuprofile": true, "memprofile": true}
		for name := range fedOnly {
			fedFlags[name] = true
		}
		if *fedTrace {
			fedFlags["trace"] = true
		}
		fedPolicy := ""
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "policy" {
				fedPolicy = *policy
			}
			if !fedFlags[fl.Name] {
				fmt.Fprintf(os.Stderr, "lass-sim: -%s is ignored in -federation mode (fixed 3-site edge scenario)\n", fl.Name)
			}
		})
		if fedPolicy != "" {
			// Fail fast on typos; the experiments resolve the name again.
			if _, err := federation.ParsePlacer(fedPolicy); err != nil {
				fail(err)
			}
		}
		id := "federation"
		tracePath := ""
		scenarioPath := *scenarioF
		modes := 0
		for _, m := range []bool{*fedTrace, *fedFair, *fedPlace, *fedCoord, *fedChaos, *fedHier, scenarioPath != ""} {
			if m {
				modes++
			}
		}
		switch {
		case modes > 1:
			fail(fmt.Errorf("-fed-trace, -fed-fairshare, -fed-placers, -fed-coordinator, -fed-chaos, -fed-hierarchy and -scenario are mutually exclusive"))
		case *fedTrace:
			id = "federation-trace"
			tracePath = *trace
		case *fedFair:
			id = "federation-fairshare"
		case *fedPlace:
			id = "federation-placers"
		case *fedCoord:
			id = "federation-coordinator"
		case *fedChaos:
			id = "federation-chaos"
		case *fedHier:
			id = "federation-hierarchy"
		case scenarioPath != "":
			id = "scenario"
			if scenarioPath == "all" {
				scenarioPath = "" // the experiment runs the committed suite
			}
		}
		runFederation(id, experiments.Options{
			Seed:         *seed,
			Quick:        *quickSweep,
			SweepWorkers: *workers,
			Fed: experiments.FedOptions{
				Policy:                  fedPolicy,
				Topology:                *topology,
				TracePath:               tracePath,
				CloudWarmWindow:         *cloudWarm,
				CloudPricePerInvocation: *priceInv,
				CloudPricePerGBSecond:   *priceGBs,
				GlobalFairShare:         *globalFS,
				AllocEpoch:              *allocEpoch,
				Coordinator:             *coord,
				Admission:               *admission,
				OfferedLoad:             *offered,
				CloudMaxConcurrency:     *cloudConc,
				ScenarioPath:            scenarioPath,
				ChaosSeed:               *chaosSeed,
				ChaosReplicates:         *chaosReps,
			},
		}, *out)
		return
	}
	// Symmetric warning for the other direction: the federation-only
	// flags mean nothing to an ad-hoc run.
	flag.Visit(func(fl *flag.Flag) {
		if fedOnly[fl.Name] {
			fmt.Fprintf(os.Stderr, "lass-sim: -%s only applies with -federation; ignored\n", fl.Name)
		}
	})

	pol := controller.Deflation
	switch *policy {
	case "deflation":
	case "termination":
		pol = controller.Termination
	default:
		fail(fmt.Errorf("unknown policy %q", *policy))
	}

	var traceRows []azure.Row
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			fail(err)
		}
		traceRows, err = azure.Read(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	}

	var cfgs []core.FunctionConfig
	for i, pair := range strings.Split(*fnsFlag, ",") {
		parts := strings.SplitN(strings.TrimSpace(pair), ":", 2)
		spec, err := functions.ByName(parts[0])
		if err != nil {
			fail(err)
		}
		var wl *workload.Schedule
		if traceRows != nil {
			if i >= len(traceRows) {
				fail(fmt.Errorf("trace has %d rows but %d functions requested", len(traceRows), i+1))
			}
			wl, err = azure.Schedule(traceRows[i].Counts)
		} else {
			rate := 10.0
			if len(parts) == 2 {
				rate, err = strconv.ParseFloat(parts[1], 64)
				if err != nil {
					fail(fmt.Errorf("bad rate in %q: %w", pair, err))
				}
			}
			wl, err = workload.NewStatic(rate)
		}
		if err != nil {
			fail(err)
		}
		cfgs = append(cfgs, core.FunctionConfig{Spec: spec, Workload: wl, Prewarm: 1})
	}

	p, err := core.New(core.Config{
		Cluster:    cluster.Config{Nodes: *nodes, CPUPerNode: *cpu, MemPerNode: *mem, Policy: cluster.WorstFit},
		Controller: controller.Config{Policy: pol, MinContainers: 1},
		Seed:       *seed,
		Functions:  cfgs,
	})
	if err != nil {
		fail(err)
	}
	res, err := p.Run(*duration)
	if err != nil {
		fail(err)
	}

	fmt.Printf("simulated %v on %d nodes (%d mC each), policy=%s, seed=%d\n\n",
		*duration, *nodes, *cpu, pol, *seed)
	fmt.Printf("%-16s %10s %10s %12s %12s %10s %9s\n",
		"function", "arrivals", "completed", "P95 wait", "P99 resp", "SLO att", "requeued")
	for _, fc := range cfgs {
		fr := res.Functions[fc.Spec.Name]
		fmt.Printf("%-16s %10d %10d %11.1fms %11.1fms %9.3f %9d\n",
			fc.Spec.Name, fr.Arrivals, fr.Completed,
			fr.Waits.Quantile(0.95)*1000,
			fr.Responses.Quantile(0.99)*1000,
			fr.SLO.Attainment(), fr.Requeued)
	}
	fmt.Printf("\ncluster utilization (time-weighted mean): %.1f%%\n", res.Utilization*100)
	ops := res.ControllerOps
	fmt.Printf("controller: %d creations, %d terminations, %d deflations, %d inflations, %d overload epochs\n",
		ops.Creations, ops.Terminations, ops.Deflations, ops.Inflations, ops.Overloads)
}

// runFederation executes the offload-policy sweep (synthetic or
// trace-driven), prints the table, and writes it as CSV.
func runFederation(id string, opt experiments.Options, out string) {
	tab, err := experiments.Run(id, opt)
	if err != nil {
		fail(err)
	}
	tab.Fprint(os.Stdout)
	f, err := os.Create(out)
	if err != nil {
		fail(err)
	}
	if err := tab.WriteCSV(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// writeMemProfile snapshots the heap (after a final GC, so live objects —
// not garbage — dominate the profile) into the given file.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lass-sim: %v\n", err)
	os.Exit(1)
}
