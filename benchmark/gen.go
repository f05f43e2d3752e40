package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"lass/internal/allocation"
	"lass/internal/azure"
	"lass/internal/xrand"
)

// The generators turn a seed into a workload's inputs and nothing else:
// the program under test only ever sees the bytes (or values) they return.
// Fleet shapes are fixed per workload — a benchmark compares commits, so
// the topology must not wander with the seed — while every rate, burst
// position, and fault realization is drawn from the seed.

// simSize scales a simulator workload. The full sizes are what
// BENCHMARK.json measures; quick sizes keep `go test` inside a few seconds.
type simSize struct {
	sites   int
	minutes int // simulated duration
}

// genMetroDay emits the metro-day scenario: `sites` one-node edge sites,
// each replaying its own synthesized steady Azure-style trace of
// squeezenet, never placer, no global fair share, no chaos. Each minute of
// the trace becomes one workload step, so the document also exercises the
// YAML loader at its largest realistic input.
func genMetroDay(seed uint64, sz simSize) ([]byte, error) {
	rng := xrand.New(seed ^ 0x3e7a0)
	var b bytes.Buffer
	fmt.Fprintf(&b, "name: metro-day\n")
	fmt.Fprintf(&b, "description: \"%d one-node sites replaying %d trace minutes, never placer\"\n", sz.sites, sz.minutes)
	fmt.Fprintf(&b, "seed: %d\nduration: %dm\nplacer: never\n", seed, sz.minutes)
	fmt.Fprintf(&b, "fleet:\n")
	for i := 0; i < sz.sites; i++ {
		row, err := azure.Synthesize(rng, azure.SynthConfig{
			Archetype: azure.Steady, MeanPerMinute: 15, Minutes: sz.minutes})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "  - name: edge-%d\n    nodes: 1\n    cpu-per-node: 4000\n    mem-per-node: 8192\n", i)
		fmt.Fprintf(&b, "    functions:\n      - spec: squeezenet\n        prewarm: 1\n        workload:\n")
		for m, c := range row.Counts {
			fmt.Fprintf(&b, "          - {start: %dm, rate: %s}\n", m, strconv.FormatFloat(c/60, 'g', -1, 64))
		}
	}
	// Steady load far below capacity: anything but a near-perfect run means
	// the data path broke.
	fmt.Fprintf(&b, "assertions:\n  max-violation-rate: 0.05\n")
	return b.Bytes(), nil
}

// fedFunctions is fed_full's per-site deployment: the catalog function, its
// standard container size (millicores) and service rate (req/s per
// container), and the share of a site's capacity its base load targets.
var fedFunctions = []struct {
	spec  string
	cpu   float64
	mu    float64
	share float64
}{
	{"squeezenet", 1000, 10, 0.65},
	{"binaryalert", 500, 20, 0.33},
	{"geofence", 300, 100, 0.02},
}

const (
	fedRegions   = 2
	fedMetros    = 3 // per region
	fedSegment   = 30 * time.Second
	fedLoadScale = 0.55
)

// genFedFull emits the everything-on scenario: a 2-region × 3-metro ×
// 4-site fleet (1–3 nodes each) running three functions under piecewise
// rates re-drawn every 30 s — each stream spends one seeded segment in a 3×
// burst, and every fourth site (and the whole first metro, around one
// 2000 mC box) runs hot — with the metro-affine placer, global fair share,
// admission, a reclaiming hierarchy with RTT classes, and a chaos timeline
// of coordinator outages, a cascading group fault and a site fault.
func genFedFull(seed uint64, sz simSize) ([]byte, error) {
	rng := xrand.New(seed ^ 0xfed5)
	nsites := sz.sites
	duration := time.Duration(sz.minutes) * time.Minute
	segments := int(duration / fedSegment)
	var b bytes.Buffer
	fmt.Fprintf(&b, "name: fed-full\n")
	fmt.Fprintf(&b, "description: \"%d sites, every federation feature on\"\n", nsites)
	fmt.Fprintf(&b, "seed: %d\nduration: %s\nplacer: metro-affine\n", seed, duration)
	fmt.Fprintf(&b, "global-fairshare: true\nadmission: true\nalloc-epoch: 5s\ngrant-lease: 10s\n")
	fmt.Fprintf(&b, "hierarchy:\n  reclaim: true\n  reclaim-latency: 4ms\n")
	fmt.Fprintf(&b, "  rtt-classes:\n    intra-metro: 2ms\n    intra-region: 10ms\n    cross-region: 40ms\n")
	fmt.Fprintf(&b, "  groups:\n")
	site := 0
	perMetro := (nsites + fedRegions*fedMetros - 1) / (fedRegions * fedMetros)
	for r := 0; r < fedRegions && site < nsites; r++ {
		fmt.Fprintf(&b, "    - name: region-%d\n      groups:\n", r)
		for m := 0; m < fedMetros && site < nsites; m++ {
			fmt.Fprintf(&b, "        - name: metro-%d-%d\n", r, m)
			if site == 0 {
				// The hot metro's quota is three times its siblings': its
				// saturated sites are then entitled to all they can hold, so
				// the spread pass finds no spare there and the small site's
				// starved share can only come back through reclaim.
				fmt.Fprintf(&b, "          weight: 3\n")
			}
			fmt.Fprintf(&b, "          sites: [")
			for k := 0; k < perMetro && site < nsites; k++ {
				if k > 0 {
					fmt.Fprintf(&b, ", ")
				}
				fmt.Fprintf(&b, "edge-%d", site)
				site++
			}
			fmt.Fprintf(&b, "]\n")
		}
	}
	fmt.Fprintf(&b, "fleet:\n")
	for i := 0; i < nsites; i++ {
		nodes, perNode := 1+i%3, 4000
		hot := []float64{1, 1, 1}
		switch {
		case i == 0:
			// One small box in the first metro, offered four times the
			// squeezenet it can hold: that function's deserved share is
			// starved at home.
			perNode, hot = 2000, []float64{4, 0.5, 0.5}
		case i < perMetro:
			// Its metro peers barely use squeezenet and are saturated by
			// binaryalert far over quota — borrowed capacity with no spare
			// beside it, which only reclaim can hand to the starved function.
			hot = []float64{0.3, 6, 1}
		case i%4 == 0:
			hot = []float64{1.8, 1.8, 1.8} // elsewhere every fourth site is overloaded
		}
		capacity := float64(nodes * perNode)
		fmt.Fprintf(&b, "  - name: edge-%d\n    nodes: %d\n    cpu-per-node: %d\n    mem-per-node: 16384\n    functions:\n", i, nodes, perNode)
		for j, fn := range fedFunctions {
			// The federation runs overloaded, where SLO attainment is steep
			// in the offered load, and a benchmark needs seeds to agree. So
			// how much each stream offers is fixed by its position (a
			// golden-ratio spread over 0.8–1.2), every stream spends exactly
			// one segment in a 3× burst, and bursts are dealt round-robin
			// over the segments; the seed wobbles each segment's rate by a
			// tenth and, through the scenario and chaos seeds, draws every
			// arrival, service time and outage.
			stream := i*len(fedFunctions) + j
			_, spread := math.Modf(float64(stream+1) * 0.6180339887)
			base := fn.share * capacity / fn.cpu * fn.mu * fedLoadScale * hot[j] * (0.8 + 0.4*spread)
			burstAt := fedSegment * time.Duration(stream%segments)
			fmt.Fprintf(&b, "      - spec: %s\n        prewarm: 1\n        workload:\n", fn.spec)
			for t := time.Duration(0); t < duration; t += fedSegment {
				rate := base * rng.Uniform(0.9, 1.1)
				if t == burstAt {
					rate *= 3
				}
				fmt.Fprintf(&b, "          - {start: %s, rate: %s}\n", t, strconv.FormatFloat(rate, 'f', 3, 64))
			}
		}
	}
	// The static coordinator window guarantees missed epochs at every seed;
	// the Gilbert-Elliott processes make where the other outages land a
	// function of the seed.
	third := duration / 3
	fmt.Fprintf(&b, "chaos:\n  seed: %d\n  faults:\n", seed^0xc4a05)
	fmt.Fprintf(&b, "    - kind: coordinator\n      windows:\n        - {start: %s, end: %s}\n", third, third+12*time.Second)
	fmt.Fprintf(&b, "    - kind: coordinator\n      mean-up: 50s\n      mean-down: 6s\n")
	if nsites >= 8 {
		fmt.Fprintf(&b, "    - kind: group\n      sites: [5, 6, 7]\n      lag: 2s\n      mean-up: 60s\n      mean-down: 8s\n")
		fmt.Fprintf(&b, "    - kind: site\n      site: %d\n      windows:\n        - {start: %s, end: %s}\n", nsites/2+1, 2*third, 2*third+20*time.Second)
	}
	fmt.Fprintf(&b, "assertions:\n  min-alloc-epochs: %d\n  min-missed-epochs: 2\n  min-reclaimed-cpu: 1000\n  max-violation-rate: 0.6\n",
		int(duration/(5*time.Second))/2)
	return b.Bytes(), nil
}

// churnSize scales the control_churn demand set.
type churnSize struct {
	regions, metros, sitesPerMetro int
	fns                            int // functions per site
}

func (c churnSize) sites() int { return c.regions * c.metros * c.sitesPerMetro }

const (
	churnPool            = 12  // distinct function names across the fleet
	churnCPUPerContainer = 250 // millicores per sized container
	churnSwingSites      = 5   // sites whose rates move each epoch
)

// churnInput is control_churn's generated demand set: the allocator's site
// list with names, weights and capacities filled in, per-function base
// arrival rates and service rates, and the quota tree over the sites.
type churnInput struct {
	sites []allocation.SiteDemand
	base  [][]float64
	mus   []float64
	tree  *allocation.Hierarchy
}

// genChurn synthesizes the metro-scale demand set: every site serves `fns`
// functions drawn from a shared 12-name pool at a site-specific offset, so
// neighbours overlap and the spread pass has work to do. The first metro of
// each region is hot — every site there is offered about three times what it
// can hold, so its grants run over quota — and one site in it is a 2000 mC
// box whose functions' deserved shares are starved at home: with no spare
// left in the metro, only reclaim can recover them.
func genChurn(seed uint64, sz churnSize) churnInput {
	rng := xrand.New(seed ^ 0xc0b1)
	n := sz.sites()
	in := churnInput{
		sites: make([]allocation.SiteDemand, n),
		base:  make([][]float64, n),
		mus:   make([]float64, churnPool),
	}
	for j := range in.mus {
		in.mus[j] = 8 + float64(j%5) // 8..12 req/s per container
	}
	root := &allocation.Group{ID: "::root"}
	i := 0
	for r := 0; r < sz.regions; r++ {
		region := &allocation.Group{ID: fmt.Sprintf("region-%d", r)}
		for m := 0; m < sz.metros; m++ {
			metro := &allocation.Group{ID: fmt.Sprintf("metro-%d-%d", r, m)}
			for k := 0; k < sz.sitesPerMetro; k++ {
				name := fmt.Sprintf("site-%03d", i)
				metro.Sites = append(metro.Sites, name)
				hot, small := m == 0, m == 0 && k == 3
				fns := make([]allocation.FunctionDemand, sz.fns)
				in.base[i] = make([]float64, sz.fns)
				for j := range fns {
					fn := (i + j) % churnPool
					fns[j] = allocation.FunctionDemand{
						Name:       fmt.Sprintf("f%02d", fn),
						User:       fmt.Sprintf("u%d", fn%4),
						UserWeight: float64(fn%4 + 1),
						Weight:     float64(rng.Intn(4) + 1),
					}
					in.base[i][j] = rng.Uniform(5, 60)
					if hot {
						in.base[i][j] *= 3
					}
				}
				capacity := int64(16_000)
				if small {
					capacity = 2_000
				}
				in.sites[i] = allocation.SiteDemand{Site: name, CapacityCPU: capacity, Functions: fns}
				i++
			}
			region.Children = append(region.Children, metro)
		}
		root.Children = append(root.Children, region)
	}
	in.tree = &allocation.Hierarchy{Root: root}
	return in
}

// openArrival is one scheduled invocation of the open-loop workload.
type openArrival struct {
	due time.Duration // offset from the start of the run
	fn  int           // index into rtFunctions
}

// openMix is the open loop's 5:2:1 call mix over rtFunctions.
var openMix = []float64{5.0 / 8, 2.0 / 8, 1.0 / 8}

// genOpenSchedule lays out the open-loop schedule: `rate` req/s split
// 5:2:1 over the three functions for a warm-up, then for the measured
// length, during whose middle third the rate is multiplied by burst. Each
// function's calls are evenly spaced at its current rate, and the seed sets
// each function's phase, so a schedule is a comb per function, not a
// Poisson process: queueing then comes from the platform being short of
// capacity, not from arrival clumps, and one 12-second run is a measurement
// instead of a sample. The schedule is fixed before the run starts, so a
// slow platform cannot slow its own load.
func genOpenSchedule(seed uint64, warm, length time.Duration, rate, burst float64) []openArrival {
	rng := xrand.New(seed ^ 0x09e7)
	burstFrom := (warm + length/3).Seconds()
	burstTo := (warm + 2*length/3).Seconds()
	end := (warm + length).Seconds()
	var out []openArrival
	for fn, share := range openMix {
		// `owed` is the fraction of the next call already accrued; a call
		// is due whenever it reaches 1.
		owed := rng.Float64()
		t := 0.0
		for t < end {
			r := rate * share
			segEnd := end
			switch {
			case t < burstFrom:
				segEnd = burstFrom
			case t < burstTo:
				r *= burst
				segEnd = burstTo
			}
			next := t + (1-owed)/r
			if next > segEnd {
				owed += (segEnd - t) * r
				t = segEnd
				continue
			}
			t, owed = next, 0
			out = append(out, openArrival{due: time.Duration(t * float64(time.Second)), fn: fn})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}
