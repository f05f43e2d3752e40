// Package lass is the public API of the LaSS reproduction: a platform for
// running latency-sensitive serverless computations on resource-constrained
// edge clusters, after Wang, Ali-Eldin and Shenoy, "LaSS: Running Latency
// Sensitive Serverless Computations at the Edge" (HPDC 2021).
//
// The package re-exports the library's stable surface:
//
//   - queueing-model capacity planning (RequiredContainers and friends,
//     paper §3): given an arrival rate, a service rate, and an SLO, how
//     many containers does a function need?
//   - simulated platform construction (NewSimulation, §5-§6): a complete
//     edge deployment — cluster, data path, controller — driven by a
//     deterministic discrete-event engine;
//   - the function catalog of the paper's evaluation (FunctionByName,
//     Table 1);
//   - workload generators (§6.1) and Azure-schema trace tooling (§6.7);
//   - multi-cluster edge–cloud federation (NewFederation): N edge sites
//     on an explicit latency topology (NewFederationTopology, RingTopology,
//     StarTopology; a ring of 5ms hops when none is given) plus a cloud
//     backend one fixed 50ms RTT away with warm-pool cold starts and cost
//     accounting at one FaaS price point, with per-request dynamic offload
//     after Das et al.'s edge-cloud task placement (2020) through a
//     pluggable placement API (Placer, PlacementContext, PlacerByName):
//     seven built-in policies selectable by name, and user-defined ones
//     passed in FederationConfig.Placer.
//     The federation-wide fair-share allocator's coordinator is an
//     elected, failure-tolerant role: CoordinatorRTTCentroid places it at
//     the topology's RTT centroid, OutageWindow schedules coordinator
//     outages, and leased grants fall back to local enforcement when the
//     coordinator goes dark.
//   - seeded chaos engineering (NewChaosEngine, FederationConfig.Faults):
//     Gilbert-Elliott coordinator/site/link faults, partial partitions
//     with asymmetric lease expiry, and cascading failure groups — plus
//     declarative scenario files (scenarios/*.yaml, run by lass-sim
//     -scenario) bundling fleet, topology, workload, faults, and
//     assertions into one runnable document.
//
// # Quick start
//
//	spec := lass.MicroBenchmark(100 * time.Millisecond)
//	wl, _ := lass.StaticWorkload(30) // 30 req/s Poisson
//	p, _ := lass.NewSimulation(lass.SimulationConfig{
//		Cluster:   lass.PaperCluster(),
//		Seed:      1,
//		Functions: []lass.FunctionConfig{{Spec: spec, Workload: wl}},
//	})
//	res, _ := p.Run(10 * time.Minute)
//	fmt.Println(res.Functions[spec.Name].Waits.Quantile(0.95))
//
// See examples/ for complete programs and cmd/lass-bench for the
// harnesses that regenerate every table and figure of the paper.
package lass

import (
	"time"

	"lass/internal/allocation"
	"lass/internal/chaos"
	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/federation"
	"lass/internal/functions"
	"lass/internal/queuing"
	"lass/internal/workload"
)

// SLO is a latency service-level objective: a percentile of requests must
// meet the deadline (paper §2.3).
type SLO = queuing.SLO

// Spec describes a serverless function as the platform sees it: container
// size, service-time behaviour, deflation slack (paper §6.1, Table 1).
type Spec = functions.Spec

// ClusterConfig sizes the edge cluster.
type ClusterConfig = cluster.Config

// ControllerConfig tunes the LaSS control plane (§3-§5).
type ControllerConfig = controller.Config

// ReclamationPolicy selects termination- or deflation-based reclamation
// (§4.2).
type ReclamationPolicy = controller.ReclamationPolicy

// Reclamation policies.
const (
	Termination = controller.Termination
	Deflation   = controller.Deflation
)

// FunctionConfig registers a function and its workload with a simulation.
type FunctionConfig = core.FunctionConfig

// SimulationConfig describes a complete simulated deployment.
type SimulationConfig = core.Config

// Simulation is an assembled platform; Run drives it and returns results.
type Simulation = core.Platform

// Result is the outcome of a simulation run.
type Result = core.Result

// Workload is a piecewise-constant arrival-rate schedule (§6.1).
type Workload = workload.Schedule

// WorkloadStep is one segment of a discrete-change schedule.
type WorkloadStep = workload.Step

// NewSimulation assembles a simulated LaSS deployment.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) {
	return core.New(cfg)
}

// PaperCluster returns the 3-node, 4-core testbed of §6.1.
func PaperCluster() ClusterConfig { return cluster.PaperCluster() }

// DefaultController returns the paper-faithful controller configuration
// (5s epochs, dual 10s/2min windows, τ=30% deflation, deflation policy).
func DefaultController() ControllerConfig { return controller.Default() }

// FunctionByName returns a catalog entry.
func FunctionByName(name string) (Spec, error) { return functions.ByName(name) }

// MicroBenchmark returns the configurable micro-benchmark function at the
// given mean service time (§6.1).
func MicroBenchmark(mean time.Duration) Spec { return functions.MicroBenchmark(mean) }

// StaticWorkload returns a constant-rate Poisson workload.
func StaticWorkload(rate float64) (*Workload, error) { return workload.NewStatic(rate) }

// StepWorkload returns a discrete-change workload from explicit steps.
func StepWorkload(steps []WorkloadStep) (*Workload, error) { return workload.NewSteps(steps) }

// TraceWorkload converts per-minute invocation counts (the Azure trace
// format) into a workload.
func TraceWorkload(perMinuteCounts []float64) (*Workload, error) {
	return workload.FromPerMinuteCounts(perMinuteCounts)
}

// FederationConfig describes a multi-cluster edge–cloud deployment: N
// edge sites (each a complete SimulationConfig) plus an elastic cloud
// backend and a per-request offload policy.
type FederationConfig = federation.Config

// Federation is an assembled multi-cluster deployment; Run drives every
// site on one shared deterministic engine.
type Federation = federation.Federation

// FederationResult is the outcome of a federated run.
type FederationResult = federation.Result

// Placer is the pluggable placement policy of the federation: every
// ingress request is handed to the configured Placer as a
// PlacementContext, and the returned Decision serves it locally, at a peer
// site, in the cloud, or rejects it (§3.4 admission). Implement Name and
// Place and set the policy in FederationConfig.Placer — no federation
// internals change. The scenario file's federation.placer key and the
// experiment sweeps name the seven built-ins only (PlacerByName).
type Placer = federation.Placer

// PlacementContext exposes everything the federation knows about one
// arriving request to the placement policy. Request state: Spec (the
// Table 1 catalog entry), ResponseSLO (the end-to-end deadline, network
// included), Origin (the ingress site index), and Sheddable (whether §3.4
// offload-aware admission applies — a sheddable request is never queued
// at its overloaded origin). Per-candidate signals, indexed by site:
// PredictResponse (the §3.1 queueing model's backlog-drain estimate plus
// both network legs), Serves / Overloaded (whether the site runs the
// function, and its epoch-level overload signal), Headroom (controller
// capacity headroom, §3.3), Metro / SameMetro (the hierarchy's metros),
// Backlog / Containers / ServiceCapacity (live pool state), and
// GrantedCPU / DesiredCPU (the federation-wide §4.1 fair-share
// allocator's grants versus the model's desires, including
// granted-but-cold pre-provisioned pools). Cloud state: PredictCloud
// (response including cold start and the queue at the concurrency cap;
// §3.4 admission rejects a sheddable cloud landing whose prediction misses
// the response SLO) and CloudCostPerRequest (the invocation + GB-second
// price). SelectPeer is the nearest-first
// accepting-peer scan; PeersByRTT is the deterministic RTT-ordered
// candidate list custom strategies iterate — a slice shared across
// decisions, not to be modified.
type PlacementContext = federation.PlacementContext

// PlacementDecision is a Placer's verdict for one request.
type PlacementDecision = federation.Decision

// PlaceLocal serves the request at its ingress site.
func PlaceLocal() PlacementDecision { return federation.Local() }

// PlaceAtSite offloads the request to the edge site with the given index.
func PlaceAtSite(site int) PlacementDecision { return federation.ToSite(site) }

// PlaceInCloud offloads the request to the cloud backend.
func PlaceInCloud() PlacementDecision { return federation.ToCloud() }

// PlaceReject drops the request at admission (§3.4); it stays an SLO
// violation at its origin.
func PlaceReject() PlacementDecision { return federation.Reject() }

// PlacerByName returns the built-in placement policy with the given
// (case-insensitive, whitespace-trimmed) name: "never", "cloud-only",
// "nearest-peer", "model-driven", "grant-aware", "cost-bounded" or
// "metro-affine".
func PlacerByName(name string) (Placer, error) { return federation.PlacerByName(name) }

// PlacerNames returns the built-in placement policy names in sweep order.
func PlacerNames() []string { return federation.PlacerNames() }

// FederationTopology is an explicit, validated one-way inter-site latency
// matrix (optionally asymmetric; zero diagonal, non-negative entries).
type FederationTopology = federation.Topology

// NewFederationTopology wraps a measured latency matrix after validation.
func NewFederationTopology(rtt [][]time.Duration) (*FederationTopology, error) {
	return federation.NewTopology(rtt)
}

// RingTopology returns the ring topology the federation uses by default:
// sites at ring distance d are d×peerRTT apart one way.
func RingTopology(n int, peerRTT time.Duration) (*FederationTopology, error) {
	return federation.Ring(n, peerRTT)
}

// StarTopology returns a hub-and-spoke topology with site 0 as hub.
func StarTopology(n int, spokeRTT time.Duration) (*FederationTopology, error) {
	return federation.Star(n, spokeRTT)
}

// NewFederation assembles a simulated multi-cluster edge–cloud deployment.
func NewFederation(cfg FederationConfig) (*Federation, error) {
	return federation.New(cfg)
}

// CoordinatorElection selects how the global allocator's coordinator site
// is chosen under FederationConfig.GlobalFairShare: pinned at site 0, or
// elected at the topology's round-trip centroid.
type CoordinatorElection = federation.CoordinatorElection

// Coordinator election modes.
const (
	// CoordinatorFixed pins the coordinator at site 0 — the historical
	// behaviour, and the zero value.
	CoordinatorFixed = federation.Fixed
	// CoordinatorRTTCentroid elects the site minimizing the round-trip
	// sum over the topology matrix
	// (FederationTopology.RTTCentroid), re-elected whenever the
	// federation is reassembled with different membership.
	CoordinatorRTTCentroid = federation.RTTCentroid
)

// OutageWindow is a half-open interval [Start, End) of simulated time; a
// ChaosFault's static Windows schedule uses it. Under a
// ChaosFaultCoordinator fault the coordinator is dark inside each window —
// allocation epochs firing inside one produce no grants (counted in
// FederationResult.MissedAllocEpochs), and sites whose grant lease
// (FederationConfig.GrantLease, default 2×AllocEpoch) lapses without
// renewal fall back to local enforcement.
type OutageWindow = federation.Window

// ChaosConfig declares a chaos engine: the number of sites its fault
// targets index into, the master seed every stochastic failure process
// forks from, and the fault list. Same config, same realization —
// failure schedules are a pure function of (Seed, fault declaration
// order), independent of query order.
type ChaosConfig = chaos.Config

// ChaosFault is one failure declaration: a coordinator, site, link, or
// cascading-group fault driven by static windows or a seeded
// Gilbert-Elliott up/down process.
type ChaosFault = chaos.Fault

// Fault kinds: what a ChaosFault darkens.
const (
	// ChaosFaultCoordinator darkens the coordinator role (allocation
	// epochs produce no grants) without touching any site's data plane.
	ChaosFaultCoordinator = chaos.FaultCoordinator
	// ChaosFaultSite darkens one site entirely: peers cannot reach it
	// and it loses its own peer and cloud uplinks.
	ChaosFaultSite = chaos.FaultSite
	// ChaosFaultLink darkens one directed site-to-site link (set
	// Bidirectional for both legs) — the partial-partition primitive.
	ChaosFaultLink = chaos.FaultLink
	// ChaosFaultGroup darkens a set of sites with a per-member cascade
	// lag — correlated failures that ripple instead of landing at once.
	ChaosFaultGroup = chaos.FaultGroup
)

// NewChaosEngine validates the config and builds the seeded engine: it
// realizes the config into queryable fault timelines, implements
// FaultView, and plugs into FederationConfig.Faults.
func NewChaosEngine(cfg ChaosConfig) (*chaos.Engine, error) {
	return chaos.New(cfg)
}

// FaultView is what the federation consults about failures: whether the
// coordinator role, a site, or a directed link is dark at an instant.
type FaultView = federation.FaultView

// QuotaHierarchy is the federation's region → metro → site capacity tree
// (arbitrary depth): interior groups carry weights, leaves list site
// names, and each level's deserved quota cascades down by weight share.
// Assign it to FederationConfig.Hierarchy (with optional
// FederationConfig.Reclaim). See the README's "Hierarchical federations"
// section.
type QuotaHierarchy = allocation.Hierarchy

// HierarchyRTTClasses are the per-level one-way latencies a hierarchical
// topology derives from the quota tree (intra-metro / intra-region /
// cross-region; zero selects 2ms / 10ms / 40ms).
type HierarchyRTTClasses = federation.RTTClasses

// HierarchicalTopology derives the inter-site latency matrix from a quota
// hierarchy: each ordered site pair pays the class of the lowest tree
// level it shares.
func HierarchicalTopology(sites []string, h *QuotaHierarchy, classes HierarchyRTTClasses) (*FederationTopology, error) {
	return federation.Hierarchical(sites, h.Levels(), classes)
}

// RequiredContainers runs the paper's Algorithm 1: the number of
// containers needed to serve arrival rate lambda with per-container
// service rate mu while meeting the SLO (§3.1).
func RequiredContainers(lambda, mu float64, slo SLO) (int, error) {
	return queuing.MinimalContainers(lambda, mu, slo)
}

// DefaultSLO is the evaluation's default objective: 95% of requests start
// service within 100 ms (§6.1).
func DefaultSLO() SLO { return controller.DefaultSLO() }
