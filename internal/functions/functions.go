// Package functions models the serverless functions of the paper's
// evaluation (§6.1, Table 1): their standard container sizes, service-time
// behaviour, and — central to the deflation experiments — how service time
// degrades when a container's CPU allocation is deflated (Fig 7).
//
// The paper runs six real workloads (three DNN inference models, a malware
// detector, geofencing, and image resizing) plus a configurable
// micro-benchmark. Here each is a Spec: a black box with a container size,
// a service-time distribution, and a CPU-slack parameter. That is exactly
// the interface the LaSS controller has to the real functions ("the
// platform does not have any specific knowledge of the function itself",
// §2.1), so the substitution preserves every behaviour the control plane
// can observe.
package functions

import (
	"fmt"
	"math"
	"time"

	"lass/internal/xrand"
)

// Spec describes one serverless function as the platform sees it.
type Spec struct {
	// Name identifies the function (unique within a deployment).
	Name string
	// Language records the implementation language(s) from Table 1
	// (informational; it does not affect the model).
	Language string
	// CPUMillis is the standard container CPU size in millicores
	// (1000 = 1 vCPU). Table 1 column "Standard Size".
	CPUMillis int64
	// MemoryMiB is the standard container memory size in MiB.
	MemoryMiB int64
	// MeanServiceTime is the mean request execution time in a standard,
	// undeflated container.
	MeanServiceTime time.Duration
	// SCV is the squared coefficient of variation of the service time
	// distribution: 1 = exponential (the paper's modeling assumption),
	// 0 = deterministic, other values are sampled lognormal.
	SCV float64
	// Slack is the fraction of the standard container's CPU the function
	// typically leaves unused (§4.2: "typical slack can be up to 50%").
	// Deflation within the slack costs little; beyond it, service time
	// grows in proportion to the CPU deficit. MobileNet's slack is ~0:
	// "even if the container is assigned 2 vCPUs there is little
	// headroom" (§6.5).
	Slack float64
	// ColdStart is the container provisioning latency: the time between
	// the controller requesting a container and it accepting requests.
	ColdStart time.Duration
	// Weight is the default fair-share weight ω_i (§4.1).
	Weight float64
}

// Validate checks the spec for structural errors.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("functions: empty name")
	}
	if s.CPUMillis <= 0 {
		return fmt.Errorf("functions: %s: non-positive CPU size %d", s.Name, s.CPUMillis)
	}
	if s.MemoryMiB <= 0 {
		return fmt.Errorf("functions: %s: non-positive memory size %d", s.Name, s.MemoryMiB)
	}
	if s.MeanServiceTime <= 0 {
		return fmt.Errorf("functions: %s: non-positive service time %v", s.Name, s.MeanServiceTime)
	}
	if s.SCV < 0 {
		return fmt.Errorf("functions: %s: negative SCV %v", s.Name, s.SCV)
	}
	if s.Slack < 0 || s.Slack >= 1 {
		return fmt.Errorf("functions: %s: slack %v out of [0,1)", s.Name, s.Slack)
	}
	if s.Weight <= 0 {
		return fmt.Errorf("functions: %s: non-positive weight %v", s.Name, s.Weight)
	}
	if math.IsNaN(s.Weight) || math.IsInf(s.Weight, 0) {
		return fmt.Errorf("functions: %s: non-finite weight %v", s.Name, s.Weight)
	}
	return nil
}

// ServiceRate returns μ, the mean service rate (req/s) of one standard
// container.
func (s Spec) ServiceRate() float64 {
	return 1 / s.MeanServiceTime.Seconds()
}

// deflationPenaltyEpsilon is the mild overhead applied to deflation within
// the slack region: reclaiming truly idle CPU is not perfectly free
// (scheduler effects), matching the "small penalty" visible in Fig 7.
const deflationPenaltyEpsilon = 0.15

// ServiceTimeMultiplier returns how much longer a request takes in a
// container running at cpuFraction of the standard CPU size. The model
// behind Fig 7:
//
//   - Let u = 1 - Slack be the CPU the function actually uses. While
//     cpuFraction ≥ u, deflation only consumes slack: the multiplier rises
//     gently (1 + ε·deflated).
//   - Below u the function is CPU-starved and execution stretches by u/f.
//
// cpuFraction above 1 (an inflated container) does not speed the function
// up beyond its standard-size performance.
func (s Spec) ServiceTimeMultiplier(cpuFraction float64) float64 {
	if cpuFraction >= 1 {
		return 1
	}
	if cpuFraction <= 0 {
		return math.Inf(1)
	}
	u := 1 - s.Slack
	if cpuFraction >= u {
		return 1 + deflationPenaltyEpsilon*(1-cpuFraction)
	}
	atBoundary := 1 + deflationPenaltyEpsilon*(1-u)
	return atBoundary * u / cpuFraction
}

// RateAt returns the effective service rate of a container at the given
// fraction of the standard CPU size.
func (s Spec) RateAt(cpuFraction float64) float64 {
	m := s.ServiceTimeMultiplier(cpuFraction)
	if math.IsInf(m, 1) {
		return 0
	}
	return s.ServiceRate() / m
}

// SampleServiceTime draws one service time for a request executing in a
// container at the given CPU fraction. SCV selects the distribution family:
// 0 → deterministic, 1 → exponential, otherwise lognormal with matching
// mean and SCV.
func (s Spec) SampleServiceTime(rng *xrand.Rand, cpuFraction float64) time.Duration {
	return s.ServiceLaw(cpuFraction).Sample(rng)
}

// ServiceLaw is a spec's service-time distribution at one CPU fraction,
// with its parameters worked out once so that a container drawing many
// requests at the same CPU pays for them once.
type ServiceLaw struct {
	mean      float64 // nanoseconds; +Inf for a container with no CPU
	scv       float64
	rate      float64 // 1/mean, the exponential's rate
	mu, sigma float64 // the lognormal's parameters
}

// ServiceLaw returns the service-time distribution of a container at the
// given fraction of the standard CPU size.
func (s Spec) ServiceLaw(cpuFraction float64) ServiceLaw {
	mean := float64(s.MeanServiceTime) * s.ServiceTimeMultiplier(cpuFraction)
	sigma2 := math.Log(1 + s.SCV)
	return ServiceLaw{mean: mean, scv: s.SCV, rate: 1 / mean, mu: math.Log(mean) - sigma2/2, sigma: math.Sqrt(sigma2)}
}

// Sample draws one service time.
func (l ServiceLaw) Sample(rng *xrand.Rand) time.Duration {
	if math.IsInf(l.mean, 1) {
		return time.Duration(math.MaxInt64)
	}
	switch {
	case l.scv == 0:
		return time.Duration(l.mean)
	case l.scv == 1:
		return time.Duration(rng.Exp(l.rate))
	default:
		return time.Duration(rng.LogNormal(l.mu, l.sigma))
	}
}

// Catalog returns the seven functions of Table 1 with the paper's standard
// container sizes. Service-time means are not reported in the paper; the
// values here are calibrated to the paper's experiment dynamics (e.g. the
// micro-benchmark's 100/200 ms configurations in §6.2, MobileNet's heavy
// inference in Figs 6-8) and documented per entry.
func Catalog() []Spec {
	return []Spec{
		// Configurable CPU-bound micro-benchmark; §6.2 runs it at 100 ms
		// and 200 ms service times. Default here: 100 ms (μ = 10 req/s).
		{Name: "micro-benchmark", Language: "Python", CPUMillis: 400, MemoryMiB: 256,
			MeanServiceTime: 100 * time.Millisecond, SCV: 1, Slack: 0.35,
			ColdStart: 250 * time.Millisecond, Weight: 1},
		// MobileNet v2: the heavyweight DNN. Runs at ~100% CPU of its
		// 2-vCPU container (§6.5) → slack ≈ 0. Fig 6 drives it at
		// 3-8 req/s across a handful of containers → ~250 ms inference.
		{Name: "mobilenet-v2", Language: "Python", CPUMillis: 2000, MemoryMiB: 1024,
			MeanServiceTime: 250 * time.Millisecond, SCV: 0.25, Slack: 0.02,
			ColdStart: 500 * time.Millisecond, Weight: 1},
		// ShuffleNet v2: lightweight DNN, 1 vCPU.
		{Name: "shufflenet-v2", Language: "Python", CPUMillis: 1000, MemoryMiB: 512,
			MeanServiceTime: 150 * time.Millisecond, SCV: 0.25, Slack: 0.25,
			ColdStart: 400 * time.Millisecond, Weight: 1},
		// SqueezeNet: lightweight DNN used for the heterogeneous model
		// validation (Fig 4) at rates up to 100 req/s.
		{Name: "squeezenet", Language: "Python", CPUMillis: 1000, MemoryMiB: 512,
			MeanServiceTime: 100 * time.Millisecond, SCV: 0.25, Slack: 0.25,
			ColdStart: 400 * time.Millisecond, Weight: 1},
		// BinaryAlert: serverless malware detection (YARA scans).
		{Name: "binaryalert", Language: "Python", CPUMillis: 500, MemoryMiB: 256,
			MeanServiceTime: 50 * time.Millisecond, SCV: 1, Slack: 0.35,
			ColdStart: 250 * time.Millisecond, Weight: 1},
		// GeoFence: point-in-polygon checks; very light JS.
		{Name: "geofence", Language: "JavaScript", CPUMillis: 300, MemoryMiB: 128,
			MeanServiceTime: 10 * time.Millisecond, SCV: 1, Slack: 0.40,
			ColdStart: 150 * time.Millisecond, Weight: 1},
		// Image Resizer: JS driving a WASM (C) codec.
		{Name: "image-resizer", Language: "JavaScript, WASM (C)", CPUMillis: 800, MemoryMiB: 256,
			MeanServiceTime: 60 * time.Millisecond, SCV: 0.5, Slack: 0.30,
			ColdStart: 200 * time.Millisecond, Weight: 1},
	}
}

// ByName returns the catalog entry with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("functions: unknown function %q", name)
}

// MicroBenchmark returns the configurable micro-benchmark sized for the
// given mean service time, mirroring the paper's ability to "control the
// amount of CPU cycles consumed by each invocation" (§6.1).
func MicroBenchmark(mean time.Duration) Spec {
	s, _ := ByName("micro-benchmark")
	s.MeanServiceTime = mean
	return s
}

// IsDNN reports whether the named catalog function is one of the three DNN
// inference models (used by the Fig 7 harness, which plots DNN and non-DNN
// functions separately).
func IsDNN(name string) bool {
	switch name {
	case "mobilenet-v2", "shufflenet-v2", "squeezenet":
		return true
	}
	return false
}
