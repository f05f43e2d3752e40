package experiments

import (
	"fmt"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/core"
	"lass/internal/functions"
	"lass/internal/queuing"
	"lass/internal/workload"
	"lass/internal/xrand"
)

// Table1 reproduces the function catalog (paper Table 1).
func Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Functions used in the evaluation (Table 1)",
		Header: []string{"Function", "Language(s)", "Standard Size", "Mean Service", "Slack"},
	}
	for _, s := range functions.Catalog() {
		t.AddRow(
			s.Name,
			s.Language,
			fmt.Sprintf("%.1f vCPU + %d MB", float64(s.CPUMillis)/1000, s.MemoryMiB),
			s.MeanServiceTime.String(),
			fmt.Sprintf("%.0f%%", s.Slack*100),
		)
	}
	t.AddNote("sizes match Table 1; service-time means are calibrated (internal/functions)")
	return t
}

// Fig3 reproduces the homogeneous model validation (paper Fig 3): for each
// (μ, SLO deadline) panel and arrival rate λ ∈ {10..50}, provision the
// model-computed container count and measure the P95 waiting time. The SLO
// requires the 95th-percentile wait at or below the deadline.
func Fig3(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig3",
		Title:  "Model validation, homogeneous containers (Fig 3)",
		Header: []string{"mu(req/s)", "SLO(ms)", "lambda", "c(model)", "P95 wait(ms)", "met"},
	}
	duration := opt.dur(30*time.Minute, 4*time.Minute)
	panels := []struct {
		mu  float64
		slo time.Duration
	}{
		{5, 100 * time.Millisecond},
		{10, 100 * time.Millisecond},
		{5, 200 * time.Millisecond},
		{10, 200 * time.Millisecond},
	}
	violations := 0
	for _, panel := range panels {
		// Provision at the 99th percentile as Algorithm 1 is written
		// (§3.1 "say the 99th percentile"); the evaluation then measures
		// the 95th percentile against the deadline (§6.1), which is what
		// gives the model its margin in Fig 3.
		slo := queuing.SLO{Deadline: panel.slo, Percentile: 0.99, WaitingOnly: true}
		for lambda := 10.0; lambda <= 50; lambda += 10 {
			c, err := queuing.MinimalContainers(lambda, panel.mu, slo)
			if err != nil {
				return nil, err
			}
			spec := functions.MicroBenchmark(time.Duration(float64(time.Second) / panel.mu))
			spec.ColdStart = 0
			wl, err := workload.NewStatic(lambda)
			if err != nil {
				return nil, err
			}
			p, err := core.New(core.Config{
				Cluster: cluster.Config{Nodes: 8, CPUPerNode: 4000, MemPerNode: 16384},
				Seed:    opt.Seed ^ uint64(lambda) ^ uint64(panel.mu)<<8 ^ uint64(panel.slo),
				Functions: []core.FunctionConfig{{
					Spec: spec, SLO: slo, Workload: wl, Prewarm: c,
				}},
				DisableController: true,
			})
			if err != nil {
				return nil, err
			}
			res, err := p.Run(duration)
			if err != nil {
				return nil, err
			}
			p95 := res.Functions[spec.Name].Waits.Quantile(0.95)
			met := p95 <= panel.slo.Seconds()*1.10 // 10% measurement tolerance
			if !met {
				violations++
			}
			t.AddRow(
				fmt.Sprintf("%.0f", panel.mu),
				ms(panel.slo),
				fmt.Sprintf("%.0f", lambda),
				fmt.Sprintf("%d", c),
				msF(p95),
				fmt.Sprintf("%v", met),
			)
		}
	}
	t.AddNote("expected shape: every P95 at or below its SLO deadline (red dashed line in the paper)")
	t.AddNote("rows violating (with 10%% tolerance): %d / %d", violations, len(t.Rows))
	return t, nil
}

// Fig4 reproduces the heterogeneous model validation (paper Fig 4):
// provision SqueezeNet for a static rate, randomly deflate a proportion of
// its containers, let LaSS react through the Alves worst-case model, and
// measure the P95 waiting time against the 100 ms SLO.
func Fig4(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig4",
		Title:  "Model validation, heterogeneous containers (Fig 4)",
		Header: []string{"lambda", "deflated%", "P95 wait(ms)", "met"},
	}
	duration := opt.dur(20*time.Minute, 4*time.Minute)
	warmup := opt.dur(2*time.Minute, time.Minute)
	rates := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if opt.Quick {
		rates = []float64{10, 40, 70, 100}
	}
	proportions := []float64{0.25, 0.50, 0.75, 1.00}
	// Provision at p99 (Algorithm 1), measure p95 (§6.1) — see Fig3.
	slo := queuing.SLO{Deadline: 100 * time.Millisecond, Percentile: 0.99, WaitingOnly: true}
	spec, err := functions.ByName("squeezenet")
	if err != nil {
		return nil, err
	}
	violations := 0
	for _, prop := range proportions {
		for _, lambda := range rates {
			c, err := queuing.MinimalContainers(lambda, spec.ServiceRate(), slo)
			if err != nil {
				return nil, err
			}
			wl, err := workload.NewStatic(lambda)
			if err != nil {
				return nil, err
			}
			p, err := core.New(core.Config{
				// Large cluster: the paper runs this "with no resource
				// constraints".
				Cluster: cluster.Config{Nodes: 30, CPUPerNode: 4000, MemPerNode: 16384},
				Seed:    opt.Seed ^ uint64(lambda)<<4 ^ uint64(prop*100),
				Controller: controller.Config{
					NoInflateOnSlack: true, // keep the manual deflation in place
				},
				Functions: []core.FunctionConfig{{
					Spec: spec, SLO: slo, Workload: wl, Prewarm: c,
				}},
			})
			if err != nil {
				return nil, err
			}
			// After warmup, randomly deflate the chosen proportion.
			rng := xrand.New(opt.Seed ^ 0xf19_4 ^ uint64(lambda))
			prop := prop
			p.Engine.Schedule(warmup, func() {
				cs := p.Cluster.ContainersOf(spec.Name)
				perm := rng.Perm(len(cs))
				n := int(prop * float64(len(cs)))
				for i := 0; i < n && i < len(cs); i++ {
					target := cs[perm[i]]
					// Random deflation within the τ = 30% envelope.
					frac := rng.Uniform(0.70, 0.95)
					newCPU := int64(frac * float64(target.CPUStandard))
					_ = p.Cluster.Resize(target, newCPU)
					p.Queues[spec.Name].Resized(target)
				}
			})
			res, err := p.Run(duration)
			if err != nil {
				return nil, err
			}
			p95 := res.Functions[spec.Name].Waits.Quantile(0.95)
			met := p95 <= 0.100*1.15
			if !met {
				violations++
			}
			t.AddRow(
				fmt.Sprintf("%.0f", lambda),
				fmt.Sprintf("%.0f", prop*100),
				msF(p95),
				fmt.Sprintf("%v", met),
			)
		}
	}
	t.AddNote("expected shape: P95 waits stay well below the 100ms SLO at every heterogeneity level")
	t.AddNote("rows violating (with 15%% tolerance): %d / %d", violations, len(t.Rows))
	return t, nil
}
