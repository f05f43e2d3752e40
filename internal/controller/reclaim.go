package controller

import (
	"sort"

	"lass/internal/cluster"
)

// floorCPU returns the deflation floor (1-τ)·standard for a function.
func (ctl *Controller) floorCPU(f *Function) int64 {
	floor := int64(float64(f.Spec.CPUMillis) * (1 - deflationThreshold))
	if floor < 1 {
		floor = 1
	}
	return floor
}

// stepCPU returns the per-iteration deflation increment for a function.
func (ctl *Controller) stepCPU(f *Function) int64 {
	step := int64(float64(f.Spec.CPUMillis) * deflationIncrement)
	if step < 1 {
		step = 1
	}
	return step
}

// byReclaimOrder sorts containers for termination: lowest CPU allocation
// first (§3.3: "containers with the lowest resource allocations are marked
// for termination"), newest first among equals, so the longest-warm
// containers survive.
func byReclaimOrder(cs []*cluster.Container) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].CPUCurrent != cs[j].CPUCurrent {
			return cs[i].CPUCurrent < cs[j].CPUCurrent
		}
		return cs[i].ID > cs[j].ID
	})
}

// reconcileNormal brings one function's pool to want containers in the
// absence of resource pressure (§3.3): deflated containers are
// re-inflated, missing containers are created (reviving drained ones
// first), and surplus containers are marked for lazy termination. The
// local allocation path passes the model-computed desire; the external
// -grant path may pass a larger count to pre-provision for offloads.
func (ctl *Controller) reconcileNormal(f *Function, want int) error {
	now := ctl.hooks.Now()
	// Restore deflated containers to standard size while headroom allows.
	if !ctl.cfg.NoInflateOnSlack {
		for _, c := range ctl.liveContainers(f.Spec.Name) {
			if c.Deflated() {
				if err := ctl.cluster.Resize(c, c.CPUStandard); err == nil {
					ctl.stats.Inflations++
					if ctl.hooks.OnResize != nil {
						ctl.hooks.OnResize(c)
					}
				}
			}
		}
	}
	live := ctl.liveContainers(f.Spec.Name)
	switch {
	case len(live) < want:
		deficit := want - len(live)
		// Revive lazily-drained containers first: they are warm (§3.3).
		draining := ctl.drainingContainers(f.Spec.Name)
		sort.Slice(draining, func(i, j int) bool {
			return ctl.drained[draining[i].ID] > ctl.drained[draining[j].ID]
		})
		for _, c := range draining {
			if deficit == 0 {
				break
			}
			if ctl.revive(c) {
				deficit--
			}
		}
		for i := 0; i < deficit; i++ {
			if _, err := ctl.createContainer(f, f.Spec.CPUMillis); err != nil {
				// Fragmentation can block a standard container even
				// without aggregate pressure; the deflation policy may
				// create a smaller one instead (§4.2).
				if ctl.cfg.Policy == Deflation {
					if ctl.createFragment(f, f.Spec.CPUMillis) {
						continue
					}
				}
				break
			}
		}
	case len(live) > want:
		surplus := len(live) - want
		byReclaimOrder(live)
		for _, c := range live {
			if surplus == 0 {
				break
			}
			switch c.State() {
			case cluster.Starting:
				// Never entered service; reclaim immediately.
				ctl.terminate(c)
				surplus--
			case cluster.Running:
				ctl.markDraining(c, now)
				surplus--
			}
		}
	}
	return nil
}

// shrinkTo reduces a function's live CPU to at most grant using the
// configured reclamation policy (§4.2). Draining containers are terminated
// outright first: during overload reclamation is immediate, not lazy.
func (ctl *Controller) shrinkTo(f *Function, grant int64) error {
	for _, c := range ctl.drainingContainers(f.Spec.Name) {
		ctl.terminate(c)
	}
	live := ctl.liveContainers(f.Spec.Name)
	cur := liveCPU(live)
	if cur <= grant {
		return nil
	}
	if ctl.cfg.Policy == Deflation {
		cur = ctl.deflatePool(f, live, cur, grant)
		if cur <= grant {
			return nil
		}
		live = ctl.liveContainers(f.Spec.Name)
	}
	// Termination policy — or deflation exhausted at τ (§4.2: "some
	// containers are terminated until the aggregate CPU allocation ...
	// equals that of the non-deflated ones").
	byReclaimOrder(live)
	for _, c := range live {
		if cur <= grant {
			break
		}
		cur -= c.CPUCurrent
		ctl.terminate(c)
	}
	return nil
}

// deflatePool iteratively deflates all of a function's containers in small
// increments until the pool fits the grant or every container reaches the
// τ floor (§4.2). Returns the pool's resulting CPU.
func (ctl *Controller) deflatePool(f *Function, live []*cluster.Container, cur, grant int64) int64 {
	floor := ctl.floorCPU(f)
	step := ctl.stepCPU(f)
	for cur > grant {
		progressed := false
		for _, c := range live {
			if cur <= grant {
				break
			}
			if c.CPUCurrent <= floor {
				continue
			}
			target := c.CPUCurrent - step
			if target < floor {
				target = floor
			}
			// Do not reclaim more than still needed.
			if over := cur - grant; c.CPUCurrent-target > over {
				target = c.CPUCurrent - over
			}
			delta := c.CPUCurrent - target
			if delta <= 0 {
				continue
			}
			if err := ctl.cluster.Resize(c, target); err != nil {
				continue
			}
			cur -= delta
			progressed = true
			ctl.stats.Deflations++
			if ctl.hooks.OnResize != nil {
				ctl.hooks.OnResize(c)
			}
		}
		if !progressed {
			break
		}
	}
	return cur
}

// growTo raises a function's live CPU toward grant: inflate deflated
// containers first (restoring capacity when pressure eases, Fig 8c), then
// create standard containers, and — under the deflation policy — fill any
// remaining fragment with one deflated container, which is how deflation
// achieves strictly more concurrency than termination (§4.2).
func (ctl *Controller) growTo(f *Function, grant int64) error {
	live := ctl.liveContainers(f.Spec.Name)
	cur := liveCPU(live)
	if cur >= grant {
		return nil
	}
	budget := grant - cur
	// Inflate existing deflated containers toward standard.
	for _, c := range live {
		if budget == 0 {
			break
		}
		if !c.Deflated() {
			continue
		}
		want := c.CPUStandard - c.CPUCurrent
		if want > budget {
			want = budget
		}
		target := c.CPUCurrent + want
		// The node may lack headroom; inflate as far as it allows.
		if free := c.Node().CPUFree(); want > free {
			target = c.CPUCurrent + free
		}
		if target <= c.CPUCurrent {
			continue
		}
		delta := target - c.CPUCurrent
		if err := ctl.cluster.Resize(c, target); err != nil {
			continue
		}
		budget -= delta
		ctl.stats.Inflations++
		if ctl.hooks.OnResize != nil {
			ctl.hooks.OnResize(c)
		}
	}
	// Create standard containers while the budget allows.
	for budget >= f.Spec.CPUMillis {
		if _, err := ctl.createContainer(f, f.Spec.CPUMillis); err != nil {
			break // fragmentation; fall through to fragment filling
		}
		budget -= f.Spec.CPUMillis
	}
	// Deflation policy: one more (deflated) container in the remainder.
	if ctl.cfg.Policy == Deflation && budget >= ctl.floorCPU(f) {
		if ctl.createFragment(f, budget) {
			return nil
		}
	}
	return nil
}

// createFragment creates one deflated container no larger than budget (and
// no larger than standard), sized to the largest placeable fragment at or
// above the τ floor. Reports success.
func (ctl *Controller) createFragment(f *Function, budget int64) bool {
	floor := ctl.floorCPU(f)
	size := budget
	if size > f.Spec.CPUMillis {
		size = f.Spec.CPUMillis
	}
	if largest := ctl.cluster.LargestFreeCPU(); size > largest {
		size = largest
	}
	if size < floor {
		return false
	}
	_, err := ctl.createContainer(f, size)
	return err == nil
}

// Provision pre-warms a function with n standard containers, bypassing the
// model — used by experiments that start from a known allocation.
func (ctl *Controller) Provision(function string, n int) error {
	f, ok := ctl.funcs[function]
	if !ok {
		return errUnknown(function)
	}
	for i := 0; i < n; i++ {
		if _, err := ctl.createContainer(f, f.Spec.CPUMillis); err != nil {
			return err
		}
	}
	return nil
}

func errUnknown(fn string) error {
	return &unknownFunctionError{fn}
}

type unknownFunctionError struct{ fn string }

func (e *unknownFunctionError) Error() string {
	return "controller: unknown function " + e.fn
}
