// Package chaos is a seeded fault engine for the federation simulator.
//
// A chaos Engine answers three point-in-time questions — is the
// coordinator role dark, is a site dark, is a directed link dark — for
// any simulated instant, from a declarative list of Faults. Fault
// processes are either static window schedules (replayed bit-for-bit,
// subsuming hand-scheduled coordinator outages) or seeded
// Gilbert-Elliott up/down processes whose exponential holding times are
// drawn from private internal/xrand streams forked per fault in
// declaration order. Queries never consume randomness from a shared
// stream, so answers are independent of query order and of how many
// sweep workers interrogate sibling engines concurrently: the same
// (Config, Seed) always yields the same failure realization.
//
// Timelines extend lazily: a Gilbert-Elliott process materializes its
// down-windows only as far as the latest instant queried, so engines are
// horizon-free and cost nothing for the portion of the run they never
// see.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"lass/internal/xrand"
)

// Window is a half-open interval [Start, End) of simulated time during
// which a fault target is dark.
type Window struct {
	Start time.Duration `scenario:"start"`
	End   time.Duration `scenario:"end"`
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.Start && t < w.End }

// ValidateWindows rejects malformed static schedules: negative starts,
// non-positive durations, and overlapping (or touching-out-of-order)
// windows. Windows may be listed in any order; they are compared sorted.
func ValidateWindows(ws []Window) error {
	for i, w := range ws {
		if w.Start < 0 {
			return fmt.Errorf("window %d starts at %v, before time zero", i, w.Start)
		}
		if w.End <= w.Start {
			return fmt.Errorf("window %d [%v, %v) has non-positive duration", i, w.Start, w.End)
		}
	}
	if len(ws) < 2 {
		return nil
	}
	sorted := append([]Window(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Start < sorted[i-1].End {
			return fmt.Errorf("windows [%v, %v) and [%v, %v) overlap",
				sorted[i-1].Start, sorted[i-1].End, sorted[i].Start, sorted[i].End)
		}
	}
	return nil
}

// sortWindows returns a start-sorted copy of a validated schedule.
func sortWindows(ws []Window) []Window {
	sorted := append([]Window(nil), ws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	return sorted
}

// GilbertElliott parameterizes a two-state up/down process: holding
// times are exponential with means MeanUp and MeanDown, alternating,
// starting in the up state.
type GilbertElliott struct {
	MeanUp   time.Duration `scenario:"mean-up"`
	MeanDown time.Duration `scenario:"mean-down"`
}

func (g GilbertElliott) validate() error {
	if g.MeanUp <= 0 || g.MeanDown <= 0 {
		return fmt.Errorf("gilbert-elliott means must be positive (up %v, down %v)", g.MeanUp, g.MeanDown)
	}
	return nil
}

// FaultKind names a fault target.
type FaultKind int

const (
	// FaultCoordinator darkens the coordinator role: allocation epochs
	// that fire (or deliver) while it is down are missed. It does not
	// touch any site's data plane.
	FaultCoordinator FaultKind = iota
	// FaultSite darkens one site's network: every link to and from the
	// site is down while the fault holds. Local ingress keeps arriving
	// and being served from local capacity.
	FaultSite
	// FaultLink darkens the directed link From→To (and To→From when
	// Bidirectional is set), leaving both endpoints otherwise reachable.
	FaultLink
	// FaultGroup darkens a correlated set of sites from one shared
	// process; member k's outage is shifted k×Lag later, modeling
	// cascading failures.
	FaultGroup
)

func (k FaultKind) String() string {
	switch k {
	case FaultCoordinator:
		return "coordinator"
	case FaultSite:
		return "site"
	case FaultLink:
		return "link"
	case FaultGroup:
		return "group"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault declares one failure process against one target. Exactly one of
// Windows (a static schedule) or GE (a seeded up/down process) drives
// it.
type Fault struct {
	Kind FaultKind `scenario:"kind,required"`

	// Site is the target index for FaultSite.
	Site int `scenario:"site"`
	// From and To are the directed-link endpoints for FaultLink;
	// Bidirectional also darkens the reverse direction.
	From          int  `scenario:"from"`
	To            int  `scenario:"to"`
	Bidirectional bool `scenario:"bidirectional"`
	// Sites are the members of a FaultGroup; Lag staggers member k's
	// outage by k×Lag (cascade). Lag zero fails the group in lockstep.
	Sites []int         `scenario:"sites"`
	Lag   time.Duration `scenario:"lag"`

	// Windows replays a fixed schedule bit-for-bit.
	Windows []Window `scenario:"windows,window"`
	// GE draws the schedule from a seeded Gilbert-Elliott process.
	GE *GilbertElliott `scenario:",inline"`
}

func (f Fault) validate(i, nsites int) error {
	if (len(f.Windows) > 0) == (f.GE != nil) {
		return fmt.Errorf("fault %d (%v): exactly one of windows or a gilbert-elliott process must be set", i, f.Kind)
	}
	if err := ValidateWindows(f.Windows); err != nil {
		return fmt.Errorf("fault %d (%v): %w", i, f.Kind, err)
	}
	if f.GE != nil {
		if err := f.GE.validate(); err != nil {
			return fmt.Errorf("fault %d (%v): %w", i, f.Kind, err)
		}
	}
	site := func(s int, role string) error {
		if s < 0 || s >= nsites {
			return fmt.Errorf("fault %d (%v): %s site %d out of range [0, %d)", i, f.Kind, role, s, nsites)
		}
		return nil
	}
	switch f.Kind {
	case FaultCoordinator:
	case FaultSite:
		if err := site(f.Site, "target"); err != nil {
			return err
		}
	case FaultLink:
		if err := site(f.From, "from"); err != nil {
			return err
		}
		if err := site(f.To, "to"); err != nil {
			return err
		}
		if f.From == f.To {
			return fmt.Errorf("fault %d (link): from and to are both site %d", i, f.From)
		}
	case FaultGroup:
		if len(f.Sites) == 0 {
			return fmt.Errorf("fault %d (group): no member sites", i)
		}
		for _, s := range f.Sites {
			if err := site(s, "member"); err != nil {
				return err
			}
		}
		if f.Lag < 0 {
			return fmt.Errorf("fault %d (group): negative cascade lag %v", i, f.Lag)
		}
	default:
		return fmt.Errorf("fault %d: unknown kind %d", i, int(f.Kind))
	}
	return nil
}

// Config declares a chaos realization: the fleet size the faults target,
// the master seed every stochastic process forks from, and the fault
// list. Fault order matters only for seeding — each fault forks its
// private stream from the master in declaration order.
type Config struct {
	// Sites is the number of edge sites fault targets index into.
	Sites int
	// Seed is the master seed; zero is a valid (fixed) seed.
	Seed uint64
	// Faults are the failure processes.
	Faults []Fault
}

// timeline is one fault process's materialized down-schedule. Static
// schedules are fully materialized at build time; Gilbert-Elliott
// schedules extend lazily from a private seeded stream as later
// instants are queried.
type timeline struct {
	windows []Window

	// Stochastic extension state; rng nil means the schedule is static
	// and complete.
	rng      *xrand.Rand
	ge       GilbertElliott
	frontier time.Duration // materialized up to here
	down     bool          // state at the frontier
}

func newStaticTimeline(ws []Window) *timeline {
	return &timeline{windows: sortWindows(ws)}
}

func newGETimeline(g GilbertElliott, rng *xrand.Rand) *timeline {
	return &timeline{rng: rng, ge: g}
}

// extend materializes the schedule through t (exclusive of the state
// beyond it). Holding times are drawn alternately from the up and down
// exponentials; a down holding closes one window.
func (tl *timeline) extend(t time.Duration) {
	for tl.frontier <= t {
		if tl.down {
			hold := tl.rng.Exp(1 / tl.ge.MeanDown.Seconds())
			end := tl.frontier + time.Duration(hold*float64(time.Second))
			if end <= tl.frontier {
				end = tl.frontier + 1 // degenerate draw: keep time advancing
			}
			tl.windows = append(tl.windows, Window{Start: tl.frontier, End: end})
			tl.frontier = end
			tl.down = false
			continue
		}
		hold := tl.rng.Exp(1 / tl.ge.MeanUp.Seconds())
		next := tl.frontier + time.Duration(hold*float64(time.Second))
		if next <= tl.frontier {
			next = tl.frontier + 1
		}
		tl.frontier = next
		tl.down = true
	}
}

// downAt reports whether the process is dark at t. Binary search over
// the materialized prefix keeps answers independent of query order.
func (tl *timeline) downAt(t time.Duration) bool {
	if t < 0 {
		return false
	}
	if tl.rng != nil && tl.frontier <= t {
		tl.extend(t)
	}
	i := sort.Search(len(tl.windows), func(i int) bool { return tl.windows[i].End > t })
	return i < len(tl.windows) && tl.windows[i].Contains(t)
}

// procRef points a fault target at a timeline, shifted by a cascade
// offset: the target is dark at t when the timeline is dark at t-offset.
type procRef struct {
	tl     *timeline
	offset time.Duration
}

func (p procRef) downAt(t time.Duration) bool { return p.tl.downAt(t - p.offset) }

// Engine answers point-in-time darkness queries for a fault
// configuration. It is not safe for concurrent use; sweeps give each
// replicate its own engine.
type Engine struct {
	nsites int
	coord  []procRef
	site   [][]procRef
	link   map[[2]int][]procRef
}

// New validates cfg and builds its engine. Every fault — static or
// stochastic — forks one private stream from the master seed in
// declaration order, so a fault's realization is a pure function of
// (Seed, declaration index) and queries can interleave freely without
// perturbing any other fault's draws.
func New(cfg Config) (*Engine, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("chaos: config needs a positive site count, got %d", cfg.Sites)
	}
	e := &Engine{
		nsites: cfg.Sites,
		site:   make([][]procRef, cfg.Sites),
		link:   make(map[[2]int][]procRef),
	}
	master := xrand.New(cfg.Seed)
	for i, f := range cfg.Faults {
		if err := f.validate(i, cfg.Sites); err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		rng := master.Fork()
		var tl *timeline
		if f.GE != nil {
			tl = newGETimeline(*f.GE, rng)
		} else {
			tl = newStaticTimeline(f.Windows)
		}
		switch f.Kind {
		case FaultCoordinator:
			e.coord = append(e.coord, procRef{tl: tl})
		case FaultSite:
			e.site[f.Site] = append(e.site[f.Site], procRef{tl: tl})
		case FaultLink:
			k := [2]int{f.From, f.To}
			e.link[k] = append(e.link[k], procRef{tl: tl})
			if f.Bidirectional {
				r := [2]int{f.To, f.From}
				e.link[r] = append(e.link[r], procRef{tl: tl})
			}
		case FaultGroup:
			for k, s := range f.Sites {
				e.site[s] = append(e.site[s], procRef{tl: tl, offset: time.Duration(k) * f.Lag})
			}
		}
	}
	return e, nil
}

func anyDown(ps []procRef, t time.Duration) bool {
	for _, p := range ps {
		if p.downAt(t) {
			return true
		}
	}
	return false
}

// CoordinatorDown reports whether any coordinator-role fault holds at t.
// The role is distinct from the site hosting it: a coordinator fault
// silences the global allocator without touching the host site's data
// plane.
func (e *Engine) CoordinatorDown(at time.Duration) bool { return anyDown(e.coord, at) }

// SiteDown reports whether site is network-dark at t: all of its links
// are down, but local ingress and local capacity still work.
func (e *Engine) SiteDown(site int, at time.Duration) bool {
	if site < 0 || site >= e.nsites {
		return false
	}
	return anyDown(e.site[site], at)
}

// LinkDown reports whether the directed link from→to has a link-level
// fault at t. It does not fold in endpoint SiteDown state; callers that
// want full reachability use both (as federation's fault view does).
func (e *Engine) LinkDown(from, to int, at time.Duration) bool {
	if len(e.link) == 0 {
		return false
	}
	return anyDown(e.link[[2]int{from, to}], at)
}
