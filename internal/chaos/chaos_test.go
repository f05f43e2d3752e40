package chaos

import (
	"strings"
	"testing"
	"time"
)

func TestWindowValidationRejections(t *testing.T) {
	s := time.Second
	cases := []struct {
		name string
		ws   []Window
		want string
	}{
		{"negative start", []Window{{Start: -1 * s, End: 2 * s}}, "before time zero"},
		{"zero duration", []Window{{Start: 3 * s, End: 3 * s}}, "non-positive duration"},
		{"negative duration", []Window{{Start: 5 * s, End: 2 * s}}, "non-positive duration"},
		{"overlap", []Window{{Start: 0, End: 10 * s}, {Start: 5 * s, End: 15 * s}}, "overlap"},
		{"overlap out of order", []Window{{Start: 5 * s, End: 15 * s}, {Start: 0, End: 10 * s}}, "overlap"},
		{"nested", []Window{{Start: 0, End: 20 * s}, {Start: 5 * s, End: 10 * s}}, "overlap"},
	}
	for _, c := range cases {
		err := ValidateWindows(c.ws)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Touching windows ([0,5) then [5,10)) and unordered disjoint windows
	// are fine.
	if err := ValidateWindows([]Window{{Start: 5 * s, End: 10 * s}, {Start: 0, End: 5 * s}}); err != nil {
		t.Errorf("touching windows rejected: %v", err)
	}
}

func TestFaultValidation(t *testing.T) {
	ge := &GilbertElliott{MeanUp: time.Minute, MeanDown: 10 * time.Second}
	cases := []struct {
		name string
		f    Fault
		want string
	}{
		{"no process", Fault{Kind: FaultSite, Site: 0}, "exactly one"},
		{"both processes", Fault{Kind: FaultSite, Site: 0, GE: ge, Windows: []Window{{End: time.Second}}}, "exactly one"},
		{"site out of range", Fault{Kind: FaultSite, Site: 9, GE: ge}, "out of range"},
		{"link self loop", Fault{Kind: FaultLink, From: 1, To: 1, GE: ge}, "from and to"},
		{"link endpoint range", Fault{Kind: FaultLink, From: 0, To: -2, GE: ge}, "out of range"},
		{"empty group", Fault{Kind: FaultGroup, GE: ge}, "no member sites"},
		{"negative lag", Fault{Kind: FaultGroup, Sites: []int{0, 1}, Lag: -time.Second, GE: ge}, "negative cascade lag"},
		{"bad GE", Fault{Kind: FaultSite, Site: 0, GE: &GilbertElliott{MeanUp: -1, MeanDown: 1}}, "must be positive"},
	}
	for _, c := range cases {
		_, err := New(Config{Sites: 3, Seed: 1, Faults: []Fault{c.f}})
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if _, err := New(Config{Sites: 0}); err == nil {
		t.Error("zero-site config accepted")
	}
}

func TestStaticWindowsReplay(t *testing.T) {
	s := time.Second
	e := mustNew(Config{Sites: 2, Faults: []Fault{
		{Kind: FaultCoordinator, Windows: []Window{{Start: 10 * s, End: 20 * s}, {Start: 40 * s, End: 41 * s}}},
	}})
	for _, c := range []struct {
		at   time.Duration
		down bool
	}{
		{0, false}, {10 * s, true}, {15 * s, true}, {20 * s, false},
		{39 * s, false}, {40 * s, true}, {41 * s, false},
	} {
		if got := e.CoordinatorDown(c.at); got != c.down {
			t.Errorf("CoordinatorDown(%v) = %v, want %v", c.at, got, c.down)
		}
	}
	// Coordinator faults never darken sites or links.
	if e.SiteDown(0, 15*s) || e.LinkDown(0, 1, 15*s) {
		t.Error("coordinator fault leaked into site/link state")
	}
}

func TestQueryOrderIndependence(t *testing.T) {
	cfg := Config{Sites: 4, Seed: 99, Faults: []Fault{
		{Kind: FaultSite, Site: 1, GE: &GilbertElliott{MeanUp: 30 * time.Second, MeanDown: 10 * time.Second}},
		{Kind: FaultLink, From: 0, To: 2, Bidirectional: true, GE: &GilbertElliott{MeanUp: 20 * time.Second, MeanDown: 5 * time.Second}},
		{Kind: FaultGroup, Sites: []int{2, 3}, Lag: 2 * time.Second, GE: &GilbertElliott{MeanUp: time.Minute, MeanDown: 15 * time.Second}},
	}}
	// Forward sweep on one engine, backward sweep on a sibling built from
	// the same config: every answer must agree even though the lazy
	// extension materialized in opposite orders.
	fwd := mustNew(cfg)
	bwd := mustNew(cfg)
	const steps = 600
	type key struct {
		what string
		at   time.Duration
	}
	got := map[key]bool{}
	for i := 0; i <= steps; i++ {
		at := time.Duration(i) * 500 * time.Millisecond
		got[key{"site1", at}] = fwd.SiteDown(1, at)
		got[key{"link02", at}] = fwd.LinkDown(0, 2, at)
		got[key{"link20", at}] = fwd.LinkDown(2, 0, at)
		got[key{"site2", at}] = fwd.SiteDown(2, at)
		got[key{"site3", at}] = fwd.SiteDown(3, at)
	}
	for i := steps; i >= 0; i-- {
		at := time.Duration(i) * 500 * time.Millisecond
		for _, w := range []struct {
			what string
			down bool
		}{
			{"site3", bwd.SiteDown(3, at)},
			{"site2", bwd.SiteDown(2, at)},
			{"link20", bwd.LinkDown(2, 0, at)},
			{"link02", bwd.LinkDown(0, 2, at)},
			{"site1", bwd.SiteDown(1, at)},
		} {
			if got[key{w.what, at}] != w.down {
				t.Fatalf("%s at %v: forward %v, backward %v", w.what, at, got[key{w.what, at}], w.down)
			}
		}
	}
	// And the process actually fired: over 300s with a 30s/10s cycle the
	// site-1 process should be down somewhere.
	down := 0
	for i := 0; i <= steps; i++ {
		if got[key{"site1", time.Duration(i) * 500 * time.Millisecond}] {
			down++
		}
	}
	if down == 0 || down == steps+1 {
		t.Errorf("site-1 GE process never transitioned (down %d/%d samples)", down, steps+1)
	}
}

func TestSameSeedSameRealization(t *testing.T) {
	cfg := Config{Sites: 3, Seed: 7, Faults: []Fault{
		{Kind: FaultCoordinator, GE: &GilbertElliott{MeanUp: 40 * time.Second, MeanDown: 12 * time.Second}},
		{Kind: FaultSite, Site: 0, GE: &GilbertElliott{MeanUp: 25 * time.Second, MeanDown: 8 * time.Second, StartDown: true}},
	}}
	a, b := mustNew(cfg), mustNew(cfg)
	diff := mustNew(Config{Sites: 3, Seed: 8, Faults: cfg.Faults})
	same, differs := true, false
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * 300 * time.Millisecond
		if a.CoordinatorDown(at) != b.CoordinatorDown(at) || a.SiteDown(0, at) != b.SiteDown(0, at) {
			same = false
		}
		if a.CoordinatorDown(at) != diff.CoordinatorDown(at) || a.SiteDown(0, at) != diff.SiteDown(0, at) {
			differs = true
		}
	}
	if !same {
		t.Error("same seed produced different realizations")
	}
	if !differs {
		t.Error("different seeds produced identical realizations (suspicious)")
	}
}

func TestGroupCascadeLag(t *testing.T) {
	// A static group schedule with a 5s lag: member 0 fails on schedule,
	// member 1 five seconds later, member 2 ten seconds later.
	s := time.Second
	e := mustNew(Config{Sites: 3, Faults: []Fault{
		{Kind: FaultGroup, Sites: []int{0, 1, 2}, Lag: 5 * s, Windows: []Window{{Start: 10 * s, End: 20 * s}}},
	}})
	for _, c := range []struct {
		site int
		at   time.Duration
		down bool
	}{
		{0, 10 * s, true}, {0, 19 * s, true}, {0, 20 * s, false},
		{1, 10 * s, false}, {1, 15 * s, true}, {1, 24 * s, true}, {1, 25 * s, false},
		{2, 15 * s, false}, {2, 20 * s, true}, {2, 29 * s, true}, {2, 30 * s, false},
	} {
		if got := e.SiteDown(c.site, c.at); got != c.down {
			t.Errorf("SiteDown(%d, %v) = %v, want %v", c.site, c.at, got, c.down)
		}
	}
}

func TestStartDown(t *testing.T) {
	e := mustNew(Config{Sites: 1, Seed: 4, Faults: []Fault{
		{Kind: FaultSite, Site: 0, GE: &GilbertElliott{MeanUp: time.Hour, MeanDown: time.Hour, StartDown: true}},
	}})
	if !e.SiteDown(0, 0) {
		t.Error("StartDown process is up at time zero")
	}
}

func TestOutOfRangeQueriesAreUp(t *testing.T) {
	e := mustNew(Config{Sites: 2, Faults: []Fault{
		{Kind: FaultSite, Site: 0, Windows: []Window{{Start: 0, End: time.Hour}}},
	}})
	if e.SiteDown(-1, time.Second) || e.SiteDown(5, time.Second) {
		t.Error("out-of-range site query reported down")
	}
	if e.LinkDown(0, 1, time.Second) {
		t.Error("link with no fault reported down")
	}
	if e.SiteDown(0, -time.Second) {
		t.Error("negative-time query reported down")
	}
}

// mustNew is New for configurations known valid.
func mustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}
