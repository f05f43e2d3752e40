package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"lass/internal/federation"
)

var quick = Options{Seed: 7, Quick: true}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("no cell (%d,%d) in %s", row, col, tab.ID)
	}
	return tab.Rows[row][col]
}

func cellF(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell(t, tab, row, col), "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d)=%q not numeric", tab.ID, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestTablePrinting(t *testing.T) {
	tab := Table1()
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"table1", "mobilenet-v2", "2.0 vCPU + 1024 MB", "geofence"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows=%d want 7", len(tab.Rows))
	}
}

func TestRegistryRunUnknown(t *testing.T) {
	if _, err := Run("nope", quick); err == nil {
		t.Error("want error for unknown experiment")
	}
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Errorf("IDs()=%d registry=%d", len(ids), len(Registry))
	}
	if strings.HasPrefix(ids[0], "ablation") {
		t.Error("paper experiments should sort first")
	}
}

func TestFig3ShapeHolds(t *testing.T) {
	tab, err := Fig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 20 {
		t.Fatalf("rows=%d want 20 (4 panels x 5 rates)", len(tab.Rows))
	}
	violations := 0
	for i := range tab.Rows {
		if cell(t, tab, i, 5) != "true" {
			violations++
		}
	}
	if violations > 1 {
		t.Errorf("%d/20 Fig3 points violate the SLO; the model should provision adequately", violations)
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	tab, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 {
		t.Fatalf("rows=%d want 16 (4 proportions x 4 rates)", len(tab.Rows))
	}
	violations := 0
	for i := range tab.Rows {
		if cell(t, tab, i, 3) != "true" {
			violations++
		}
	}
	if violations > 1 {
		t.Errorf("%d/16 Fig4 points violate the SLO under heterogeneity", violations)
	}
}

func TestFig5ShapeHolds(t *testing.T) {
	tab, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "1000" {
		t.Fatalf("last row %v", last)
	}
	// Stable solver under 100ms at 1000 containers (paper's headline).
	if v := cellF(t, tab, len(tab.Rows)-1, 1); v > 100 {
		t.Errorf("+10%% solve at 1000 containers took %.1fms > 100ms", v)
	}
	// Naive implementation must fail by 1000 containers.
	if last[3] != "failed" {
		t.Errorf("naive implementation unexpectedly healthy at 1000 containers: %v", last[3])
	}
	// And must succeed at 10 containers.
	if tab.Rows[0][3] == "failed" {
		t.Error("naive implementation should work at 10 containers")
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	tab, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Containers at the micro peak (row with λ=30) must exceed those at
	// the start (λ=5).
	var microAtPeak, microAtStart, mobileAtPeak, mobileAtStart float64
	for i := range tab.Rows {
		switch cell(t, tab, i, 1) {
		case "30":
			microAtPeak = cellF(t, tab, i, 2)
		}
		if i == 0 {
			microAtStart = cellF(t, tab, i, 2)
		}
	}
	for i := range tab.Rows {
		if cell(t, tab, i, 3) == "8" {
			mobileAtPeak = cellF(t, tab, i, 4)
		}
		if cell(t, tab, i, 3) == "3" && mobileAtStart == 0 {
			mobileAtStart = cellF(t, tab, i, 4)
		}
	}
	if microAtPeak <= microAtStart {
		t.Errorf("micro containers: peak %v <= start %v", microAtPeak, microAtStart)
	}
	if mobileAtPeak <= mobileAtStart {
		t.Errorf("mobilenet containers: peak %v <= start %v", mobileAtPeak, mobileAtStart)
	}
}

func TestFig7ShapeHolds(t *testing.T) {
	tab, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	// 6 functions x 8 deflation levels.
	if len(tab.Rows) != 48 {
		t.Fatalf("rows=%d want 48", len(tab.Rows))
	}
	// Find mobilenet at 30% deflation: multiplier >= 1.3; geofence at
	// 30%: <= 1.1.
	for i := range tab.Rows {
		fn, defl := cell(t, tab, i, 0), cell(t, tab, i, 2)
		mult := cellF(t, tab, i, 4)
		if fn == "mobilenet-v2" && defl == "30" && mult < 1.25 {
			t.Errorf("mobilenet at 30%% deflation multiplier %.2f; should degrade immediately", mult)
		}
		if fn == "geofence" && defl == "30" && mult > 1.15 {
			t.Errorf("geofence at 30%% deflation multiplier %.2f; should be cheap", mult)
		}
		// Monotonicity within each function block (rows are ordered).
		if i > 0 && cell(t, tab, i-1, 0) == fn && cellF(t, tab, i-1, 4) > mult+0.05 {
			t.Errorf("%s: multiplier decreased with more deflation at row %d", fn, i)
		}
	}
}

func TestFig8ShapeHolds(t *testing.T) {
	tab, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Parse the utilization note: deflation >= termination - 0.5pt.
	var term, defl float64
	for _, n := range tab.Notes {
		if strings.Contains(n, "mean utilization") {
			if _, err := fmtSscanfNote(n, &term, &defl); err != nil {
				t.Fatalf("cannot parse note %q: %v", n, err)
			}
		}
	}
	if term == 0 || defl == 0 {
		t.Fatal("utilization note missing")
	}
	if defl < term-0.5 {
		t.Errorf("deflation utilization %.1f%% < termination %.1f%%", defl, term)
	}
	// Every printed mobilenet allocation during overload must be at
	// least near its guaranteed share once it has load (mid rows).
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
}

// fmtSscanfNote extracts the two percentages from the utilization note.
func fmtSscanfNote(n string, term, defl *float64) (int, error) {
	idx := strings.Index(n, "termination ")
	jdx := strings.Index(n, "deflation ")
	if idx < 0 || jdx < 0 {
		return 0, strconvError(n)
	}
	t, err := strconv.ParseFloat(strings.TrimSuffix(strings.Fields(n[idx:])[1], "%,"), 64)
	if err != nil {
		return 0, err
	}
	d, err := strconv.ParseFloat(strings.TrimSuffix(strings.Fields(n[jdx:])[1], "%"), 64)
	if err != nil {
		return 0, err
	}
	*term, *defl = t, d
	return 2, nil
}

type strconvError string

func (e strconvError) Error() string { return "unparseable note: " + string(e) }

func TestFig9ShapeHolds(t *testing.T) {
	tab, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 2 policies x 6 functions
		t.Fatalf("rows=%d want 12", len(tab.Rows))
	}
	var term, defl float64
	for _, n := range tab.Notes {
		if strings.Contains(n, "mean utilization") {
			if _, err := fmtSscanfNote(n, &term, &defl); err != nil {
				t.Fatalf("cannot parse note %q: %v", n, err)
			}
		}
	}
	if defl < term-0.5 {
		t.Errorf("deflation utilization %.1f%% < termination %.1f%%", defl, term)
	}
}

func TestOpenWhiskShapeHolds(t *testing.T) {
	tab, err := OpenWhisk(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d want 4", len(tab.Rows))
	}
	// OpenWhisk rows: nodes alive must be 0/3 by the end; LaSS rows 3/3.
	for i := range tab.Rows {
		sys := cell(t, tab, i, 0)
		alive := cell(t, tab, i, 5)
		if sys == "openwhisk" && alive != "0/3" {
			t.Errorf("openwhisk survived: %v", tab.Rows[i])
		}
		if sys == "lass" && alive != "3/3" {
			t.Errorf("lass did not survive: %v", tab.Rows[i])
		}
	}
	// LaSS completes far more mobilenet requests than the dead baseline.
	var owMobile, lassMobile float64
	for i := range tab.Rows {
		if cell(t, tab, i, 1) == "mobilenet-v2" {
			if cell(t, tab, i, 0) == "openwhisk" {
				owMobile = cellF(t, tab, i, 2)
			} else {
				lassMobile = cellF(t, tab, i, 2)
			}
		}
	}
	if lassMobile <= owMobile {
		t.Errorf("lass completed %v <= openwhisk %v", lassMobile, owMobile)
	}
}

func TestAblationEstimatorShape(t *testing.T) {
	tab, err := AblationEstimator(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	dual := cellF(t, tab, 0, 1)
	ewma := cellF(t, tab, 1, 1)
	if dual < ewma-0.02 {
		t.Errorf("dual-window attainment %.3f worse than ewma-only %.3f", dual, ewma)
	}
}

func TestAblationPlacementShape(t *testing.T) {
	tab, err := AblationPlacement(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
}

func TestAblationHetModelShape(t *testing.T) {
	tab, err := AblationHetModel(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatal("want 2 rows")
	}
	// Container cells are "base+add"; compare the additions.
	parseAdd := func(s string) float64 {
		parts := strings.SplitN(s, "+", 2)
		if len(parts) != 2 {
			t.Fatalf("cell %q not base+add", s)
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	addHomog := parseAdd(cell(t, tab, 0, 2))
	addHet := parseAdd(cell(t, tab, 1, 2))
	if addHet < addHomog {
		t.Errorf("alves adds %v below homogeneous %v", addHet, addHomog)
	}
	// Alves-sized pool must meet the SLO.
	if cell(t, tab, 1, 4) != "true" {
		t.Errorf("alves-sized pool violates SLO: %v", tab.Rows[1])
	}
}

func TestAblationGGCShape(t *testing.T) {
	tab, err := AblationGGC(quick)
	if err != nil {
		t.Fatal(err)
	}
	cMM := cellF(t, tab, 0, 2)
	cGG := cellF(t, tab, 1, 2)
	if cGG > cMM {
		t.Errorf("G/G/c sized %v > M/M/c %v for SCV<1", cGG, cMM)
	}
	if cell(t, tab, 1, 4) != "true" {
		t.Errorf("G/G/c-sized pool violates SLO: %v", tab.Rows[1])
	}
}

func TestOptionsDur(t *testing.T) {
	o := Options{Quick: true}
	if o.dur(time.Hour, time.Minute) != time.Minute {
		t.Error("quick duration not selected")
	}
	o.Quick = false
	if o.dur(time.Hour, time.Minute) != time.Hour {
		t.Error("full duration not selected")
	}
}

func TestFederationTraceShapeHolds(t *testing.T) {
	tab, err := FederationTrace(quick)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * len(federation.PlacerNames()); len(tab.Rows) != want {
		t.Fatalf("rows=%d want %d (every registered policy x (3 sites + aggregate))", len(tab.Rows), want)
	}
	agg := func(policy string) []string {
		for _, row := range tab.Rows {
			if row[0] == policy && row[2] == "all" {
				return row
			}
		}
		t.Fatalf("no aggregate row for policy %q", policy)
		return nil
	}
	never := agg("never")
	// Arrivals are workload-driven, so they must be identical across
	// policies; the never policy must neither offload nor pay the cloud.
	for _, policy := range []string{"cloud-only", "nearest-peer", "model-driven"} {
		if got := agg(policy)[3]; got != never[3] {
			t.Errorf("%s arrivals %s != never arrivals %s", policy, got, never[3])
		}
	}
	if never[5] != "0" || never[6] != "0" || never[8] != "0" {
		t.Errorf("never policy offloaded or cold-started: %v", never)
	}
	if cost, _ := strconv.ParseFloat(never[9], 64); cost != 0 {
		t.Errorf("never policy accrued cloud cost %v", cost)
	}
	// Cloud-heavy policies must pay: cloud-only offloads, cold-starts at
	// least once, and accrues nonzero cost on this overloaded scenario.
	co := agg("cloud-only")
	if co[6] == "0" || co[8] == "0" {
		t.Errorf("cloud-only did not offload/cold-start: %v", co)
	}
	if cost, _ := strconv.ParseFloat(co[9], 64); cost <= 0 {
		t.Errorf("cloud-only accrued no cost: %v", co)
	}
	neverRate, _ := strconv.ParseFloat(never[len(never)-1], 64)
	modelRate, _ := strconv.ParseFloat(agg("model-driven")[len(never)-1], 64)
	if modelRate >= neverRate {
		t.Errorf("model-driven violation rate %.4f not below never %.4f", modelRate, neverRate)
	}
}

func TestFederationShapeHolds(t *testing.T) {
	tab, err := Federation(quick)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(policy string) float64 {
		for _, row := range tab.Rows {
			if row[0] == policy && row[2] == "all" {
				v, err := strconv.ParseFloat(row[len(row)-1], 64)
				if err != nil {
					t.Fatalf("bad violation rate %q: %v", row[len(row)-1], err)
				}
				return v
			}
		}
		t.Fatalf("no aggregate row for policy %q", policy)
		return 0
	}
	never := rate("never")
	for _, policy := range []string{"cloud-only", "nearest-peer", "model-driven"} {
		if r := rate(policy); r >= never {
			t.Errorf("%s violation rate %.4f not below never baseline %.4f", policy, r, never)
		}
	}
	if never < 0.05 {
		t.Errorf("never-policy violation rate %.4f too low: the burst should overload edge-0", never)
	}
}

// TestFederationFairShareGlobalBeatsLocal is the acceptance bar for the
// federation-wide allocator: on the skewed-load scenario, global
// allocation must strictly reduce total SLO violations versus
// per-site-local allocation under the nearest-peer offload policy, and
// the allocator's cross-site drift must be visible in the sweep table.
func TestFederationFairShareGlobalBeatsLocal(t *testing.T) {
	tab, err := FederationFairShare(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 24 { // 2 allocs x 3 policies x (3 sites + aggregate)
		t.Fatalf("rows=%d want 24", len(tab.Rows))
	}
	violations := func(policy, alloc string) float64 {
		t.Helper()
		row, err := fairShareAggregate(tab, policy, alloc)
		if err != nil {
			t.Fatal(err)
		}
		v, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("bad violation rate %q: %v", row[len(row)-1], err)
		}
		return v
	}
	local := violations("nearest-peer", "local")
	global := violations("nearest-peer", "global")
	if global >= local {
		t.Errorf("global allocation violation rate %.4f not strictly below local %.4f", global, local)
	}
	// The hot site's offered demand cannot fit its own cluster, so the
	// global allocator must be moving capacity: nonzero cross-site drift.
	row, err := fairShareAggregate(tab, "nearest-peer", "global")
	if err != nil {
		t.Fatal(err)
	}
	drift, err := strconv.ParseFloat(row[11], 64)
	if err != nil || drift <= 0 {
		t.Errorf("global aggregate drift-mC = %q, want > 0 (err %v)", row[11], err)
	}
	// Local allocation reports zero drift by construction.
	lrow, err := fairShareAggregate(tab, "nearest-peer", "local")
	if err != nil {
		t.Fatal(err)
	}
	if ldrift, err := strconv.ParseFloat(lrow[11], 64); err != nil || ldrift != 0 {
		t.Errorf("local aggregate drift-mC = %q, want 0 (err %v)", lrow[11], err)
	}
	// §3.4 admission verbatim (policy never): sheddable requests are
	// rejected, not stranded.
	nrow, err := fairShareAggregate(tab, "never", "local")
	if err != nil {
		t.Fatal(err)
	}
	if nrow[7] == "0" {
		t.Error("policy never + admission rejected nothing on a 3x overload")
	}
}

// fairShareAggregate finds the aggregate ("all") row for one
// (policy, alloc) pair of a federation sweep table; tests use it to
// compare local and global allocation.
func fairShareAggregate(t *Table, policy, alloc string) ([]string, error) {
	for _, row := range t.Rows {
		if len(row) >= 3 && row[0] == policy && row[1] == alloc && row[2] == "all" {
			return row, nil
		}
	}
	return nil, fmt.Errorf("experiments: no aggregate row for policy=%s alloc=%s in %s", policy, alloc, t.ID)
}
