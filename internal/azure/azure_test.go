package azure

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lass/internal/workload"
	"lass/internal/xrand"
)

func TestReadWriteRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	var rows []Row
	for _, a := range []Archetype{Steady, Periodic, Bursty, Sporadic} {
		r, err := Synthesize(rng, SynthConfig{Archetype: a, MeanPerMinute: 20, Minutes: 120})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	var buf bytes.Buffer
	if err := Write(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows=%d want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i].FunctionHash != rows[i].FunctionHash || got[i].Trigger != rows[i].Trigger {
			t.Errorf("row %d metadata mismatch", i)
		}
		if len(got[i].Counts) != len(rows[i].Counts) {
			t.Fatalf("row %d counts length %d want %d", i, len(got[i].Counts), len(rows[i].Counts))
		}
		for j := range rows[i].Counts {
			if got[i].Counts[j] != rows[i].Counts[j] {
				t.Fatalf("row %d minute %d: %v want %v", i, j, got[i].Counts[j], rows[i].Counts[j])
			}
		}
	}
}

func TestReadSkipsHeader(t *testing.T) {
	csv := "HashOwner,HashApp,HashFunction,Trigger,1,2,3\no,a,f,http,1,2,3\n"
	rows, err := Read(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows=%d", len(rows))
	}
	if rows[0].Counts[2] != 3 {
		t.Errorf("counts=%v", rows[0].Counts)
	}
}

func TestReadHeaderlessCSV(t *testing.T) {
	csv := "o,a,f,http,5,0,7\n"
	rows, err := Read(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Counts[0] != 5 {
		t.Errorf("rows=%v", rows)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	if _, err := Read(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("want error for too few columns")
	}
	if _, err := Read(strings.NewReader("o,a,f,http,xyz\no,a,f,http,1\n")); err == nil {
		t.Error("want error for non-numeric count after header detection")
	}
	if _, err := Read(strings.NewReader("HashOwner,HashApp,HashFunction,Trigger,1\no,a,f,http,-3\n")); err == nil {
		t.Error("want error for negative count")
	}
}

// TestReadRejectsNonFiniteCounts: NaN and ±Inf parse as floats but count
// no invocations; the error names the line and minute instead of surfacing
// later as an invalid workload rate.
func TestReadRejectsNonFiniteCounts(t *testing.T) {
	for _, c := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		_, err := Read(strings.NewReader("HashOwner,HashApp,HashFunction,Trigger,1,2\no,a,f,http,1," + c + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2 minute 2: non-finite count") {
			t.Errorf("count %s: error %v, want line 2 minute 2: non-finite count", c, err)
		}
	}
}

// TestReadNumbersPhysicalLines: a quoted field spanning two lines moves
// every later record down a line, and errors must say so.
func TestReadNumbersPhysicalLines(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"HashOwner,HashApp,HashFunction,Trigger,1,2\n\"o\nx\",a,f,http,1,2\no,a,f,http,1,-4\n", "line 4 minute 2"},
		{"\"o\nx\",a,f,http,1\nshort,row\n", "line 3:"},
	} {
		_, err := Read(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want %s", c.in, err, c.want)
		}
	}
}

// FuzzAzureRead: any input yields rows of finite, non-negative counts or
// an error that names a line (seeds: testdata/fuzz/FuzzAzureRead).
func FuzzAzureRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := Read(bytes.NewReader(data))
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("error names no line: %v", err)
			}
			return
		}
		for _, r := range rows {
			for _, c := range r.Counts {
				if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
					t.Fatalf("row %q holds count %v", r.FunctionHash, c)
				}
			}
		}
	})
}

func TestWriteEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err == nil {
		t.Error("want error for empty rows")
	}
}

func TestWindowClamps(t *testing.T) {
	r := Row{Counts: []float64{0, 1, 2, 3, 4}}
	w := r.Window(1, 3)
	if len(w) != 2 || w[0] != 1 || w[1] != 2 {
		t.Errorf("window=%v", w)
	}
	if w := r.Window(-5, 100); len(w) != 5 {
		t.Errorf("clamped window len=%d", len(w))
	}
	if w := r.Window(4, 2); w != nil {
		t.Errorf("inverted window=%v", w)
	}
}

func TestScheduleFromTrace(t *testing.T) {
	r := Row{Counts: []float64{60, 600}}
	s, err := workload.FromPerMinuteCounts(r.Counts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.RateAt(0); got != 1 {
		t.Errorf("minute 0 rate=%v", got)
	}
	if got := s.RateAt(90 * 1e9); got != 10 {
		t.Errorf("minute 1 rate=%v", got)
	}
}

func TestSynthesizeMeansApproximatelyCorrect(t *testing.T) {
	rng := xrand.New(17)
	for _, a := range []Archetype{Steady, Periodic, Bursty} {
		r, err := Synthesize(rng, SynthConfig{Archetype: a, MeanPerMinute: 30})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Counts) != MinutesPerDay {
			t.Fatalf("%v: %d minutes", a, len(r.Counts))
		}
		st := Summarize(r.Counts)
		if math.Abs(st.Mean-30)/30 > 0.35 {
			t.Errorf("%v: mean %v want ~30", a, st.Mean)
		}
	}
}

func TestSporadicIsSporadic(t *testing.T) {
	// The MobileNet trace shape (§6.7): mostly idle, rare intense bursts.
	rng := xrand.New(19)
	r, err := Synthesize(rng, SynthConfig{Archetype: Sporadic, MeanPerMinute: 10})
	if err != nil {
		t.Fatal(err)
	}
	st := Summarize(r.Counts)
	idleFrac := 1 - float64(st.NonZero)/float64(len(r.Counts))
	if idleFrac < 0.80 {
		t.Errorf("sporadic trace only %.0f%% idle", idleFrac*100)
	}
	if st.CV < 3 {
		t.Errorf("sporadic CV=%v want >3", st.CV)
	}
	if st.BusyShare < 0.5 {
		t.Errorf("busiest 5%% of minutes carry only %.0f%% of load", st.BusyShare*100)
	}
}

func TestSteadyIsSmootherThanSporadic(t *testing.T) {
	rng := xrand.New(23)
	steady, _ := Synthesize(rng, SynthConfig{Archetype: Steady, MeanPerMinute: 30})
	sporadic, _ := Synthesize(rng, SynthConfig{Archetype: Sporadic, MeanPerMinute: 30})
	if Summarize(steady.Counts).CV >= Summarize(sporadic.Counts).CV {
		t.Error("steady trace should have lower CV than sporadic")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	rng := xrand.New(1)
	if _, err := Synthesize(rng, SynthConfig{Archetype: Steady, MeanPerMinute: -1}); err == nil {
		t.Error("want error for negative mean")
	}
	if _, err := Synthesize(rng, SynthConfig{Archetype: Archetype(99), MeanPerMinute: 1}); err == nil {
		t.Error("want error for unknown archetype")
	}
	if _, err := Synthesize(rng, SynthConfig{Archetype: Steady, MeanPerMinute: 1, Minutes: -5}); err == nil {
		t.Error("want error for negative minutes")
	}
}

func TestSynthesizeCustomLength(t *testing.T) {
	rng := xrand.New(29)
	r, err := Synthesize(rng, SynthConfig{Archetype: Steady, MeanPerMinute: 5, Minutes: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Counts) != 60 {
		t.Errorf("len=%d", len(r.Counts))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Mean != 0 || st.Max != 0 {
		t.Error("empty summary should be zero")
	}
}

func TestTotalInvocations(t *testing.T) {
	if total := Summarize([]float64{1, 2, 3}).TotalCount; total != 6 {
		t.Errorf("total=%v", total)
	}
}

func TestTriggers(t *testing.T) {
	rng := xrand.New(31)
	p, _ := Synthesize(rng, SynthConfig{Archetype: Periodic, MeanPerMinute: 1, Minutes: 10})
	if p.Trigger != "timer" {
		t.Errorf("periodic trigger=%q", p.Trigger)
	}
	s, _ := Synthesize(rng, SynthConfig{Archetype: Sporadic, MeanPerMinute: 1, Minutes: 10})
	if s.Trigger != "event" {
		t.Errorf("sporadic trigger=%q", s.Trigger)
	}
}

func TestArchetypeStrings(t *testing.T) {
	if Steady.String() != "steady" || Sporadic.String() != "sporadic" ||
		Periodic.String() != "periodic" || Bursty.String() != "bursty" {
		t.Error("archetype strings wrong")
	}
}
