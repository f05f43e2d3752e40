package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// FuzzParseScenario: any input yields exactly one of a *Scenario and an
// error, never a panic, and a scenario Parse accepts also builds. The
// committed seeds under testdata/fuzz/ are the four scenarios/*.yaml
// files; CI fuzzes beyond them for 10 s:
//
//	go test -run '^$' -fuzz FuzzParseScenario -fuzztime 10s ./internal/scenario
func FuzzParseScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if (sc == nil) == (err == nil) {
			t.Fatalf("Parse returned scenario %v and error %v; want exactly one", sc, err)
		}
		if sc != nil {
			if _, err := sc.Build(-1); err != nil {
				t.Fatalf("Parse accepted a scenario that does not build: %v", err)
			}
		}
	})
}

// FuzzParseMatchesReference holds Parse to the frozen hand-written
// decoder in reference_test.go: both accept the same inputs, accepted
// scenarios are deeply equal, and rejections carry the same text once
// the messages the tag-driven decoder changed on purpose are mapped onto
// each other (refRenames, kindErr). Seeds are the committed scenarios and
// the two unit fixtures; CI fuzzes beyond them for 10 s:
//
//	go test -run '^$' -fuzz '^FuzzParseMatchesReference$' -fuzztime 10s ./internal/scenario
func FuzzParseMatchesReference(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no committed scenarios (%v)", err)
	}
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(validScenario))
	f.Add([]byte(hierScenario))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Parse(data)
		want, refErr := referenceParse(data)
		if err != nil && (onlyParseRejects.MatchString(err.Error()) ||
			(stepStart.MatchString(err.Error()) && refErr != nil && stepRate.MatchString(refErr.Error()))) {
			return
		}
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("Parse error %v, reference error %v", err, refErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("scenarios differ:\nParse     %+v\nreference %+v", got, want)
		case err != nil:
			g, w := kindErr(err.Error()), kindErr(refRenamed(refErr.Error()))
			if g != w {
				t.Fatalf("error texts differ:\nParse     %s\nreference %s", g, w)
			}
		}
	})
}

var (
	// onlyParseRejects are the rejections the reference makes later, in
	// Build (a non-finite matrix cell).
	onlyParseRejects = regexp.MustCompile(`topology "matrix-ms": ".*" is not a finite number`)
	// A workload step with a bad start and a bad rate: Parse decodes in
	// key order (start first), the reference decoded rate first.
	stepStart = regexp.MustCompile(`workload step "start"`)
	stepRate  = regexp.MustCompile(`workload step "rate"`)

	// refRenames map the reference's own wording for list members and
	// the alloc-epoch default onto the decoder's generic messages.
	refRenames = []struct {
		re   *regexp.Regexp
		repl string
	}{
		{regexp.MustCompile(`^(line \d+: )hierarchy group sites must be site names$`), `${1}hierarchy group "sites" must be a scalar`},
		{regexp.MustCompile(`^(line \d+: )fault group members must be site indices$`), `${1}fault "sites" must be a scalar`},
		{regexp.MustCompile(`^(line \d+: )fault group member (".*") is not a site index$`), `${1}fault "sites": $2 is not an integer`},
		{regexp.MustCompile(`^(line \d+: )topology matrix-ms rows must be lists of milliseconds$`), `${1}topology "matrix-ms" must be a list`},
		{regexp.MustCompile(`^(line \d+: )topology matrix-ms cells must be numbers$`), `${1}topology "matrix-ms" must be a scalar`},
		{regexp.MustCompile(`^(line \d+: )topology matrix-ms cell (".*") is not a number$`), `${1}topology "matrix-ms": $2 is not a number`},
		{regexp.MustCompile(` is negative \(omit it for the 5s default\)$`), ` is negative (omit it for the default)`},
	}

	kindUnknown  = regexp.MustCompile(`^line \d+: (fault kind ".*" is not coordinator/site/link/group)$`)
	kindRequired = regexp.MustCompile(`^line \d+: fault "kind" is required$`)
)

func refRenamed(msg string) string {
	for _, r := range refRenames {
		msg = r.re.ReplaceAllString(msg, r.repl)
	}
	return msg
}

// kindErr drops the line from fault-kind errors (the reference reported
// the fault's line, Parse reports the kind's) and reads a missing kind
// as the empty name the reference rejected it as.
func kindErr(msg string) string {
	msg = kindRequired.ReplaceAllString(msg, `fault kind "" is not coordinator/site/link/group`)
	return kindUnknown.ReplaceAllString(msg, "$1")
}
