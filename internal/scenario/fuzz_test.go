package scenario

import "testing"

// FuzzParseScenario: any input yields exactly one of a *Scenario and an
// error, never a panic, and a scenario that validates also builds or
// errors without panicking. The committed seeds under testdata/fuzz/ are
// the four scenarios/*.yaml files; CI fuzzes beyond them for 10 s:
//
//	go test -run '^$' -fuzz FuzzParseScenario -fuzztime 10s ./internal/scenario
func FuzzParseScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if (sc == nil) == (err == nil) {
			t.Fatalf("Parse returned scenario %v and error %v; want exactly one", sc, err)
		}
		if sc != nil {
			_, _ = sc.Build(-1)
		}
	})
}
