package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioAllWritesGolden runs the committed suite from the repository
// root, as CI does: the CSV equals the registry's pinned scenario table.
func TestScenarioAllWritesGolden(t *testing.T) {
	t.Chdir(filepath.Join("..", ".."))
	out := filepath.Join(t.TempDir(), "f.csv")
	var stdout bytes.Buffer
	if err := run([]string{"-scenario", "all", "-out", out}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", "golden", "scenario.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-scenario all -out wrote\n%s\nwant testdata/golden/scenario.csv\n%s", got, want)
	}
	if !strings.HasSuffix(stdout.String(), "wrote "+out+"\n") {
		t.Errorf("stdout does not end by naming the CSV:\n%s", stdout.String())
	}
}

// TestDefaultStdoutGolden pins the single-cluster run with no flags, the
// command's default: a change meant to move it regenerates the file with
// `go run ./cmd/lass-sim > cmd/lass-sim/testdata/stdout.golden`.
func TestDefaultStdoutGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(nil, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from testdata/stdout.golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestNoFileWithoutOut: neither job leaves a file behind unless -out names
// one.
func TestNoFileWithoutOut(t *testing.T) {
	scenario, err := filepath.Abs(filepath.Join("..", "..", "scenarios", "metro-flaps.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Chdir(dir)
	for _, args := range [][]string{
		{"-scenario", scenario},
		{"-functions", "geofence:5", "-duration", "30s"},
	} {
		var stdout bytes.Buffer
		if err := run(args, &stdout, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if stdout.Len() == 0 {
			t.Errorf("%v printed nothing", args)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("runs without -out left %d files behind, first %s", len(left), left[0].Name())
	}
}

func TestRejectedArguments(t *testing.T) {
	type rejection struct {
		args []string
		want string // substring of the error
	}
	tests := []rejection{
		{[]string{"-scenario", "all", "-chaos-replicates", "-1"}, "-chaos-replicates"},
		{[]string{"-scenario", "all", "-chaos-seed", "-7"}, "-chaos-seed"},
		{[]string{"-chaos-replicates", "-1"}, "-chaos-replicates"},
		{[]string{"-policy", "nearest-peer"}, "unknown policy"},
		{[]string{"-scenario", "no-such-file.yaml"}, "no-such-file.yaml"},
	}
	// The flags that configured or selected a registry sweep are gone:
	// lass-bench runs those, fixed.
	for _, name := range []string{"federation", "fed-trace", "fed-fairshare", "fed-placers",
		"fed-coordinator", "fed-chaos", "fed-hierarchy", "global-fairshare", "alloc-epoch",
		"coordinator", "admission", "offered-load", "cloud-max-concurrency", "topology",
		"cloud-warm", "cloud-price-invocation", "cloud-price-gbsec", "quick", "sweep-workers"} {
		tests = append(tests, rejection{[]string{"-" + name + "=1"}, "provided but not defined: -" + name})
	}
	for _, tc := range tests {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: rejected run wrote to stdout: %s", tc.args, stdout.String())
		}
	}
}
