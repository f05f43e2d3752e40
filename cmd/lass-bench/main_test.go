package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCSVReproducesGolden: `-experiment <id> -quick -seed 1 -format csv`
// is the documented way to reproduce a pinned table.
func TestCSVReproducesGolden(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-quick", "-seed", "1", "-format", "csv"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout\n%s\nwant testdata/golden/table1.csv\n%s", stdout.Bytes(), want)
	}
}

func TestListAndRejectedArguments(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-list"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "federation-hierarchy\n") {
		t.Errorf("-list omits federation-hierarchy:\n%s", stdout.String())
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "no-such-id"}, "unknown experiment"},
		{[]string{"-format", "yaml"}, "unknown format"},
		{[]string{"-sweep-workers", "2"}, "provided but not defined: -sweep-workers"},
	} {
		if err := run(tc.args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
