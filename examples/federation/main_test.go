package main

import (
	"bytes"
	"os"
	"testing"
)

// TestStdoutGolden pins the example's whole output, the cloud-cost column
// included, byte for byte. After a change that is meant to move it,
// regenerate with: go run ./examples/federation > examples/federation/testdata/stdout.golden
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from testdata/stdout.golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
