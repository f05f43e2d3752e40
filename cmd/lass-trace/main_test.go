package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	tests := []struct {
		args []string
		rows int    // rows written on success
		want string // substring of the error; "" means success
	}{
		{[]string{"-rows", "2", "-minutes", "5", "-archetype", "steady"}, 2, ""},
		{[]string{"-rows", "3", "-minutes", "1", "-mean", "0"}, 3, ""},
		{[]string{"-rows", "0"}, 0, "-rows"},
		{[]string{"-minutes", "0"}, 0, "-minutes"},
		{[]string{"-minutes", "-5"}, 0, "-minutes"},
		{[]string{"-mean", "-1"}, 0, "-mean"},
		{[]string{"-mean", "NaN"}, 0, "-mean"},
		{[]string{"-archetype", "bogus"}, 0, "-archetype"},
		{[]string{"-rows", "0", "-archetype", "bogus"}, 0, "-rows"},
		{[]string{"-rows", "1", "-archetype", "bogus"}, 0, "-archetype"},
		{[]string{"-rows", "1", "day.csv"}, 0, `"day.csv"`},
		{[]string{"-no-such-flag"}, 0, "no-such-flag"},
	}
	for _, tc := range tests {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout, io.Discard)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want == "" && strings.Count(stdout.String(), "\n") != 1+tc.rows:
			t.Errorf("%v wrote\n%s\nwant a header and %d rows", tc.args, stdout.String(), tc.rows)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.want)
		case tc.want != "" && stdout.Len() != 0:
			t.Errorf("%v failed but wrote %d bytes", tc.args, stdout.Len())
		}
	}
}
