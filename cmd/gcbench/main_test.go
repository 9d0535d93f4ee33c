package main

import (
	"strings"
	"testing"
)

// TestCheckNumbers: every numeric flag a run cannot use is rejected with
// a message naming the flag; zero and positive values pass.
func TestCheckNumbers(t *testing.T) {
	cases := []struct {
		name                        string
		repeat, depth               float64
		threads, gcWorkers, benchRs int
		want                        string // substring of the error; "" means valid
	}{
		{"defaults", 0.02, 1, 0, 0, 5, ""},
		{"zeros", 0, 0, 0, 0, 0, ""},
		{"parallel run", 0.01, 0.5, 4, 4, 3, ""},
		{"negative repeat", -1, 1, 0, 0, 5, "-repeat -1 is negative"},
		{"negative depth", 0.02, -0.5, 0, 0, 5, "-depth -0.5 is negative"},
		{"negative threads", 0.02, 1, -2, 0, 5, "-threads -2 is negative"},
		{"negative gc-workers", 0.02, 1, 0, -3, 5, "-gc-workers -3 is negative"},
		{"negative bench-reps", 0.02, 1, 0, 0, -1, "-bench-reps -1 is negative"},
	}
	for _, tc := range cases {
		err := checkNumbers(tc.repeat, tc.depth, tc.threads, tc.gcWorkers, tc.benchRs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
