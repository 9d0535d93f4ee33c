package main

import (
	"strings"
	"testing"
)

// TestCheckNumbers: negative scales and a cutoff outside 0-100 are
// rejected with a message naming the flag; the bounds themselves pass.
func TestCheckNumbers(t *testing.T) {
	cases := []struct {
		name                  string
		repeat, depth, cutoff float64
		want                  string // substring of the error; "" means valid
	}{
		{"defaults", 0.02, 1, 80, ""},
		{"cutoff bounds low", 0, 0, 0, ""},
		{"cutoff bounds high", 1, 1, 100, ""},
		{"negative repeat", -1, 1, 80, "-repeat -1 is negative"},
		{"negative depth", 0.02, -2, 80, "-depth -2 is negative"},
		{"negative cutoff", 0.02, 1, -5, "-cutoff -5 is outside 0-100"},
		{"cutoff above 100", 0.02, 1, 101, "-cutoff 101 is outside 0-100"},
	}
	for _, tc := range cases {
		err := checkNumbers(tc.repeat, tc.depth, tc.cutoff)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}
