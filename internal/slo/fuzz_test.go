package slo

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadJSONL: the strict SLO report reader never panics, and whatever
// it accepts re-encodes to a stream it accepts again, byte-stably.
func FuzzReadJSONL(f *testing.F) {
	golden, _ := filepath.Glob("../harness/testdata/*.jsonl")
	for _, path := range golden {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		"",
		`{"t":"slo_run","run":0}`,
		"{\"t\":\"slo_header\",\"schema\":1,\"clock_hz\":1,\"windows\":[1],\"runs\":0}\n{\"t\":\"bogus\",\"run\":0}\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		rep, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := rep.WriteJSONL(&a); err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, a.Bytes())
		}
		if err := back.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
		}
	})
}
