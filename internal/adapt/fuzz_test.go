package adapt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadJSONL: the strict profile-store reader never panics, and
// whatever it accepts re-encodes to a stream it accepts again,
// byte-stably.
func FuzzReadJSONL(f *testing.F) {
	golden, _ := filepath.Glob("../harness/testdata/*.jsonl")
	for _, path := range golden {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	var store bytes.Buffer
	if err := testStore().WriteJSONL(&store); err != nil {
		f.Fatal(err)
	}
	f.Add(store.Bytes())
	const site = `"site":1,"surv_words":0,"dead_words":0,"age_bytes":0,"age_samples":0,"pret_placed":0,"pret_died":0,"pretenured":false}`
	for _, s := range []string{
		"",
		`{"t":"profile","profile":0,"label":"x","workload":"y","sites":0}`,
		"{\"t\":\"header\",\"schema\":1,\"profiles\":0}\n{\"t\":\"bogus\"}",
		"{\"t\":\"header\",\"schema\":1,\"profiles\":0,\"extra\":1}",
		"{\"t\":\"header\",\"schema\":1,\"profiles\":2}\n{\"t\":\"profile\",\"profile\":1,\"label\":\"x\",\"workload\":\"y\",\"sites\":0}",
		"{\"t\":\"header\",\"schema\":1,\"profiles\":0}\n{\"t\":\"site\",\"profile\":0," + site,
		"{\"t\":\"header\",\"schema\":99,\"profiles\":0}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := s.WriteJSONL(&a); err != nil {
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
