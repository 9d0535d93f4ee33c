package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadJSONL: the strict trace reader never panics, and whatever it
// accepts re-encodes to a stream it accepts again, byte-stably.
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
		`{"t":"run","run":0,"label":"x"}`,
		`{"t":"header","schema":99,"clock_hz":1,"runs":0}`,
		`{"t":"header","schema":1,"clock_hz":1,"runs":0,"zz":1}`,
		"{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":0}\n{\"t\":\"wat\"}",
		"{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n{\"t\":\"run\",\"run\":3,\"label\":\"x\"}",
		"{\"t\":\"header\",\"schema\":1,\"clock_hz\":1,\"runs\":1}\n{\"t\":\"run\",\"run\":0,\"label\":\"x\"}\n" +
			"{\"t\":\"gc_begin\",\"run\":0,\"seq\":1,\"major\":false,\"at\":5,\"client\":1,\"stack\":0,\"copy\":0}",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		file, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var a, b bytes.Buffer
		if err := file.WriteJSONL(&a); err != nil {
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
