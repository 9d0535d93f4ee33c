package slo

import (
	"bytes"
	"testing"
)

// TestWriteChromeCountersBytes pins WriteChromeCounters' exact output on
// a fixed report: one process, one thread per run (a blank label falls
// back to "run N"), and an mmu/amu counter pair per sweep window.
func TestWriteChromeCountersBytes(t *testing.T) {
	r := NewReport([]uint64{1000, 20000},
		&RunReport{Label: "Life/gen k=2", Windows: []WindowStats{
			{Window: 1000, MMUppm: 0, AMUppm: 912345},
			{Window: 20000, MMUppm: 501234, AMUppm: 987654},
		}},
		&RunReport{Windows: []WindowStats{
			{Window: 1000, MMUppm: 250000, AMUppm: 1000000},
			{Window: 20000, MMUppm: 1000000, AMUppm: 1000000},
		}})
	var buf bytes.Buffer
	if err := r.WriteChromeCounters(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"ts":0,"args":{"name":"gcsim slo"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"ts":0,"args":{"name":"Life/gen k=2"}},
{"name":"mmu","ph":"C","pid":0,"tid":0,"ts":1000,"args":{"ppm":0}},
{"name":"amu","ph":"C","pid":0,"tid":0,"ts":1000,"args":{"ppm":912345}},
{"name":"mmu","ph":"C","pid":0,"tid":0,"ts":20000,"args":{"ppm":501234}},
{"name":"amu","ph":"C","pid":0,"tid":0,"ts":20000,"args":{"ppm":987654}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"ts":0,"args":{"name":"run 1"}},
{"name":"mmu","ph":"C","pid":0,"tid":1,"ts":1000,"args":{"ppm":250000}},
{"name":"amu","ph":"C","pid":0,"tid":1,"ts":1000,"args":{"ppm":1000000}},
{"name":"mmu","ph":"C","pid":0,"tid":1,"ts":20000,"args":{"ppm":1000000}},
{"name":"amu","ph":"C","pid":0,"tid":1,"ts":20000,"args":{"ppm":1000000}}
]}
`
	if got := buf.String(); got != want {
		t.Fatalf("chrome counters output changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
