// Command perfbench is the repository's benchmark. It runs one of four fixed
// workloads, each loading a different layer of the simulator, measures it
// from outside by timing calls into the public functions of harness,
// workload, core, rt, mem, obj, costmodel, prof, trace, slo and sanitize,
// checks that the outputs are correct, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time and memory,
// simulated cost, footprint and latency); with -trace 1 a separate traced
// pass reports the per-layer split. See README.md for the catalogue.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	    [-scale F] [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates one benchmark run: metrics plus the attempted/failed
// tally. Every failure is reported on standard error with its reason, so a
// failed unit never disappears silently.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// set records a metric. JSON has no NaN or infinity: a ratio over a layer
// the workload does not use reads 0.
func (o *outcome) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one attempted, checked execution; it fails when any reason
// is given.
func (o *outcome) check(what string, reasons []string) {
	o.attempted++
	if len(reasons) == 0 {
		return
	}
	o.failed++
	for _, r := range reasons {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %s\n", what, r)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "run seed; the workloads are fixed programs, so it only labels the run (-scale varies the input)")
	seconds := flag.Float64("seconds", 10, "how long the measured loop runs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced per-layer pass")
	scale := flag.Float64("scale", 1, "input scale factor on each workload's pinned scale; pinned checksums apply only at 1")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measured section to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds and -scale must be positive and -trace 0 or 1")
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, scale: *scale, seconds: *seconds, out: newOutcome()}
	if *scale == 1 {
		b.pins = pins[w.name]
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		b.profile = f
	}

	fmt.Printf("perfbench: workload %s, seed %d, scale %g, %g s, trace %d, GOMAXPROCS %d\n",
		w.name, *seed, *scale, *seconds, *traced, runtime.GOMAXPROCS(0))
	if *traced == 1 {
		b.layers()
	} else {
		b.endToEnd()
	}
	if b.profile != nil {
		if err := errors.Join(b.profileErr, b.profile.Close()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpuprofile:", err)
			return 2
		}
	}
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: memprofile:", err)
			return 2
		}
	}

	o := b.out
	printTable(o)
	fmt.Printf("fail_frac %.4f (%d of %d attempted)\n", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	line, err := json.Marshal(result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable renders the metrics for a human reader, one per line.
func printTable(o *outcome) {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Printf("  %-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
