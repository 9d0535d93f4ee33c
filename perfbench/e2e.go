package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"tilgc/internal/costmodel"
	"tilgc/internal/harness"
	"tilgc/internal/slo"
	"tilgc/internal/trace"
)

const (
	// maxSetups and minSetups bound how often a run repeats its set-up;
	// setup_s is the median. Set-ups past the second run only while the
	// set-up time so far is under the measured loop's, which keeps a run
	// of the slowest workload (13 s per Knuth-Bendix calibration) within
	// its time budget and gives the cheap set-ups more samples.
	maxSetups, minSetups = 5, 2
	// minUnits is the fewest measured units a run takes, however long
	// each lasts, so that one unit slowed by the host cannot set the
	// median alone.
	minUnits = 3
)

// bench is one benchmark run of one workload.
type bench struct {
	w       benchWorkload
	scale   float64
	pins    map[string]uint64 // nil away from the pinned scale
	seconds float64
	out     *outcome

	profile    *os.File // -cpuprofile target, nil when off
	profileErr error
}

// facts are the simulated results a run must reproduce exactly.
type facts struct {
	Check         uint64
	Total, GC     costmodel.Cycles
	NumGC, Majors uint64
}

func factsOf(r *harness.RunResult) facts {
	return facts{Check: r.Check, Total: r.Times.Total(), GC: r.Times.GC(), NumGC: r.Stats.NumGC, Majors: r.Stats.NumMajor}
}

// unit is one measured unit: every config of the workload run once, plus
// the JSONL encoding of each traced run's trace and SLO report.
type unit struct {
	wall  time.Duration
	alloc uint64 // Go heap bytes allocated
	runs  []*harness.RunResult
	errs  []error
}

// safeRun is harness.Run with a panic (a sanitizer violation panics)
// turned into an error, so it counts as a failed run.
func safeRun(cfg harness.RunConfig) (r *harness.RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return harness.Run(cfg)
}

// runBatch runs cfgs on the harness worker pool (the pool RunAll uses),
// assembling results in input order.
func runBatch(cfgs []harness.RunConfig, workers int) ([]*harness.RunResult, []error) {
	runs := make([]*harness.RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	harness.ParallelEach(len(cfgs), workers, func(i int) { runs[i], errs[i] = safeRun(cfgs[i]) })
	return runs, errs
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// encodeReports is the `gctrace slo` path for one traced run: the trace as
// JSONL, the SLO report computed from it, and the report as JSONL.
func encodeReports(r *harness.RunResult, w io.Writer) error {
	d := r.Trace.Data(r.Config.Label())
	if err := trace.NewFile(d).WriteJSONL(w); err != nil {
		return err
	}
	rr, err := slo.Compute(d, slo.DefaultWindows)
	if err != nil {
		return err
	}
	return slo.NewReport(slo.DefaultWindows, rr).WriteJSONL(w)
}

func (b *bench) runUnit(cfgs []harness.RunConfig) unit {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	var u unit
	u.runs, u.errs = runBatch(cfgs, b.w.workers)
	for i, r := range u.runs {
		if r != nil && r.Trace != nil {
			u.errs[i] = encodeReports(r, io.Discard)
		}
	}
	u.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	u.alloc = ms.TotalAlloc - alloc0
	return u
}

// verifyRuns lists why a set of runs is wrong: an error or panic, a
// checksum that differs from the pin, simulated facts that differ from
// ref (another execution of the same configs), or one program giving
// different checksums under different collectors.
func (b *bench) verifyRuns(runs []*harness.RunResult, errs []error, ref []facts) []string {
	var reasons []string
	byProgram := map[string]uint64{}
	for i, r := range runs {
		if errs[i] != nil {
			reasons = append(reasons, fmt.Sprintf("run %d: %v", i, errs[i]))
			continue
		}
		label := r.Config.Label()
		if pin, ok := b.pins[label]; b.pins != nil && (!ok || r.Check != pin) {
			reasons = append(reasons, fmt.Sprintf("%s: checksum %d, pinned %d", label, r.Check, pin))
		}
		if ref != nil && factsOf(r) != ref[i] {
			reasons = append(reasons, fmt.Sprintf("%s: simulated facts %+v differ from %+v", label, factsOf(r), ref[i]))
		}
		if c, ok := byProgram[r.Config.Workload]; ok && c != r.Check {
			reasons = append(reasons, fmt.Sprintf("%s: checksum %d differs across collectors (%d)", label, r.Check, c))
		}
		byProgram[r.Config.Workload] = r.Check
	}
	return reasons
}

func factsAll(runs []*harness.RunResult) []facts {
	fs := make([]facts, len(runs))
	for i, r := range runs {
		fs[i] = factsOf(r)
	}
	return fs
}

// calibrateAll is the workload's set-up: the harness calibrations its runs
// need, from a cleared cache. It returns the seconds they took.
func calibrateAll(cfgs []harness.RunConfig) (float64, error) {
	harness.ClearCalibrationCache()
	start := time.Now()
	for _, c := range cfgs {
		if _, err := harness.Calibrate(c.Workload, c.Scale, c.PretenureCutoff); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// twinConfigs flips program tracing on every config and drops the
// sanitizer: the twin must reproduce the simulated facts exactly, since
// neither tracing nor the sanitizer charges the meter.
func twinConfigs(cfgs []harness.RunConfig) []harness.RunConfig {
	out := make([]harness.RunConfig, len(cfgs))
	for i, c := range cfgs {
		c.Sanitize = false
		c.Trace = !c.Trace
		c.TraceHeap = c.Trace
		out[i] = c
	}
	return out
}

// endToEnd measures the end-to-end metrics: set-up, then measured units
// with the benchmark's own instrumentation off, then one twin run that
// flips program tracing to read the simulated pause, footprint and latency
// figures and prove tracing changes none of the simulated facts.
func (b *bench) endToEnd() {
	cfgs := b.w.cfgs(b.scale)
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && spent < b.seconds); {
		s, err := calibrateAll(cfgs)
		b.out.check("set-up", errReasons(err))
		setups = append(setups, s)
		spent += s
	}

	b.startProfile()
	var walls, allocs []float64
	var ref []*harness.RunResult // the first correct unit's runs
	start := time.Now()
	for n := 1; n <= minUnits || time.Since(start).Seconds() < b.seconds; n++ {
		runtime.GC()
		u := b.runUnit(cfgs)
		var refFacts []facts
		if ref != nil {
			refFacts = factsAll(ref)
		}
		reasons := b.verifyRuns(u.runs, u.errs, refFacts)
		b.out.check(fmt.Sprintf("unit %d", n), reasons)
		if ref == nil && len(reasons) == 0 {
			ref = u.runs
		}
		walls = append(walls, u.wall.Seconds())
		allocs = append(allocs, float64(u.alloc)/(1<<20))
	}
	b.stopProfile()
	rss := peakRSSMiB()
	fmt.Printf("wall_s: median of %d units %.3f; setup_s: median of %d set-ups %.3f\n", len(walls), walls, len(setups), setups)

	// The simulated figures read 0 when no unit or twin was correct; the
	// failure is already counted.
	var s simFigures
	if ref != nil {
		twin, errs := runBatch(twinConfigs(cfgs), b.w.workers)
		b.out.check("traced/untraced twin", b.verifyRuns(twin, errs, factsAll(ref)))
		plain, traced := ref, twin
		if cfgs[0].Trace {
			plain, traced = twin, ref
		}
		if allOK(twin) {
			s = simulated(plain, traced)
		}
	}
	o := b.out
	o.set("setup_s", median(setups), "s")
	o.set("wall_s", median(walls), "s")
	o.set("host_alloc_mib", median(allocs), "MiB")
	o.set("host_peak_rss_mib", rss, "MiB")
	o.set("sim_total_mcycles", float64(s.total)/1e6, "Mcycles")
	o.set("sim_gc_mcycles", float64(s.gc)/1e6, "Mcycles")
	o.set("sim_pause_p99_kcycles", float64(s.pauseP99)/1e3, "kcycles")
	o.set("sim_peak_committed_kwords", float64(s.peakCommitted)/1e3, "kwords")
	o.set("sim_req_p99_kcycles", float64(s.reqP99)/1e3, "kcycles")
	fmt.Printf("sim_pause_p99 over %d collections; sim_req_p99 over %d requests\n", s.collections, s.requests)
}

// simFigures are the simulated end-to-end figures of one unit.
type simFigures struct {
	total, gc     costmodel.Cycles
	pauseP99      uint64
	collections   int
	peakCommitted uint64 // words
	reqP99        uint64
	requests      int
}

// simulated reads the simulated figures: meter totals summed over the
// unit's runs, the exact nearest-rank p99 of every collection's pause and
// of every request's latency, and the peak committed heap over all heap
// samples. A batch program serves one request, the whole run.
func simulated(plain, traced []*harness.RunResult) simFigures {
	var s simFigures
	for _, r := range plain {
		s.total += r.Times.Total()
		s.gc += r.Times.GC()
	}
	var pauses, reqs []uint64
	for _, r := range traced {
		d := r.Trace.Data(r.Config.Label())
		pauses = append(pauses, d.Summarize().PauseCycles()...)
		for _, h := range d.Heap {
			var committed uint64
			for _, sp := range h.Spaces {
				committed += sp.Committed
			}
			s.peakCommitted = max(s.peakCommitted, committed)
		}
		if len(d.Reqs) == 0 {
			reqs = append(reqs, uint64(d.Final.Total()))
		}
		for _, q := range d.Reqs {
			reqs = append(reqs, uint64(q.Latency()))
		}
	}
	s.collections, s.requests = len(pauses), len(reqs)
	s.pauseP99 = p99(pauses)
	s.reqP99 = p99(reqs)
	return s
}

func p99(v []uint64) uint64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	x, _ := trace.Percentile(v, 990_000)
	return x
}

func allOK(runs []*harness.RunResult) bool {
	for _, r := range runs {
		if r == nil {
			return false
		}
	}
	return true
}

func errReasons(err error) []string {
	if err == nil {
		return nil
	}
	return []string{err.Error()}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (b *bench) startProfile() {
	if b.profile != nil {
		b.profileErr = pprof.StartCPUProfile(b.profile)
	}
}

func (b *bench) stopProfile() {
	if b.profile != nil && b.profileErr == nil {
		pprof.StopCPUProfile()
	}
}
