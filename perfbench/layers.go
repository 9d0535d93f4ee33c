package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/harness"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
	"tilgc/internal/rt"
	"tilgc/internal/sanitize"
	"tilgc/internal/slo"
	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

// clockCost is what an empty timed interval reads, measured at start-up
// and subtracted from every timed call. A clock read costs several times a
// field access or a small allocation, so those calls are only counted, and
// their cost is measured by the core microbenchmarks instead (see micro).
var clockCost = measureClockCost()

func measureClockCost() time.Duration {
	const n = 1 << 16
	best := time.Duration(1 << 62)
	for r := 0; r < 5; r++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			sum += time.Since(time.Now())
		}
		best = min(best, sum/n)
	}
	return best
}

// sampleEvery is how often the profiler decorator times its frequent
// events (allocations and moves); the rest are only counted.
const sampleEvery = 16

// timer accumulates the calls of one kind and the host time of those it
// timed.
type timer struct {
	calls, timed uint64
	d            time.Duration
}

func (t *timer) add(start time.Time) {
	t.timed++
	t.d += time.Since(start) - clockCost
}

// total estimates the host time of every call counted.
func (t *timer) total() time.Duration {
	if t.timed == 0 {
		return 0
	}
	return time.Duration(float64(t.d) * float64(t.calls) / float64(t.timed))
}

// timedCollector decorates a core.Collector: it times every allocation
// that triggered a collection and every explicit collection, and counts
// the other allocations and the field accesses.
type timedCollector struct {
	inner   core.Collector
	collect timer
	allocs  uint64 // allocations that did not collect
	fields  uint64 // LoadField, StoreField and InitField calls
}

func (c *timedCollector) Alloc(k obj.Kind, length uint64, site obj.SiteID, mask uint64) mem.Addr {
	gcs := c.inner.Stats().NumGC
	start := time.Now()
	a := c.inner.Alloc(k, length, site, mask)
	if c.inner.Stats().NumGC != gcs {
		c.collect.calls++
		c.collect.add(start)
	} else {
		c.allocs++
	}
	return a
}

func (c *timedCollector) LoadField(a mem.Addr, i uint64) uint64 {
	c.fields++
	return c.inner.LoadField(a, i)
}

func (c *timedCollector) StoreField(a mem.Addr, i uint64, v uint64, isPtr bool) {
	c.fields++
	c.inner.StoreField(a, i, v, isPtr)
}

func (c *timedCollector) InitField(a mem.Addr, i uint64, v uint64) {
	c.fields++
	c.inner.InitField(a, i, v)
}

func (c *timedCollector) Collect(major bool) {
	start := time.Now()
	c.inner.Collect(major)
	c.collect.calls++
	c.collect.add(start)
}

func (c *timedCollector) Stats() *core.GCStats { return c.inner.Stats() }
func (c *timedCollector) Heap() *mem.Heap      { return c.inner.Heap() }
func (c *timedCollector) Name() string         { return c.inner.Name() }

// timedProfiler decorates the heap profiler. OnAlloc arrives on the
// allocation path; the other events arrive inside collections, so their
// time is nested in core.collect_s.
type timedProfiler struct {
	inner  *prof.Profiler
	allocs timer // OnAlloc, one in sampleEvery timed
	moves  timer // OnMove, one in sampleEvery timed
	rare   timer // the other events, all timed
}

func (p *timedProfiler) OnAlloc(addr mem.Addr, site obj.SiteID, k obj.Kind, words uint64, pretenured bool) {
	if p.allocs.calls++; p.allocs.calls%sampleEvery != 0 {
		p.inner.OnAlloc(addr, site, k, words, pretenured)
		return
	}
	start := time.Now()
	p.inner.OnAlloc(addr, site, k, words, pretenured)
	p.allocs.add(start)
}

func (p *timedProfiler) OnMove(from, to mem.Addr) {
	if p.moves.calls++; p.moves.calls%sampleEvery != 0 {
		p.inner.OnMove(from, to)
		return
	}
	start := time.Now()
	p.inner.OnMove(from, to)
	p.moves.add(start)
}

func (p *timedProfiler) OnSpaceCondemned(id mem.SpaceID) {
	p.rare.calls++
	start := time.Now()
	p.inner.OnSpaceCondemned(id)
	p.rare.add(start)
}

func (p *timedProfiler) OnLOSDead(addr mem.Addr) {
	p.rare.calls++
	start := time.Now()
	p.inner.OnLOSDead(addr)
	p.rare.add(start)
}

func (p *timedProfiler) OnGCEnd() {
	p.rare.calls++
	start := time.Now()
	p.inner.OnGCEnd()
	p.rare.add(start)
}

// assembled is the outcome of one run assembled by assemble.
type assembled struct {
	check    uint64
	times    costmodel.Breakdown
	stats    core.GCStats
	maxDepth int
	wall     time.Duration
	col      core.Collector // the undecorated collector, for sanitizer passes
	tc       *timedCollector
	tp       *timedProfiler // nil when no profiler is attached
	finalize time.Duration  // profiler Finalize, outside any collector call
	rec      *trace.Recorder
}

// maxLiveWords reads the calibration's maximum live data, which sets the
// k·2·max-live budget. The harness keeps it unexported, so it is read by
// reflection; the traced pass's equality check against harness.Run proves
// the budget matches.
func maxLiveWords(cfg harness.RunConfig) (uint64, error) {
	cal, err := harness.Calibrate(cfg.Workload, cfg.Scale, cfg.PretenureCutoff)
	if err != nil {
		return 0, err
	}
	f := reflect.ValueOf(cal).Elem().FieldByName("maxLiveWords")
	if !f.IsValid() || f.Kind() != reflect.Uint64 {
		return 0, errors.New("harness calibration no longer has a maxLiveWords field")
	}
	return f.Uint(), nil
}

// assemble builds the runtime harness.Run would build for cfg from the
// public constructors, splices the timing decorators in between the
// mutator and the collector and between the collector and the profiler,
// and runs the workload. policy is the pretenuring policy harness.Run
// used (RunResult.Policy).
func assemble(cfg harness.RunConfig, policy *core.PretenurePolicy) (*assembled, error) {
	if cfg.Adapt || cfg.TrainScale != (workload.Scale{}) || cfg.Sanitize {
		return nil, fmt.Errorf("%s: the traced pass does not assemble adapt, train-scale or sanitized runs", cfg.Label())
	}
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return nil, err
	}
	budget := uint64(1) << 24
	if cfg.K > 0 {
		live, err := maxLiveWords(cfg)
		if err != nil {
			return nil, err
		}
		budget = uint64(cfg.K * 2 * float64(live))
	}
	markerN := cfg.MarkerN
	if markerN == 0 {
		markerN = 25
	}

	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	a := &assembled{}
	var profiler *prof.Profiler
	var profHook core.Profiler
	if cfg.Profile || cfg.Trace {
		profiler = prof.New(w.Sites())
		a.tp = &timedProfiler{inner: profiler}
		profHook = a.tp
	}
	if cfg.Trace {
		a.rec = trace.NewRecorder(meter)
		a.rec.SetSiteNames(w.Sites())
		if cfg.TraceHeap {
			a.rec.EnableHeapSampling()
		}
		stack.SetTracer(a.rec)
		rec := a.rec
		profiler.SetDeathSink(func(site obj.SiteID, bytes uint64) { rec.DeadSite(site, bytes/mem.WordSize) })
	}

	var attachThreads func(*rt.ThreadSet)
	if cfg.Kind == harness.KindSemispace {
		s := core.NewSemispace(stack, meter, profHook, core.SemispaceConfig{
			BudgetWords: budget, Workers: cfg.GCWorkers, Trace: a.rec,
		})
		a.col, attachThreads = s, s.AttachThreads
	} else {
		gcfg := core.GenConfig{
			BudgetWords:  budget,
			NurseryWords: nurseryFor(budget),
			Workers:      cfg.GCWorkers,
			DeferMajor:   cfg.DeferMajor,
			OldCollector: cfg.OldCollector,
			Trace:        a.rec,
		}
		if cfg.Profile && cfg.K == 0 {
			gcfg.NurseryWords = 4 * 1024
		}
		switch cfg.Kind {
		case harness.KindGenerational:
		case harness.KindGenMarkers:
			gcfg.MarkerN = markerN
		case harness.KindGenMarkersPretenure:
			gcfg.MarkerN, gcfg.Pretenure = markerN, policy
		case harness.KindGenMarkersPretenureElide:
			gcfg.MarkerN, gcfg.Pretenure, gcfg.ScanElision = markerN, policy, true
		case harness.KindGenCards:
			gcfg.UseCardTable = true
		case harness.KindGenPretenure:
			gcfg.Pretenure = policy
		case harness.KindGenAging:
			gcfg.AgingMinors = 3
		case harness.KindGenAgingPretenure:
			gcfg.AgingMinors, gcfg.Pretenure = 3, policy
		default:
			return nil, fmt.Errorf("unknown collector kind %v", cfg.Kind)
		}
		g := core.NewGenerational(stack, meter, profHook, gcfg)
		a.col, attachThreads = g, g.AttachThreads
	}
	var threads *rt.ThreadSet
	if cfg.Threads > 1 {
		threads = rt.NewThreadSet(stack, meter)
		attachThreads(threads)
		for i := 1; i < cfg.Threads; i++ {
			threads.Spawn()
		}
	}
	a.tc = &timedCollector{inner: a.col}
	m := workload.NewMutator(a.tc, stack, table, meter)
	m.Threads = threads
	m.Rec = a.rec

	start := time.Now()
	res := w.Run(m, cfg.Scale)
	if profiler != nil {
		t := time.Now()
		profiler.Finalize()
		a.finalize = time.Since(t)
	}
	a.rec.Finish()
	a.wall = time.Since(start)
	if err := a.rec.VerifyReconciled(); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Label(), err)
	}
	a.check, a.times, a.stats, a.maxDepth = res.Check, meter.Snapshot(), *a.col.Stats(), stack.MaxDepth()
	return a, nil
}

// nurseryFor is harness's nursery sizing: 512KB, shrunk to a quarter of
// a small budget, never below 1024 words.
func nurseryFor(budgetWords uint64) uint64 {
	return max(min(uint64(64*1024), budgetWords/4), 1024)
}

// safeAssemble is assemble with a panic turned into an error.
func safeAssemble(cfg harness.RunConfig, policy *core.PretenurePolicy) (a *assembled, err error) {
	defer func() {
		if p := recover(); p != nil {
			a, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return assemble(cfg, policy)
}

// layerTally sums an assembled pass over a unit's runs.
type layerTally struct {
	wall, finalize, collect            time.Duration
	prof, profAllocs                   time.Duration
	gcCalls, profCalls, allocs, fields uint64
	client, gc, total                  costmodel.Cycles
	collections, majors                uint64
	copied, ssb, marked, swept, preten uint64
	decoded, reused, quanta            uint64
	maxDepth                           int
	events                             int
	jsonlBytes                         int64
	jsonlWrite, sloCompute             time.Duration
	sloRuns                            int
	mmu10k, mmu100k                    uint64
	passes                             map[string]time.Duration
}

func newLayerTally() *layerTally { return &layerTally{passes: map[string]time.Duration{}} }

func (t *layerTally) add(a *assembled) {
	t.wall += a.wall
	t.finalize += a.finalize
	t.collect += a.tc.collect.total()
	t.gcCalls += a.tc.collect.calls
	t.allocs += a.tc.allocs
	t.fields += a.tc.fields
	if a.tp != nil {
		t.profAllocs += a.tp.allocs.total()
		t.prof += a.tp.allocs.total() + a.tp.moves.total() + a.tp.rare.total()
		t.profCalls += a.tp.allocs.calls + a.tp.moves.calls + a.tp.rare.calls
	}
	t.client += a.times.Client
	t.gc += a.times.GC()
	t.total += a.times.Total()
	s := a.stats
	t.collections += s.NumGC
	t.majors += s.NumMajor
	t.copied += s.BytesCopied
	t.ssb += s.SSBProcessed
	t.marked += s.WordsMarked
	t.swept += s.WordsSwept
	t.preten += s.Pretenured
	t.decoded += s.FramesDecoded
	t.reused += s.FramesReused
	t.quanta += s.ParallelQuanta
	t.maxDepth = max(t.maxDepth, a.maxDepth)
}

// timed returns the host time fn takes. Results leave fn through its
// closure, never through a value computed alongside the clock reads.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// layers is the traced pass: per-layer metrics for the workload, measured
// separately from the end-to-end samples. All runs here are serial, so the
// host times of different runs add up.
func (b *bench) layers() {
	o := b.out
	cfgs := b.w.cfgs(b.scale)
	calS, err := calibrateAll(cfgs)
	o.check("set-up", errReasons(err))
	o.set("harness.calibrate_s", calS, "s")
	o.set("harness.runs", float64(len(cfgs)), "count")

	plainCfgs := make([]harness.RunConfig, len(cfgs))
	tracedCfgs := make([]harness.RunConfig, len(cfgs))
	sanitizedCfgs := make([]harness.RunConfig, len(cfgs))
	for i, c := range cfgs {
		c.Trace, c.TraceHeap, c.Sanitize = false, false, false
		plainCfgs[i] = c
		c.Sanitize = true
		sanitizedCfgs[i] = c
		c.Trace, c.TraceHeap, c.Sanitize = true, true, false
		tracedCfgs[i] = c
	}
	// The unit's shape, and the other one: a workload whose unit does not
	// trace still has its trace and profiler layers measured, on a traced
	// pass that does not enter its wall_s.
	unitCfgs, otherCfgs := plainCfgs, tracedCfgs
	if cfgs[0].Trace {
		unitCfgs, otherCfgs = tracedCfgs, plainCfgs
	}

	var plain, sanitized []*harness.RunResult
	var errs []error
	plainWall := timed(func() { plain, errs = runBatch(plainCfgs, 1) })
	o.check("untraced reference", b.verifyRuns(plain, errs, nil))
	sanitizedWall := timed(func() { sanitized, errs = runBatch(sanitizedCfgs, 1) })
	o.check("sanitized harness run", b.verifyRuns(sanitized, errs, factsAll(plain)))

	unit, other := newLayerTally(), newLayerTally()
	if allOK(plain) {
		b.startProfile()
		b.assembledPass(unitCfgs, plain, unit, true)
		b.stopProfile()
		b.assembledPass(otherCfgs, plain, other, false)
	}
	traced, untraced := unit, other
	if !cfgs[0].Trace {
		traced, untraced = other, unit
	}
	allocNs, fieldNs := b.micro()
	b.reportLayers(unit, allocNs, fieldNs)
	b.reportTracing(traced, untraced)
	o.set("sanitize.overhead_s", (sanitizedWall - plainWall).Seconds(), "s")
	o.set("bench.trace_overhead_pct", 100*(untraced.wall-plainWall).Seconds()/plainWall.Seconds(), "%")
}

// assembledPass runs cfgs assembled with the timing decorators, checks each
// run against the harness.Run reference plain, and tallies the layers into
// t. With checkHeaps set, every sanitizer pass is also timed once on each
// run's final heap.
func (b *bench) assembledPass(cfgs []harness.RunConfig, plain []*harness.RunResult, t *layerTally, checkHeaps bool) {
	o := b.out
	for i, c := range cfgs {
		a, err := safeAssemble(c, plain[i].Policy)
		if err != nil {
			o.check("traced pass "+c.Label(), []string{err.Error()})
			continue
		}
		o.check("traced pass "+c.Label(), b.verifyAssembled(c, a, factsOf(plain[i])))
		t.add(a)
		if a.rec != nil {
			t.events += len(a.rec.Events())
			b.encodeTimed(c, a, t)
		}
		if !checkHeaps {
			continue
		}
		for _, name := range sanitize.PassNames() {
			start := time.Now()
			vs := sanitize.CheckPasses(a.col, []string{name})
			t.passes[name] += time.Since(start)
			for _, v := range vs {
				o.check("sanitizer pass "+name+" on "+c.Label(), []string{v.String()})
			}
		}
	}
}

// verifyAssembled checks that the assembled run reproduced the harness run.
func (b *bench) verifyAssembled(c harness.RunConfig, a *assembled, want facts) []string {
	got := facts{Check: a.check, Total: a.times.Total(), GC: a.times.GC(), NumGC: a.stats.NumGC, Majors: a.stats.NumMajor}
	var reasons []string
	if got != want {
		reasons = append(reasons, fmt.Sprintf("simulated facts %+v differ from harness.Run's %+v", got, want))
	}
	if pin, ok := b.pins[c.Label()]; b.pins != nil && (!ok || a.check != pin) {
		reasons = append(reasons, fmt.Sprintf("checksum %d, pinned %d", a.check, pin))
	}
	return reasons
}

// encodeTimed times the trace and SLO JSONL encodings and the SLO
// computation of one traced run.
func (b *bench) encodeTimed(c harness.RunConfig, a *assembled, t *layerTally) {
	d := a.rec.Data(c.Label())
	var cw countingWriter
	start := time.Now()
	err := trace.NewFile(d).WriteJSONL(&cw)
	t.jsonlWrite += time.Since(start)
	start = time.Now()
	rr, cerr := slo.Compute(d, slo.DefaultWindows)
	t.sloCompute += time.Since(start)
	if cerr == nil {
		start = time.Now()
		err = errors.Join(err, slo.NewReport(slo.DefaultWindows, rr).WriteJSONL(&cw))
		t.jsonlWrite += time.Since(start)
		// The worst (lowest) MMU over the unit's traced runs.
		first := t.sloRuns == 0
		t.sloRuns++
		for _, ws := range rr.Windows {
			switch {
			case ws.Window == 10_000 && (first || ws.MMUppm < t.mmu10k):
				t.mmu10k = ws.MMUppm
			case ws.Window == 100_000 && (first || ws.MMUppm < t.mmu100k):
				t.mmu100k = ws.MMUppm
			}
		}
	}
	t.jsonlBytes += cw.n
	b.out.check("trace and SLO encoding "+c.Label(), errReasons(errors.Join(err, cerr)))
}

// reportTracing sets the trace, SLO and profiler metrics from the traced
// pass, and the tracing overhead as traced minus untraced pass.
func (b *bench) reportTracing(traced, untraced *layerTally) {
	o := b.out
	o.set("prof.calls", float64(traced.profCalls), "count")
	o.set("prof.self_s", traced.prof.Seconds(), "s")
	o.set("trace.overhead_s", (traced.wall - untraced.wall).Seconds(), "s")
	o.set("trace.events", float64(traced.events), "count")
	o.set("trace.jsonl_write_s", traced.jsonlWrite.Seconds(), "s")
	o.set("trace.jsonl_mib", float64(traced.jsonlBytes)/(1<<20), "MiB")
	o.set("slo.compute_s", traced.sloCompute.Seconds(), "s")
	o.set("slo.mmu_10k_ppm", float64(traced.mmu10k), "ppm")
	o.set("slo.mmu_100k_ppm", float64(traced.mmu100k), "ppm")
}

// reportLayers sets the per-layer metrics of the unit-shaped pass. The pass's
// wall time splits into collections (timed), the other allocations and
// the field accesses (counted, at the microbenchmarks' cost per call), the
// profiler's allocation events and end-of-run Finalize (timed), and the
// workload's own time, the rest.
func (b *bench) reportLayers(t *layerTally, allocNs, fieldNs float64) {
	o := b.out
	wall := t.wall.Seconds()
	collect := t.collect
	alloc := time.Duration(allocNs * float64(t.allocs))
	field := time.Duration(fieldNs * float64(t.fields))
	self := t.wall - collect - alloc - field - t.profAllocs - t.finalize
	o.set("workload.self_s", self.Seconds(), "s")
	o.set("workload.self_ns_per_client_kcycle", float64(self.Nanoseconds())/(float64(t.client)/1e3), "ns/kcycle")
	o.set("core.alloc_calls", float64(t.allocs+t.gcCalls), "count")
	o.set("core.alloc_ns", allocNs, "ns/op")
	o.set("core.field_calls", float64(t.fields), "count")
	o.set("core.field_ns", fieldNs, "ns/op")
	o.set("core.collect_s", collect.Seconds(), "s")
	o.set("core.collections", float64(t.collections), "count")
	o.set("core.majors", float64(t.majors), "count")
	o.set("core.collect_host_share", collect.Seconds()/wall, "ratio")
	o.set("core.collect_sim_share", float64(t.gc)/float64(t.total), "ratio")
	o.set("core.collect_ns_per_gc_kcycle", float64(collect.Nanoseconds())/(float64(t.gc)/1e3), "ns/kcycle")
	o.set("core.copied_mib", float64(t.copied)/(1<<20), "MiB")
	o.set("core.ssb_processed", float64(t.ssb), "count")
	o.set("core.words_marked", float64(t.marked), "count")
	o.set("core.words_swept", float64(t.swept), "count")
	o.set("core.pretenured", float64(t.preten), "count")
	o.set("rt.frames_decoded", float64(t.decoded), "count")
	o.set("rt.frames_reused", float64(t.reused), "count")
	o.set("rt.max_depth", float64(t.maxDepth), "frames")
	o.set("costmodel.parallel_quanta", float64(t.quanta), "count")
	for _, name := range sanitize.PassNames() {
		o.set("sanitize."+name+"_ms", float64(t.passes[name].Nanoseconds())/1e6, "ms")
	}
	fmt.Printf("traced pass: wall %.3fs = workload self %.3fs + collect %.3fs + alloc %.3fs + field %.3fs + profiler OnAlloc %.3fs + profiler Finalize %.3fs\n",
		wall, self.Seconds(), collect.Seconds(), alloc.Seconds(), field.Seconds(), t.profAllocs.Seconds(), t.finalize.Seconds())
}
