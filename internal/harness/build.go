package harness

import (
	"errors"
	"fmt"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
	"tilgc/internal/rt"
	"tilgc/internal/sanitize"
	"tilgc/internal/trace"
	"tilgc/internal/workload"
)

// Spec is a resolved runtime description: which collector, its core
// configuration, and which observers to attach. Every front end —
// RunConfig here, gcsim.Config, the fuzz matrix — maps its own options
// onto a Spec, and Build is the one place a Spec becomes a runtime, so
// every configuration a comparison varies is assembled the same way.
type Spec struct {
	// Semispace selects the §2.1 semispace baseline instead of the
	// generational collector. It uses Collector's BudgetWords,
	// LargeObjectWords, MarkerN and Workers; DeferMajor is vacuous (every
	// semispace collection is full) and the generational-only fields
	// must be zero.
	Semispace bool
	// InitialWords sizes a semispace run's first space (0 = core default).
	InitialWords uint64
	// Collector configures the collector. Build fills in Trace and
	// Advisor from the recorder and adapt engine it creates.
	Collector core.GenConfig
	// Threads > 1 runs the mutator over that many simulated threads; 0
	// or 1 is the single-thread runtime with no thread set (see
	// Runtime.AttachThreads to attach one at T=1).
	Threads int
	// Profile attaches the heap profiler. Trace and Adapt attach it too,
	// internally: the recorder borrows its per-site death accounting and
	// the advisor feeds on its lifetime events. The profiler charges
	// nothing to the meter, so attaching it never perturbs the run.
	Profile bool
	// SiteNames labels allocation sites for the profiler and recorder.
	SiteNames map[obj.SiteID]string
	// Trace attaches a telemetry recorder; TraceHeap adds per-space
	// occupancy samples to it.
	Trace     bool
	TraceHeap bool
	// Adapt, when non-nil, attaches the online pretenuring advisor with
	// these parameters, warm-started from AdaptWarm when that is non-nil.
	Adapt     *adapt.Params
	AdaptWarm *adapt.RunProfile
	// Wrap, when non-nil, decorates the built collector before the
	// sanitizer (fault-injection tests).
	Wrap func(core.Collector) core.Collector
	// Sanitize, when non-nil, wraps the collector with the heap-integrity
	// sanitizer using these options.
	Sanitize *sanitize.Options
}

// Validate reports every option the selected collector would silently
// ignore and every out-of-range value, one error per problem.
func (s Spec) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	g := &s.Collector
	if s.Semispace {
		// The semispace baseline has no nursery, no write barrier, no
		// promotion, and no tenured generation: every generational knob
		// is meaningless rather than defaulted.
		if g.NurseryWords != 0 {
			bad("NurseryWords is set but the Semispace collector has no nursery")
		}
		if g.UseCardTable {
			bad("CardTable is set but the Semispace collector has no write barrier")
		}
		if g.AgingMinors != 0 {
			bad("AgingMinors is set but the Semispace collector has no promotion")
		}
		if g.Pretenure != nil {
			bad("Pretenure is set but the Semispace collector has no tenured generation")
		}
		if g.ScanElision {
			bad("ScanElision is set but the Semispace collector has no pretenured region")
		}
		if g.OldCollector != core.OldCopy {
			bad("OldCollector %v is set but the Semispace collector has no old generation", g.OldCollector)
		}
		if s.Adapt != nil {
			bad("Adapt is set but the Semispace collector has no tenured generation to pretenure into")
		}
	} else if g.ScanElision && g.Pretenure == nil {
		bad("ScanElision is set without a Pretenure policy, so there is no pretenured region to elide")
	}
	if g.OldCollector > core.OldMarkCompact {
		bad("unknown OldCollector %d (want OldCopy, OldMarkSweep, or OldMarkCompact)", g.OldCollector)
	}
	if g.MarkerN < 0 {
		bad("MarkerN %d is negative", g.MarkerN)
	}
	if g.AgingMinors < 0 {
		bad("AgingMinors %d is negative", g.AgingMinors)
	}
	if s.Threads < 0 {
		bad("Threads %d is negative", s.Threads)
	}
	if g.Workers < 0 {
		bad("GCWorkers %d is negative", g.Workers)
	}
	return errors.Join(errs...)
}

// Runtime is a built runtime: the simulated machine, the collector, and
// whichever observers the Spec asked for (nil otherwise).
type Runtime struct {
	Meter    *costmodel.Meter
	Table    *rt.TraceTable
	Stack    *rt.Stack
	Profiler *prof.Profiler
	Rec      *trace.Recorder
	Engine   *adapt.Engine
	// Col is the collector the mutator talks to: the sanitizer wrapper
	// when the Spec asked for one.
	Col     core.Collector
	Threads *rt.ThreadSet

	gen    *core.Generational // nil for the semispace collector
	attach func(*rt.ThreadSet)
}

// Build validates s and assembles its runtime in a fixed order: meter,
// trace table and stack; the profiler (when profiling, tracing or
// adapting) with its death sink wired to the recorder; the recorder; the
// adapt engine; the collector, with the thread set attached before the
// first allocation; then Wrap and the sanitizer, outermost.
func Build(s Spec) (*Runtime, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := &Runtime{Meter: costmodel.NewMeter(), Table: rt.NewTraceTable()}
	r.Stack = rt.NewStack(r.Table, r.Meter)
	var profHook core.Profiler
	if s.Profile || s.Trace || s.Adapt != nil {
		r.Profiler = prof.New(s.SiteNames)
		profHook = r.Profiler
	}
	if s.Trace {
		rec := trace.NewRecorder(r.Meter)
		rec.SetSiteNames(s.SiteNames)
		if s.TraceHeap {
			rec.EnableHeapSampling()
		}
		r.Stack.SetTracer(rec)
		r.Profiler.SetDeathSink(func(site obj.SiteID, bytes uint64) {
			rec.DeadSite(site, bytes/mem.WordSize)
		})
		r.Rec = rec
	}
	if s.Adapt != nil {
		r.Engine = adapt.New(r.Meter, r.Rec, *s.Adapt)
		r.Profiler.SetObserver(r.Engine)
		r.Engine.WarmStart(s.AdaptWarm)
	}

	g := s.Collector
	g.Trace = r.Rec
	if s.Semispace {
		c := core.NewSemispace(r.Stack, r.Meter, profHook, core.SemispaceConfig{
			BudgetWords:      g.BudgetWords,
			LargeObjectWords: g.LargeObjectWords,
			MarkerN:          g.MarkerN,
			InitialWords:     s.InitialWords,
			Workers:          g.Workers,
			Trace:            g.Trace,
		})
		r.Col, r.attach = c, c.AttachThreads
	} else {
		if r.Engine != nil {
			g.Advisor = r.Engine
		}
		r.gen = core.NewGenerational(r.Stack, r.Meter, profHook, g)
		r.Col, r.attach = r.gen, r.gen.AttachThreads
	}
	// The thread set is created only for T > 1, so single-thread runs
	// execute the exact pre-thread code paths.
	if s.Threads > 1 {
		r.AttachThreads(rt.NewThreadSet(r.Stack, r.Meter))
		for i := 1; i < s.Threads; i++ {
			r.Threads.Spawn()
		}
	}
	if s.Wrap != nil {
		r.Col = s.Wrap(r.Col)
	}
	if s.Sanitize != nil {
		r.Col = sanitize.Wrap(r.Col, *s.Sanitize)
	}
	return r, nil
}

// AttachThreads connects a thread set to the collector. It must run
// before the first allocation; Build calls it for Threads > 1.
func (r *Runtime) AttachThreads(ts *rt.ThreadSet) {
	r.attach(ts)
	r.Threads = ts
}

// Mutator returns a workload mutator over the runtime. A traced runtime
// records request spans (Mutator.Request); an untraced one leaves them
// plain calls, so the simulated times are identical either way.
func (r *Runtime) Mutator() *workload.Mutator {
	m := workload.NewMutator(r.Col, r.Stack, r.Table, r.Meter)
	m.Threads = r.Threads
	m.Rec = r.Rec
	return m
}

// PointerUpdates returns the lifetime count of barriered pointer stores
// (always zero under the semispace collector, which has no barrier).
func (r *Runtime) PointerUpdates() uint64 {
	if r.gen == nil {
		return 0
	}
	return r.gen.PointerUpdates()
}

// Finish runs the end-of-run sequence: the profiler's final accounting,
// then the advisor's seal (after Finalize, so end-of-run deaths fold into
// its stored survival state without triggering decisions), then the
// recorder's seal and reconciliation against the meter.
func (r *Runtime) Finish() error {
	if r.Profiler != nil {
		r.Profiler.Finalize()
	}
	if r.Engine != nil {
		r.Engine.Seal()
	}
	if r.Rec == nil {
		return nil
	}
	r.Rec.Finish()
	return r.Rec.VerifyReconciled()
}
