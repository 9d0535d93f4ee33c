// Package gcsim is the public API of tilgc: a simulated-runtime
// reproduction of "Generational Stack Collection and Profile-Driven
// Pretenuring" (Cheng, Harper, Lee — PLDI 1998).
//
// The package exposes three layers:
//
//   - Runtime construction: NewRuntime builds a simulated mutator runtime
//     (arena heap, activation-record stack with trace tables, register
//     file, write barrier) paired with one of the paper's collectors,
//     configured through Config. User programs drive it through the
//     slot-oriented Mutator API.
//
//   - Benchmarks: the paper's eleven SML benchmark programs, runnable by
//     name under any collector configuration with deterministic
//     self-checks.
//
//   - Experiments: the harness regenerating every table and figure of the
//     paper's evaluation (Tables 2-7, Figure 2) plus the §7.2 and §4
//     extensions.
//
// A minimal program:
//
//	rt := gcsim.NewRuntime(gcsim.Config{Collector: gcsim.Generational})
//	m := rt.Mutator()
//	frame := m.PtrFrame("main", 2)
//	m.Call(frame, func() {
//	    m.ConsInt(1, 42, 1, 1) // cons 42 onto the nil list in slot 1
//	})
package gcsim

import (
	"fmt"
	"io"

	"tilgc/internal/adapt"
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/harness"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
	"tilgc/internal/rt"
	"tilgc/internal/workload"
)

// CollectorChoice selects a collector configuration.
type CollectorChoice int

const (
	// Generational (the zero value, and the default) is the
	// two-generation collector with immediate promotion and a
	// sequential-store-buffer write barrier (§2.1).
	Generational CollectorChoice = iota
	// Semispace is the Cheney-scan semispace baseline (§2.1).
	Semispace
	// GenerationalMarkers adds generational stack collection (§5).
	GenerationalMarkers
	// GenerationalFull adds profile-driven pretenuring on top (§6); a
	// pretenuring policy must be supplied (see Profile / PolicyFromProfile).
	GenerationalFull
)

// Config configures a Runtime.
type Config struct {
	// Collector picks the collector; default Generational.
	Collector CollectorChoice
	// BudgetWords caps total collector memory in 8-byte words
	// (0 = 512Mi words, effectively unconstrained).
	BudgetWords uint64
	// NurseryWords sizes the young generation (default 65536 = 512KB).
	NurseryWords uint64
	// MarkerN is the stack-marker spacing n (default 25).
	MarkerN int
	// Pretenure supplies the per-site pretenuring decisions for
	// GenerationalFull.
	Pretenure *PretenurePolicy
	// ScanElision enables the §7.2 pretenured-region scan elision.
	ScanElision bool
	// CardTable replaces the SSB with card marking (§4 alternative).
	CardTable bool
	// AgingMinors disables immediate promotion: nursery survivors age
	// through an intermediate space for this many further minor
	// collections before tenuring (§7.2 discussion). Zero = the paper's
	// immediate promotion.
	AgingMinors int
	// Profile attaches a heap profiler (Figure 2 data; slows the run).
	Profile bool
	// SiteNames documents allocation sites in profile reports.
	SiteNames map[SiteID]string
	// Threads runs the mutator over this many simulated threads: thread 0
	// wraps the primary stack and the rest spawn with empty stacks. The
	// scheduler is cooperative — programs switch with
	// Mutator.SetThread — so 0 or 1 is the single-thread runtime,
	// byte-identical to builds without thread support.
	Threads int
	// GCWorkers enables the deterministic parallel copying phases with
	// this many simulated workers: heap images stay byte-identical at
	// every worker count while pause wall time shrinks to the critical
	// path (max-of-workers). 0 or 1 is the serial collector.
	GCWorkers int
	// DeferMajor bounds individual pauses in the generational collectors:
	// an over-threshold major collection runs as its own pause at the next
	// GC trigger instead of piggybacking on the minor that crossed the
	// threshold. Same collections, same work — only the pause boundaries
	// move. Ignored by the semispace collector (every collection is full).
	DeferMajor bool
	// OldCollector selects the tenured-generation algorithm for the
	// generational collectors: OldCopy (the zero value — the paper's
	// copying old generation), OldMarkSweep (non-moving, mark bitmap +
	// size-segregated free lists), or OldMarkCompact (mark bitmap + a
	// sliding compaction preserving allocation order). Client-visible
	// results are byte-identical across all three; only GC cost, pause
	// shape, and heap footprint differ. Combining it with the Semispace
	// collector is a validation error: that baseline has no old
	// generation.
	OldCollector OldGenCollector
}

// OldGenCollector selects the tenured-generation algorithm (see
// Config.OldCollector).
type OldGenCollector = core.OldCollector

// Old-generation collector choices.
const (
	// OldCopy is the paper's copying old generation (the default).
	OldCopy = core.OldCopy
	// OldMarkSweep is the non-moving bitmap mark-sweep old generation.
	OldMarkSweep = core.OldMarkSweep
	// OldMarkCompact is the sliding bitmap mark-compact old generation.
	OldMarkCompact = core.OldMarkCompact
)

// ParseOldCollector resolves an old-generation collector name ("copy",
// "marksweep", "markcompact"; "" means copy) to its value, reporting
// whether the name was recognized.
func ParseOldCollector(s string) (OldGenCollector, bool) {
	return core.ParseOldCollector(s)
}

// Re-exported building blocks.
type (
	// Mutator is the slot-oriented mutator API programs are written in.
	Mutator = workload.Mutator
	// PretenurePolicy maps allocation sites to pretenure decisions.
	PretenurePolicy = core.PretenurePolicy
	// PretenureDecision configures one pretenured site.
	PretenureDecision = core.PretenureDecision
	// SiteID identifies an allocation site.
	SiteID = obj.SiteID
	// Profiler is the heap profiler (per-site lifetime statistics).
	Profiler = prof.Profiler
	// ReportOptions controls Figure 2-style profile report rendering.
	ReportOptions = prof.ReportOptions
	// GCStats is the collector statistics block.
	GCStats = core.GCStats
	// Scale scales benchmark workloads relative to the paper's runs.
	Scale = workload.Scale
	// FrameInfo is a registered activation-record layout.
	FrameInfo = rt.FrameInfo
	// SlotTrace describes a stack slot or register to the collector.
	SlotTrace = rt.SlotTrace
)

// Trace constructors, re-exported for building frame layouts.
var (
	// NP marks a slot as a non-pointer.
	NP = rt.NP
	// PTR marks a slot as a statically-known pointer.
	PTR = rt.PTR
	// SAVE marks a slot as the spill of a caller's callee-save register.
	SAVE = rt.SAVE
	// COMPSLOT marks a slot whose pointer-ness is computed from a runtime
	// type in another slot.
	COMPSLOT = rt.COMPSLOT
	// COMPREG marks a slot whose pointer-ness is computed from a runtime
	// type in a register (top frame only).
	COMPREG = rt.COMPREG
)

// DefaultReportOptions mirrors the paper's Figure 2 report settings.
func DefaultReportOptions(title string) ReportOptions {
	return prof.DefaultReportOptions(title)
}

// NewPretenurePolicy builds a policy from explicit decisions.
func NewPretenurePolicy(sites map[SiteID]PretenureDecision) *PretenurePolicy {
	return core.NewPretenurePolicy(sites)
}

// Runtime is a simulated runtime plus collector.
type Runtime struct {
	rt      *harness.Runtime
	mutator *workload.Mutator
}

// NewRuntime builds a runtime per cfg. The configuration must be valid
// (see Config.Validate): option combinations the selected collector would
// ignore panic here instead of silently running a different experiment.
func NewRuntime(cfg Config) *Runtime {
	mustValidate(cfg)
	r, err := harness.Build(cfg.spec())
	if err != nil {
		panic(err) // unreachable: mustValidate checked the same Spec
	}
	return &Runtime{rt: r, mutator: r.Mutator()}
}

// spec maps the configuration onto the harness's runtime Spec.
func (c Config) spec() harness.Spec {
	budget := c.BudgetWords
	if budget == 0 {
		budget = 512 << 20
	}
	g := core.GenConfig{
		BudgetWords:  budget,
		NurseryWords: c.NurseryWords,
		MarkerN:      c.MarkerN,
		AgingMinors:  c.AgingMinors,
		Pretenure:    c.Pretenure,
		ScanElision:  c.ScanElision,
		UseCardTable: c.CardTable,
		Workers:      c.GCWorkers,
		DeferMajor:   c.DeferMajor,
		OldCollector: c.OldCollector,
	}
	if c.Collector == GenerationalMarkers || c.Collector == GenerationalFull {
		if g.MarkerN == 0 {
			g.MarkerN = 25
		}
	}
	return harness.Spec{
		Semispace: c.Collector == Semispace,
		Collector: g,
		Threads:   c.Threads,
		Profile:   c.Profile,
		SiteNames: c.SiteNames,
	}
}

// Mutator returns the mutator API for writing programs against this
// runtime.
func (r *Runtime) Mutator() *Mutator { return r.mutator }

// Collect forces a collection (major on generational collectors when
// major is true).
func (r *Runtime) Collect(major bool) { r.rt.Col.Collect(major) }

// Stats returns collector statistics.
func (r *Runtime) Stats() *GCStats { return r.rt.Col.Stats() }

// CollectorName returns the active collector configuration's name.
func (r *Runtime) CollectorName() string { return r.rt.Col.Name() }

// ClientSeconds returns mutator time in simulated seconds.
func (r *Runtime) ClientSeconds() float64 {
	return r.rt.Meter.Get(costmodel.Client).Seconds()
}

// GCSeconds returns collector time in simulated seconds.
func (r *Runtime) GCSeconds() float64 { return r.rt.Meter.GC().Seconds() }

// GCStackSeconds returns the stack-root-processing share of GC time.
func (r *Runtime) GCStackSeconds() float64 {
	return r.rt.Meter.Get(costmodel.GCStack).Seconds()
}

// GCCopySeconds returns the heap scan/copy share of GC time.
func (r *Runtime) GCCopySeconds() float64 {
	return r.rt.Meter.Get(costmodel.GCCopy).Seconds()
}

// Profiler returns the heap profiler, or nil when profiling is off.
// Call Finalize on it after the program completes.
func (r *Runtime) Profiler() *Profiler { return r.rt.Profiler }

// PolicyFromProfile derives the paper's pretenuring policy from a
// finalized profile: every site whose old% is at least cutoffPct (the
// paper uses 80) with at least minObjects allocations is pretenured.
func PolicyFromProfile(p *Profiler, cutoffPct float64, minObjects uint64) *PretenurePolicy {
	return p.Policy(cutoffPct, minObjects)
}

// ---- Benchmarks -------------------------------------------------------------

// Benchmarks returns the names of the paper's benchmark programs in table
// order.
func Benchmarks() []string {
	out := make([]string, len(harness.PaperOrder))
	copy(out, harness.PaperOrder)
	return out
}

// BenchmarkInfo describes a benchmark program.
type BenchmarkInfo struct {
	Name        string
	Description string
	Sites       map[SiteID]string
}

// Describe returns a benchmark's metadata.
func Describe(name string) (BenchmarkInfo, error) {
	w, err := workload.Get(name)
	if err != nil {
		return BenchmarkInfo{}, err
	}
	return BenchmarkInfo{Name: w.Name(), Description: w.Description(), Sites: w.Sites()}, nil
}

// RunBenchmark executes a named benchmark on r and returns its
// deterministic self-check value.
func (r *Runtime) RunBenchmark(name string, scale Scale) (uint64, error) {
	w, err := workload.Get(name)
	if err != nil {
		return 0, err
	}
	res := w.Run(r.mutator, scale)
	if r.rt.Profiler != nil {
		// One final collection so objects allocated near the end get a
		// survival observation before end-of-run accounting.
		r.rt.Col.Collect(false)
	}
	if err := r.rt.Finish(); err != nil {
		return 0, err
	}
	return res.Check, nil
}

// ---- Experiments ------------------------------------------------------------

// RunOptions configures experiment execution: worker-pool parallelism
// and the per-run progress hook. The zero value runs with one worker per
// CPU and no progress events. Whatever the parallelism, experiment
// output is byte-identical to the serial path (see harness.RunAll).
type RunOptions = harness.Options

// RunEvent is one per-run progress notification (see RunOptions.Events).
type RunEvent = harness.Event

// RunEvent kinds.
const (
	EventRunStarted  = harness.EventRunStarted
	EventRunFinished = harness.EventRunFinished
)

// Experiment regenerates one of the paper's tables or figures, writing
// the rendered result to w. Valid names: "table1" ... "table7",
// "figure2", "elide", "barrier", "markersweep", "adapt", "slo",
// "oldgen".
func Experiment(w io.Writer, name string, scale Scale) error {
	return ExperimentOpts(w, name, scale, RunOptions{})
}

// ExperimentOpts is Experiment with explicit execution options.
func ExperimentOpts(w io.Writer, name string, scale Scale, opts RunOptions) error {
	switch name {
	case "table1":
		return harness.Table1(w)
	case "table2":
		return harness.Table2(w, scale, opts)
	case "table3":
		return harness.Table3(w, scale, opts)
	case "table4":
		return harness.Table4(w, scale, opts)
	case "table5":
		return harness.Table5(w, scale, opts)
	case "table6":
		return harness.Table6(w, scale, opts)
	case "table7":
		return harness.Table7(w, scale, opts)
	case "figure2":
		return harness.Figure2(w, scale, opts)
	case "elide":
		return harness.ExtensionElide(w, scale, opts)
	case "barrier":
		return harness.ExtensionBarrier(w, scale, opts)
	case "aging":
		return harness.ExtensionAging(w, scale, opts)
	case "markersweep":
		return harness.MarkerSweep(w, scale,
			[]string{"Knuth-Bendix", "Color"}, []int{5, 10, 25, 50, 100}, opts)
	case "adapt":
		return harness.ExperimentAdapt(w, scale, opts)
	case "slo":
		return harness.ExperimentSLO(w, scale, opts)
	case "oldgen":
		return harness.ExperimentOldgen(w, scale, opts)
	}
	return fmt.Errorf("gcsim: unknown experiment %q", name)
}

// Experiments lists the valid Experiment names.
func Experiments() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "figure2", "elide", "barrier", "aging", "markersweep",
		"adapt", "slo", "oldgen",
	}
}

// ---- Adaptive pretenuring ---------------------------------------------------

// Re-exported adaptive-pretenuring store types (§9). An AdaptStore is the
// schema-versioned cross-run profile store; each AdaptProfile inside it
// seeds one workload's advisor on a warm start (RunOptions.AdaptWarm).
type (
	// AdaptStore is a collection of stored advisor profiles.
	AdaptStore = adapt.Store
	// AdaptProfile is one run's stored advisor state.
	AdaptProfile = adapt.RunProfile
)

// ReadAdaptStore decodes a profile store from its JSONL serialization,
// rejecting unknown schema versions with a descriptive error.
func ReadAdaptStore(r io.Reader) (*AdaptStore, error) { return adapt.ReadJSONL(r) }

// AdaptProfileFromProfiler converts a finalized offline heap profile into
// a warm-startable advisor profile: sites whose old% meets cutoffPct with
// at least minObjects allocations are seeded as pretenured (the paper's
// §6 rule), and every profiled site contributes its survival evidence.
func AdaptProfileFromProfiler(p *Profiler, label, workload string, cutoffPct float64, minObjects uint64) *AdaptProfile {
	return adapt.FromProfile(p, label, workload, cutoffPct, minObjects)
}

// DefaultScale is the scale used by the command-line tools: large enough
// to reproduce every effect, small enough to run a full table in minutes.
var DefaultScale = workload.DefaultScale

// WriteProfile runs the named benchmark with profiling and writes its
// Figure 2-style heap-profile report.
func WriteProfile(w io.Writer, name string, scale Scale) error {
	return harness.Profiles(w, scale, []string{name}, RunOptions{})
}
