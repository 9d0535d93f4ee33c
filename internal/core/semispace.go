package core

import (
	"fmt"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/trace"
)

// SemispaceConfig parameterizes the baseline semispace collector.
type SemispaceConfig struct {
	// BudgetWords is the total memory the collector may use (the paper's
	// k·Min, with Min = twice the maximum live data). Both semispaces
	// plus the large-object space must fit within it.
	BudgetWords uint64
	// TargetLiveness is the resize target r; after a collection with
	// observed liveness r' the semispace is resized by r'/r, clamped to
	// the budget. The paper uses r = 0.10.
	TargetLiveness float64
	// LargeObjectWords is the LOS threshold: array allocations of at
	// least this many payload words go to the mark-sweep space.
	LargeObjectWords uint64
	// MarkerN enables generational stack collection with a marker every
	// n frames (§7.1 notes the technique applies to non-generational
	// collectors too). Zero disables it — the paper's baseline.
	MarkerN int
	// InitialWords sizes the first semispace; zero picks a small default.
	InitialWords uint64
	// Workers > 1 enables the deterministic parallel copying phases (see
	// GenConfig.Workers): identical serial work order, cycles sharded
	// over W simulated workers. Zero or 1 is the serial collector.
	Workers int
	// Trace, when non-nil, receives phase spans and per-site telemetry.
	// Tracing charges nothing to the meter.
	Trace *trace.Recorder
}

func (c *SemispaceConfig) setDefaults() {
	if c.TargetLiveness == 0 {
		c.TargetLiveness = 0.10
	}
	if c.LargeObjectWords == 0 {
		c.LargeObjectWords = 1024 // 8KB
	}
	if c.InitialWords == 0 {
		c.InitialWords = 16 * 1024
	}
	if c.BudgetWords == 0 {
		c.BudgetWords = 64 << 20 // effectively unconstrained
	}
}

// Semispace is the Fenichel-Yochelson two-space copying collector using
// Cheney's scan, with the paper's liveness-ratio resize policy (§2.1).
type Semispace struct {
	collectorBase
	cfg SemispaceConfig

	idA mem.SpaceID
	idB mem.SpaceID
	cur *mem.Space // allocation space
	ev  evacuator  // pooled across collections (see evacuator.begin)
}

// NewSemispace creates a semispace collector over its own fresh heap.
//
//gc:nocharge construction builds the heap before the simulated clock starts; the paper's cost model charges mutator and GC work, not arena setup
func NewSemispace(stack *rt.Stack, meter *costmodel.Meter, prof Profiler, cfg SemispaceConfig) *Semispace {
	cfg.setDefaults()
	if cfg.InitialWords > cfg.BudgetWords/2 {
		cfg.InitialWords = max(cfg.BudgetWords/2, 512)
	}
	c := &Semispace{cfg: cfg}
	c.markerN = cfg.MarkerN
	c.initBase(stack, meter, prof, cfg.Trace, cfg.BudgetWords, cfg.Workers)
	a := c.heap.AddSpace(cfg.InitialWords)
	b := c.heap.AddSpace(0)
	c.idA, c.idB = a.ID(), b.ID()
	c.cur = a
	return c
}

// AttachThreads connects the simulated thread set: root scanning covers
// every live thread's stack. Must be called before the first collection;
// thread 0 must wrap the collector's primary stack. No barrier state is
// attached — the semispace collector has no write barrier.
func (c *Semispace) AttachThreads(ts *rt.ThreadSet) { c.attachThreads(ts) }

// Name implements Collector.
func (c *Semispace) Name() string {
	n := "semispace"
	if c.cfg.MarkerN > 0 {
		n += "+markers"
	}
	if c.cfg.Workers > 1 {
		n += fmt.Sprintf("+gcw%d", c.cfg.Workers)
	}
	return n
}

// Heap implements Collector.
func (c *Semispace) Heap() *mem.Heap { return c.heap }

// Stats implements Collector.
func (c *Semispace) Stats() *GCStats { return &c.stats }

// Alloc implements Collector. The common case — a small object into a
// space with room — runs straight through the bump allocation: records can
// never be large, so they skip the LOS threshold compare entirely, and the
// collect-and-retry sequence is kept out of line.
func (c *Semispace) Alloc(k obj.Kind, length uint64, site obj.SiteID, mask uint64) mem.Addr {
	size := obj.SizeWords(k, length)
	c.chargeAlloc(k, size)
	if k != obj.Record && length >= c.cfg.LargeObjectWords {
		return c.allocLarge(c.Collect, k, length, site, mask, size)
	}
	a, ok := obj.Alloc(c.heap, c.cur, k, length, site, mask)
	if !ok {
		a = c.allocSlow(k, length, site, mask, size)
	}
	c.tr.AllocSite(site, size, false)
	if c.prof != nil {
		c.prof.OnAlloc(a, site, k, size, false)
	}
	return a
}

// allocSlow collects and retries the bump allocation, growing past the
// budget as a last resort.
func (c *Semispace) allocSlow(k obj.Kind, length uint64, site obj.SiteID, mask uint64, size uint64) mem.Addr {
	c.Collect(true)
	a, ok := obj.Alloc(c.heap, c.cur, k, length, site, mask)
	if !ok {
		// The live set genuinely exceeds the budget share (Min is
		// measured by calibration and can be slightly low). Grow past
		// the budget rather than dying; the overflow is recorded.
		c.stats.EmergencyGrows++
		c.cur = c.heap.GrowSpace(c.cur.ID(), c.cur.Capacity()+size+1024)
		a, ok = obj.Alloc(c.heap, c.cur, k, length, site, mask)
		if !ok {
			panic(semispaceGrowthFailure(c.cur, size))
		}
	}
	return a
}

// semispaceGrowthFailure builds the panic value for an emergency growth
// that still could not satisfy a size-word allocation, reporting the
// space id, used words, and requested words — the same fields, in the
// same shape, as mem.GrowSpace's below-used failure.
func semispaceGrowthFailure(sp *mem.Space, size uint64) mem.GrowthError {
	return mem.GrowthError{Op: "semispace emergency growth failed", Space: sp.ID(), Used: sp.Used(), Requested: size}
}

// LoadField implements Collector.
func (c *Semispace) LoadField(a mem.Addr, i uint64) uint64 {
	c.meter.Charge(costmodel.Client, costmodel.MutatorLoad)
	return obj.Field(c.heap, a, i)
}

// StoreField implements Collector. The semispace collector has no write
// barrier; isPtr is accepted for interface compatibility.
//
//gc:nobarrier the semispace collector evacuates the entire heap at every GC; there is no remembered set for a barrier to maintain
func (c *Semispace) StoreField(a mem.Addr, i uint64, v uint64, isPtr bool) {
	c.meter.Charge(costmodel.Client, costmodel.MutatorStore)
	obj.SetField(c.heap, a, i, v)
}

// InitField implements Collector.
//
//gc:nobarrier the semispace collector evacuates the entire heap at every GC; there is no remembered set for a barrier to maintain
func (c *Semispace) InitField(a mem.Addr, i uint64, v uint64) {
	c.meter.Charge(costmodel.Client, costmodel.MutatorStore)
	obj.SetField(c.heap, a, i, v)
}

// Collect implements Collector: a full copying collection with Cheney's
// algorithm, followed by the r'/r resize.
func (c *Semispace) Collect(bool) {
	c.tr.BeginGC(false)
	statsBefore := c.stats
	pauseStart := c.meter.GC()
	defer func() {
		c.recordPause(pauseStart)
		c.sampleHeap()
		c.tr.EndGC(gcCounters(&statsBefore, &c.stats))
	}()
	c.stats.NumGC++
	c.tr.BeginPhase(trace.PhaseSetup)
	c.chargeOverhead()
	c.noteCollection()
	c.los.ClearMarks()

	fromID, toID := c.idA, c.idB
	if c.cur.ID() != fromID {
		fromID, toID = toID, fromID
	}
	// The survivors cannot exceed what was allocated in from-space.
	to := c.heap.ReplaceSpace(toID, c.cur.Used())
	ev := &c.ev
	if refKernels {
		ev = new(evacuator)
	}
	condemned := [1]mem.SpaceID{fromID}
	ev.begin(c.heap, c.meter, &c.stats, c.prof, condemned[:], to, c.los)
	ev.tr = c.tr
	ev.tally = c.tally
	c.endParallelPhase(trace.PhaseSetup)

	// With workers, the root scan shards per frame: each frame's quantum
	// covers its decode, root visits, and the evacuations they trigger
	// (the scanner brackets them — see StackScanner.SetTally).
	c.tr.BeginPhase(trace.PhaseRoots)
	c.scanRoots(false, func(st *rt.Stack, loc RootLoc) { c.forwardRoot(ev, st, loc) })
	c.endParallelPhase(trace.PhaseRoots)
	c.tr.BeginPhase(trace.PhaseCopy)
	ev.drain()
	c.endParallelPhase(trace.PhaseCopy)
	c.tr.BeginPhase(trace.PhaseSweep)
	c.los.Sweep(c.prof)
	c.tr.EndPhase(trace.PhaseSweep)
	c.los.TakeFresh()
	if c.prof != nil {
		c.prof.OnSpaceCondemned(fromID)
		c.prof.OnGCEnd()
	}

	live := to.Used()
	liveBytes := (live + c.los.UsedWords()) * mem.WordSize
	if liveBytes > c.stats.MaxLiveBytes {
		c.stats.MaxLiveBytes = liveBytes
	}

	// Resize: newSize = oldSize · r'/r = live/r, clamped to [live·1.25,
	// budget share]. Live data in the mark-sweep large-object space counts
	// toward the liveness ratio — the space budget is shared.
	oldCap := c.heap.Space(fromID).Capacity()
	rPrime := float64(live+c.los.UsedWords()) / float64(max(oldCap, 1))
	newSize := uint64(float64(oldCap) * rPrime / c.cfg.TargetLiveness)
	minSize := live + live/4 + 256
	maxSize := c.semispaceShare()
	if newSize < minSize {
		newSize = minSize
	}
	if newSize > maxSize {
		newSize = maxSize
	}
	if newSize < live+64 {
		newSize = live + 64 // budget exhausted; keep limping with minimum headroom
	}
	c.cur = c.heap.GrowSpace(toID, newSize)
	c.heap.ReplaceSpace(fromID, 0)
}

// semispaceShare returns the budget available to each semispace.
func (c *Semispace) semispaceShare() uint64 {
	losWords := c.los.UsedWords()
	if 2*losWords >= c.cfg.BudgetWords {
		return 512
	}
	return (c.cfg.BudgetWords - losWords) / 2
}
