package core

import (
	"slices"

	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/trace"
)

// collectorBase is the state and bookkeeping the semispace and
// generational collectors share: the heap and its observers, the stack
// scanners, the large-object space, the parallel-worker tally, the
// attached thread set and the statistics block. Both collectors embed it
// by value; their Collector methods stay declared on the exported types.
type collectorBase struct {
	heap  *mem.Heap
	stack *rt.Stack
	meter *costmodel.Meter
	prof  Profiler
	tr    *trace.Recorder

	scanner *StackScanner
	los     *LOS
	// tally shards parallel-phase cycles over simulated workers (nil for
	// W <= 1; see costmodel.WorkerTally).
	tally *costmodel.WorkerTally

	// threads is the simulated mutator thread set: every live thread's
	// stack is a root source with its own scanner. The constructors
	// install a set of one around the primary stack; AttachThreads may
	// replace it before the first collection.
	threads   *rt.ThreadSet
	tscanners []*StackScanner // per-thread scanners, indexed by thread id

	// budgetWords is the collector's total memory allowance; markerN,
	// markerPolicy and revisitOnMinor configure every stack scanner.
	budgetWords    uint64
	markerN        int
	markerPolicy   MarkerPolicy
	revisitOnMinor bool

	stats GCStats
}

// initBase builds the shared state over a fresh heap. It runs on the
// embedded field in place, so the scanners and the LOS point at the
// collector's own statistics block. The scanner settings (markerN,
// markerPolicy, revisitOnMinor) must be set before the call.
func (b *collectorBase) initBase(stack *rt.Stack, meter *costmodel.Meter, prof Profiler, tr *trace.Recorder, budgetWords uint64, workers int) {
	b.heap = mem.NewHeap()
	b.stack, b.meter, b.prof, b.tr = stack, meter, prof, tr
	b.budgetWords = budgetWords
	if workers > 1 {
		b.tally = costmodel.NewWorkerTally(meter, workers)
	}
	b.scanner = b.newScanner(stack)
	b.los = NewLOS(b.heap, meter, &b.stats)
	b.threads = rt.NewThreadSet(stack, meter)
}

// newScanner creates a stack scanner configured like every other scanner
// of this collector.
func (b *collectorBase) newScanner(st *rt.Stack) *StackScanner {
	sc := NewStackScanner(st, b.meter, &b.stats, b.markerN)
	sc.SetMarkerPolicy(b.markerPolicy)
	sc.SetTally(b.tally)
	sc.SetRevisitOnMinor(b.revisitOnMinor)
	return sc
}

// attachThreads checks the AttachThreads preconditions and records the
// thread set.
func (b *collectorBase) attachThreads(ts *rt.ThreadSet) {
	if b.stats.NumGC > 0 {
		panic("core: AttachThreads after a collection")
	}
	if ts.Thread(0).Stack() != b.stack {
		panic("core: thread 0 does not own the collector's stack")
	}
	b.threads = ts
}

// threadScanner returns (creating on first use) the stack scanner for
// one thread. Thread 0 reuses the primary scanner so its marker cache is
// continuous with the pre-attach state.
func (b *collectorBase) threadScanner(t *rt.Thread) *StackScanner {
	id := t.ID()
	for len(b.tscanners) <= id {
		b.tscanners = append(b.tscanners, nil)
	}
	if b.tscanners[id] == nil {
		if t.Stack() == b.stack {
			b.tscanners[id] = b.scanner
		} else {
			b.tscanners[id] = b.newScanner(t.Stack())
		}
	}
	return b.tscanners[id]
}

// noteCollection runs the per-collection scanner bookkeeping over every
// live thread (depth statistics accumulate across threads).
func (b *collectorBase) noteCollection() {
	for _, t := range b.threads.Threads() {
		if t.Dead() {
			continue
		}
		b.threadScanner(t).NoteCollection()
	}
}

// scanRoots scans every live thread's stack in thread-id order, calling
// visit for each root location. Dead threads' stacks are skipped: a
// joined thread's frames no longer keep anything alive.
func (b *collectorBase) scanRoots(minor bool, visit func(st *rt.Stack, loc RootLoc)) {
	for _, t := range b.threads.Threads() {
		if t.Dead() {
			continue
		}
		st := t.Stack()
		b.threadScanner(t).Scan(minor, func(loc RootLoc) { visit(st, loc) })
	}
}

// forwardRoot forwards the pointer stored at a root location of one
// thread's stack and returns the (possibly updated) value left there.
func (b *collectorBase) forwardRoot(ev *evacuator, st *rt.Stack, loc RootLoc) uint64 {
	b.stats.RootsFound++
	if loc.IsReg {
		v := st.Reg(loc.Index)
		nv := ev.forward(v)
		if nv != v {
			st.SetReg(loc.Index, nv)
		}
		return nv
	}
	v := st.RawSlot(loc.Index)
	nv := ev.forward(v)
	if nv != v {
		st.SetRawSlot(loc.Index, nv)
	}
	return nv
}

// chargeOverhead charges the fixed per-collection overhead: serially for
// a single worker, split across workers otherwise — entering a parallel
// collection forks the space preparation and bookkeeping across the
// worker team, so the fixed cost genuinely shrinks on the wall clock
// while the charged total is preserved exactly.
func (b *collectorBase) chargeOverhead() {
	if b.tally == nil {
		b.meter.Charge(costmodel.GCCopy, costmodel.GCOverhead)
		return
	}
	b.tally.ChargeSplit(costmodel.GCCopy, costmodel.GCOverhead)
}

// endParallelPhase closes a phase whose work is distributed over the
// simulated workers: the tally's overlap is credited back to the meter
// first (shrinking the phase's wall-clock delta to the critical path),
// then the phase-end event records the per-worker tallies. Serial
// collectors (nil tally) emit a plain phase end.
func (b *collectorBase) endParallelPhase(p trace.Phase) {
	if b.tally == nil {
		b.tr.EndPhase(p)
		return
	}
	workers := b.tally.ClosePhase()
	b.tr.EndPhaseWorkers(p, workers)
}

// recordPause accumulates pause statistics for one collection event and
// refreshes the lifetime parallel-work counters from the tally.
func (b *collectorBase) recordPause(start costmodel.Cycles) {
	pause := uint64(b.meter.GC() - start)
	b.stats.SumPauseCycles += pause
	if pause > b.stats.MaxPauseCycles {
		b.stats.MaxPauseCycles = pause
	}
	if b.tally != nil {
		b.stats.ParallelQuanta = b.tally.Quanta()
		b.stats.WorkSteals = b.tally.Steals()
	}
}

// chargeAlloc charges the mutator for one allocation and counts it.
func (b *collectorBase) chargeAlloc(k obj.Kind, size uint64) {
	b.meter.Charge(costmodel.Client, costmodel.AllocObject)
	b.meter.ChargeN(costmodel.Client, costmodel.AllocWord, size)
	b.stats.BytesAllocated += size * mem.WordSize
	b.stats.ObjectsAllocated++
	if k == obj.Record {
		b.stats.RecordBytes += size * mem.WordSize
	} else {
		b.stats.ArrayBytes += size * mem.WordSize
	}
}

// losLimit is the large-object share of the budget: up to half the total
// (the collector's space sizing adapts to the live LOS share after each
// full collection).
func (b *collectorBase) losLimit() uint64 {
	return b.budgetWords / 2
}

// allocLarge is the LOS allocation path, running a full collection
// (collect(true)) first when the large-object share of the budget is
// exhausted.
func (b *collectorBase) allocLarge(collect func(major bool), k obj.Kind, length uint64, site obj.SiteID, mask uint64, size uint64) mem.Addr {
	if b.los.UsedWords()+size > b.losLimit() {
		collect(true)
	}
	a := b.los.Alloc(k, length, site, mask)
	b.tr.AllocSite(site, size, false)
	if b.prof != nil {
		b.prof.OnAlloc(a, site, k, size, false)
	}
	return a
}

// inspection fills the Inspection fields both collectors report the same
// way.
func (b *collectorBase) inspection() Inspection {
	return Inspection{
		Heap:      b.heap,
		Meter:     b.meter,
		Stats:     &b.stats,
		LOSSpaces: b.los.SpaceIDs(),
		FreshLOS:  slices.Clone(b.los.Fresh()),
		Threads:   b.threads,
	}
}
