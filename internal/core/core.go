// Package core implements the paper's collectors: the semispace baseline
// (Fenichel-Yochelson with Cheney's algorithm), the two-generation
// collector with immediate promotion and a sequential-store-buffer write
// barrier, generational stack collection via stack markers (§5), and
// profile-driven pretenuring with the §7.2 scan-elision extension.
//
// All collectors operate on the simulated arena heap (internal/mem), the
// simulated object model (internal/obj), and the simulated mutator runtime
// (internal/rt), charging deterministic costs (internal/costmodel) so that
// the paper's tables reproduce exactly.
package core

import (
	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// Collector is the mutator-facing interface every collector implements.
// Allocation may trigger a collection; after any Alloc call, simulated
// pointers previously copied out of stack slots or registers into Go
// locals are stale and must be re-read — exactly the discipline compiled
// code obeys.
type Collector interface {
	// Alloc allocates an object and returns its address. For records,
	// mask names the pointer fields. Panics when the configured memory
	// budget cannot accommodate the live data.
	Alloc(k obj.Kind, length uint64, site obj.SiteID, mask uint64) mem.Addr

	// LoadField reads field i of the object at a, charging mutator cost.
	LoadField(a mem.Addr, i uint64) uint64

	// StoreField writes field i of the object at a. isPtr must be true
	// when v is a pointer value; pointer stores pass through the write
	// barrier on collectors that have one. Initializing stores into
	// just-allocated objects should use InitField instead.
	StoreField(a mem.Addr, i uint64, v uint64, isPtr bool)

	// InitField writes field i of a freshly allocated object, bypassing
	// the write barrier (initializing stores are not "pointer updates").
	InitField(a mem.Addr, i uint64, v uint64)

	// Collect forces a collection; major selects a full collection on
	// generational collectors and is ignored by the semispace collector.
	Collect(major bool)

	// Stats returns the collector's accumulated statistics.
	Stats() *GCStats

	// Heap returns the underlying simulated heap (read-only use).
	Heap() *mem.Heap

	// Name returns the configuration name for reports.
	Name() string
}

// GCStats accumulates the measurements the paper's tables report.
type GCStats struct {
	NumGC    uint64 // total collections (minor + major for generational)
	NumMajor uint64 // major collections only

	BytesCopied   uint64 // bytes copied during all collections
	BytesScanned  uint64 // bytes examined without copying (pretenured regions, SSB)
	ObjectsCopied uint64

	BytesAllocated   uint64 // total allocation (Table 2 "Total Alloc")
	RecordBytes      uint64 // Table 2 "Records Alloc"
	ArrayBytes       uint64 // Table 2 "Arrays Alloc" (pointer + raw arrays)
	ObjectsAllocated uint64

	MaxLiveBytes uint64 // max live data observed after a collection

	FramesDecoded uint64 // frames fully decoded via the trace table
	FramesReused  uint64 // frames skipped/reused thanks to stack markers
	RootsFound    uint64
	MarkersPlaced uint64

	DepthSum     uint64 // stack depth summed over collections (avg = DepthSum/NumGC)
	MaxDepthAtGC uint64 // deepest stack seen at a collection
	NewFrames    uint64 // frames pushed since the previous collection, summed

	EmergencyGrows uint64 // times a space was sized past its budget share (live set above Min)

	// Pause accounting (§9 motivates caching stack scans for incremental
	// collectors precisely because the root scan is an atomic pause).
	MaxPauseCycles uint64 // longest single collection, in cycles
	SumPauseCycles uint64 // total collection cycles (avg = Sum/NumGC)

	SSBProcessed uint64 // store-buffer entries examined by the collector
	LOSSwept     uint64 // large objects freed by mark-sweep
	Pretenured   uint64 // objects allocated directly into the old generation

	// Non-moving old-generation accounting (bitmap mark-sweep and
	// mark-compact only; zero under the copying old generation).
	ObjectsMarked uint64 // tenured objects marked in place (not copied)
	WordsMarked   uint64 // words of tenured objects marked in place
	WordsSwept    uint64 // dead tenured words returned to the free lists
	WordsSlid     uint64 // live tenured words moved by the compaction slide

	// OldBytesCopied is the share of BytesCopied that evacuated the old
	// generation's from-space during copying major collections. The
	// non-moving collectors drive it to zero — the quantity the oldgen
	// experiment reports (in-place marking and sliding are counted by the
	// fields above, never here).
	OldBytesCopied uint64

	// Parallel-collection accounting (W > 1 only; zero otherwise).
	ParallelQuanta uint64 // work quanta distributed across simulated workers
	WorkSteals     uint64 // quanta claimed by a different worker than the previous one
}

// AvgPauseCycles returns the mean collection pause in cycles.
func (s *GCStats) AvgPauseCycles() float64 {
	if s.NumGC == 0 {
		return 0
	}
	return float64(s.SumPauseCycles) / float64(s.NumGC)
}

// AvgDepthAtGC returns the mean stack depth at collection time.
func (s *GCStats) AvgDepthAtGC() float64 {
	if s.NumGC == 0 {
		return 0
	}
	return float64(s.DepthSum) / float64(s.NumGC)
}

// AvgNewFrames returns the mean number of frames per collection that were
// not present at the previous collection (Table 2 "New Frames in Stack").
func (s *GCStats) AvgNewFrames() float64 {
	if s.NumGC == 0 {
		return 0
	}
	return float64(s.NewFrames) / float64(s.NumGC)
}

// Profiler receives heap-lifetime events from the collectors. The heap
// profiler in internal/prof implements it; collectors accept a nil
// Profiler when profiling is off.
type Profiler interface {
	// OnAlloc records an allocation of words words at addr from site.
	// pretenured marks the direct-to-tenured allocation path (§6), whether
	// chosen by a static policy or by the online advisor (§9).
	OnAlloc(addr mem.Addr, site obj.SiteID, k obj.Kind, words uint64, pretenured bool)
	// OnMove records that the object at from was copied to to.
	OnMove(from, to mem.Addr)
	// OnSpaceCondemned declares that every tracked object still recorded
	// in space id (i.e. not moved out during this collection) has died.
	OnSpaceCondemned(id mem.SpaceID)
	// OnLOSDead records the death of the non-moving object at addr — a
	// large object freed by the LOS sweep, or a tenured object reclaimed
	// in place by the non-moving old-generation collectors.
	OnLOSDead(addr mem.Addr)
	// OnGCEnd marks the end of a collection cycle.
	OnGCEnd()
}

// SiteAdvisor is the allocation-path hook for online adaptive pretenuring
// (§9): the generational collector consults it on every small-object
// allocation (when configured) and sends the site to the tenured
// generation on a true answer. Implementations must be deterministic
// functions of the simulated event stream — the advisor in internal/adapt
// charges its probe cost to the meter's Adapt component itself.
type SiteAdvisor interface {
	ShouldPretenure(site obj.SiteID) bool
}

// RootLoc identifies a location holding a root pointer: either an absolute
// stack-slot index or a register number. The collector reads the location,
// forwards the pointer, and writes it back.
type RootLoc struct {
	IsReg bool
	Index int
}
