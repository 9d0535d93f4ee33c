// Package prof implements the heap profiler of §6: it classifies objects
// by allocation site and records, per site, the bytes and objects
// allocated, the fraction surviving their first collection (old%), the
// average age at death, and the bytes copied over all collections — the
// data from which Figure 2's reports and the pretenuring policy are built.
//
// The paper's profiler works by prepending a site identifier to each
// object and scanning the allocation area after each collection to find
// dead objects; ours shadows every live object in a record updated on the
// collector's move/condemn callbacks, which observes exactly the same
// events. Records live in one slab that reuses freed slots, and each space
// has an index from word offset to record, so an allocation, a move or a
// death costs a few slice accesses and condemning a space walks its index
// in address order. Site statistics are a slice indexed by site id. After
// warm-up the profiler makes no Go allocation per object; its host cost is
// a small share of a profiled run, far below the paper's 50-200%.
package prof

import (
	"fmt"
	"slices"
	"sort"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// objRec tracks one live object. It is 24 bytes; the slab holds one per
// live object.
type objRec struct {
	sizeBytes  uint64
	birth      uint64 // allocation clock (total bytes allocated) at birth
	movedIn    uint32 // collection epoch of the last move (0: never moved)
	site       obj.SiteID
	survived   bool // has survived at least one collection
	pretenured bool // was allocated directly into the tenured generation
}

// DeathClass tells an Observer where an object was in its generational
// life when it died.
type DeathClass uint8

const (
	// DeathYoung: died without ever being copied or pretenured — nursery
	// garbage, the cheap case generational collection is built around.
	DeathYoung DeathClass = iota
	// DeathOld: survived at least one collection (was copied) and died in
	// the old generation.
	DeathOld
	// DeathPretenured: was allocated directly into the tenured generation
	// and died there — the tenured garbage a mistrained pretenuring
	// decision produces.
	DeathPretenured
)

// Observer receives the online per-site lifetime event stream the adaptive
// pretenuring engine (internal/adapt) consumes: allocations (with the
// pretenured bit), first-collection survivals (with age at survival, in
// bytes of allocation), classified deaths, and collection boundaries.
// Events fire in the profiler's deterministic order (deaths in sorted
// address order). A nil observer costs one branch per event.
type Observer interface {
	ObserveAlloc(site obj.SiteID, words uint64, pretenured bool)
	ObserveSurvive(site obj.SiteID, words uint64, ageBytes uint64)
	ObserveDeath(site obj.SiteID, words uint64, class DeathClass)
	ObserveGCEnd()
}

// SiteStats aggregates one allocation site.
type SiteStats struct {
	Site          obj.SiteID
	Name          string
	AllocBytes    uint64
	AllocCount    uint64
	CopiedBytes   uint64
	SurvivedFirst uint64 // objects that survived their first collection
	Deaths        uint64
	SumDeathAgeKB float64 // sum over deaths of (bytes allocated during lifetime)/1024
}

// OldPct returns the percentage of objects surviving their first
// collection.
func (s *SiteStats) OldPct() float64 {
	if s.AllocCount == 0 {
		return 0
	}
	return 100 * float64(s.SurvivedFirst) / float64(s.AllocCount)
}

// AvgAgeKB returns the average age at death in kilobytes of allocation.
func (s *SiteStats) AvgAgeKB() float64 {
	if s.Deaths == 0 {
		return 0
	}
	return s.SumDeathAgeKB / float64(s.Deaths)
}

// CopyRatio returns copied size / allocated size for the site.
func (s *SiteStats) CopyRatio() float64 {
	if s.AllocBytes == 0 {
		return 0
	}
	return float64(s.CopiedBytes) / float64(s.AllocBytes)
}

// Profiler implements core.Profiler.
type Profiler struct {
	sites     []*SiteStats // by site id; nil for a site not seen yet
	siteNames map[obj.SiteID]string
	clock     uint64 // total bytes allocated

	// recs is the slab of live-object records; free lists the slots
	// (record number, 1-based) that deaths released for reuse.
	recs []objRec
	free []uint32
	// index maps space id, then word offset, to the record number of the
	// live object there (0: none). A space's index is as long as one past
	// its highest recorded offset; condemning the space empties it but
	// keeps its storage, so the nursery's index is reused every minor.
	index [][]uint32

	// epoch numbers the current collection. A record moved during it
	// carries it in movedIn: such a record is a survivor, so a death or a
	// condemn that reaches it is a collector bug.
	epoch uint32

	// deathSink, when set, receives every recorded death. Deaths fire in
	// ascending address order (see OnSpaceCondemned), so the callback
	// sequence is deterministic.
	deathSink func(site obj.SiteID, bytes uint64)

	// observer, when set, receives the online lifetime event stream (§9).
	observer Observer
}

// New creates an empty profiler. siteNames is optional documentation for
// report rendering (may be nil).
func New(siteNames map[obj.SiteID]string) *Profiler {
	return &Profiler{siteNames: siteNames, epoch: 1}
}

func (p *Profiler) site(id obj.SiteID) *SiteStats {
	if int(id) < len(p.sites) && p.sites[id] != nil {
		return p.sites[id]
	}
	if n := int(id) + 1; n > len(p.sites) {
		p.sites = append(p.sites, make([]*SiteStats, n-len(p.sites))...)
	}
	s := &SiteStats{Site: id, Name: p.siteNames[id]}
	p.sites[id] = s
	return s
}

// insert indexes record k at address a. Two live records at one address
// mean a collector reused the address without reporting the first
// object's death or move, so insert panics rather than lose one.
func (p *Profiler) insert(a mem.Addr, k uint32) {
	id, off := int(a.Space()), a.Offset()
	if id >= len(p.index) {
		p.index = append(p.index, make([][]uint32, id+1-len(p.index))...)
	}
	ix := p.index[id]
	if n := int(off) + 1; n > len(ix) {
		// A condemned index keeps stale entries in its spare capacity.
		old := len(ix)
		ix = slices.Grow(ix, n-old)[:n]
		clear(ix[old:])
		p.index[id] = ix
	}
	if ix[off] != 0 {
		panic(fmt.Sprintf("prof: two live records at %v", a))
	}
	ix[off] = k
}

// take removes and returns the record number indexed at a (0: none).
func (p *Profiler) take(a mem.Addr) uint32 {
	id, off := int(a.Space()), a.Offset()
	if id >= len(p.index) || off >= uint64(len(p.index[id])) {
		return 0
	}
	k := p.index[id][off]
	p.index[id][off] = 0
	return k
}

// OnAlloc implements core.Profiler.
func (p *Profiler) OnAlloc(addr mem.Addr, site obj.SiteID, k obj.Kind, words uint64, pretenured bool) {
	bytes := words * mem.WordSize
	s := p.site(site)
	s.AllocBytes += bytes
	s.AllocCount++
	p.clock += bytes
	rec := objRec{site: site, sizeBytes: bytes, birth: p.clock, pretenured: pretenured}
	var n uint32
	if last := len(p.free) - 1; last >= 0 {
		n = p.free[last]
		p.free = p.free[:last]
		p.recs[n-1] = rec
	} else {
		p.recs = append(p.recs, rec)
		n = uint32(len(p.recs))
	}
	p.insert(addr, n)
	if p.observer != nil {
		p.observer.ObserveAlloc(site, words, pretenured)
	}
}

// OnMove implements core.Profiler: the object moved (promotion, tenured
// copy or slide); it survived and its bytes were copied. The record is
// indexed at its destination at once: no collector condemns a space it
// copies into, and a second move in the same collection (promoted into
// the tenured space, then slid by mark-compact) finds it there.
func (p *Profiler) OnMove(from, to mem.Addr) {
	k := p.take(from)
	if k == 0 {
		return // object predates profiling
	}
	p.insert(to, k)
	rec := &p.recs[k-1]
	rec.movedIn = p.epoch
	s := p.site(rec.site)
	s.CopiedBytes += rec.sizeBytes
	if !rec.survived {
		rec.survived = true
		s.SurvivedFirst++
		if p.observer != nil && !rec.pretenured {
			p.observer.ObserveSurvive(rec.site, rec.sizeBytes/mem.WordSize, p.clock-rec.birth)
		}
	}
}

// OnSpaceCondemned implements core.Profiler: records still indexed in the
// space did not move out — they are dead. Deaths are recorded in ascending
// offset order: recordDeath accumulates a float age sum, and float
// addition is not associative, so the order is part of the output.
func (p *Profiler) OnSpaceCondemned(id mem.SpaceID) {
	if int(id) >= len(p.index) {
		return
	}
	ix := p.index[id]
	for _, k := range ix {
		if k != 0 {
			p.kill(k, id)
		}
	}
	p.index[id] = ix[:0]
}

// OnLOSDead implements core.Profiler. An index left with no record past
// the dead one is trimmed, and released once empty: a large object's
// space dies with it and its id is never reused.
func (p *Profiler) OnLOSDead(addr mem.Addr) {
	k := p.take(addr)
	if k == 0 {
		return
	}
	id := addr.Space()
	p.kill(k, id)
	ix := p.index[id]
	for len(ix) > 0 && ix[len(ix)-1] == 0 {
		ix = ix[:len(ix)-1]
	}
	if len(ix) == 0 {
		ix = nil
	}
	p.index[id] = ix
}

// OnGCEnd implements core.Profiler: the collection is over, so records
// moved in it become ordinary live records.
func (p *Profiler) OnGCEnd() {
	p.epoch++
	if p.observer != nil {
		p.observer.ObserveGCEnd()
	}
}

// kill records the death of record k, found in space id, and frees its
// slab slot.
func (p *Profiler) kill(k uint32, id mem.SpaceID) {
	rec := &p.recs[k-1]
	if rec.movedIn == p.epoch {
		panic(fmt.Sprintf("prof: object in space %d died in the collection that moved it there", id))
	}
	p.recordDeath(rec)
	p.free = append(p.free, k)
}

func (p *Profiler) recordDeath(rec *objRec) {
	s := p.site(rec.site)
	s.Deaths++
	s.SumDeathAgeKB += float64(p.clock-rec.birth) / 1024
	if p.deathSink != nil {
		p.deathSink(rec.site, rec.sizeBytes)
	}
	if p.observer != nil {
		class := DeathYoung
		switch {
		case rec.pretenured:
			class = DeathPretenured
		case rec.survived:
			class = DeathOld
		}
		p.observer.ObserveDeath(rec.site, rec.sizeBytes/mem.WordSize, class)
	}
}

// SetDeathSink registers a callback invoked on every object death with the
// site and the object's size in bytes. Used by the trace layer to build
// per-site died-words counters without coupling this package to it.
func (p *Profiler) SetDeathSink(fn func(site obj.SiteID, bytes uint64)) {
	p.deathSink = fn
}

// SetObserver registers the online lifetime-event observer (the adaptive
// pretenuring engine). Call before the run starts; events already emitted
// are not replayed.
func (p *Profiler) SetObserver(o Observer) {
	p.observer = o
}

// Finalize treats every object still live as dying at the end of the run,
// charging its age, as the paper's end-of-run profile accounting does.
// Call once, after the workload completes. Spaces and offsets are visited
// in ascending order for the same float-summation reason as
// OnSpaceCondemned.
func (p *Profiler) Finalize() {
	for _, ix := range p.index {
		for _, k := range ix {
			if k != 0 {
				p.recordDeath(&p.recs[k-1])
			}
		}
	}
	p.index, p.recs, p.free = nil, nil, nil
}

// Clock returns total bytes allocated so far.
func (p *Profiler) Clock() uint64 { return p.clock }

// TotalCopied returns the bytes copied across all sites.
func (p *Profiler) TotalCopied() uint64 {
	var n uint64
	for _, s := range p.sites {
		if s != nil {
			n += s.CopiedBytes
		}
	}
	return n
}

// TotalAllocated returns the bytes allocated across all sites.
func (p *Profiler) TotalAllocated() uint64 {
	var n uint64
	for _, s := range p.sites {
		if s != nil {
			n += s.AllocBytes
		}
	}
	return n
}

// Sites returns per-site statistics sorted by descending allocation.
func (p *Profiler) Sites() []*SiteStats {
	out := make([]*SiteStats, 0, len(p.sites))
	for _, s := range p.sites {
		if s != nil {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AllocBytes != out[j].AllocBytes {
			return out[i].AllocBytes > out[j].AllocBytes
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// Policy derives a pretenuring policy from the profile using the paper's
// rule: pretenure every site whose old% is at least cutoffPct (the paper
// uses 80). Sites with fewer than minObjects allocations are ignored as
// noise.
func (p *Profiler) Policy(cutoffPct float64, minObjects uint64) *core.PretenurePolicy {
	sites := make(map[obj.SiteID]core.PretenureDecision)
	for _, s := range p.sites {
		if s != nil && s.AllocCount >= minObjects && s.OldPct() >= cutoffPct {
			sites[s.Site] = core.PretenureDecision{}
		}
	}
	return core.NewPretenurePolicy(sites)
}

// CutoffSummary reports, for a given old% cutoff, the share of all copied
// bytes and of all allocated bytes contributed by the targeted sites —
// the two numbers printed at the foot of Figure 2's reports.
func (p *Profiler) CutoffSummary(cutoffPct float64) (copiedPct, allocPct float64) {
	var copied, alloc, tc, ta uint64
	for _, s := range p.sites {
		if s == nil {
			continue
		}
		tc += s.CopiedBytes
		ta += s.AllocBytes
		if s.OldPct() >= cutoffPct {
			copied += s.CopiedBytes
			alloc += s.AllocBytes
		}
	}
	if tc > 0 {
		copiedPct = 100 * float64(copied) / float64(tc)
	}
	if ta > 0 {
		allocPct = 100 * float64(alloc) / float64(ta)
	}
	return copiedPct, allocPct
}
