package core

import (
	"slices"

	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// PretenureDecision describes how the collector treats one allocation site
// selected for pretenuring.
type PretenureDecision struct {
	// OnlyOldRefs asserts (from dataflow analysis, §7.2) that objects
	// from this site only ever reference pretenured or tenured data, so
	// the post-allocation region scan can skip them entirely — the
	// optimization that cut Nqueen's remaining GC time by a further 80%.
	OnlyOldRefs bool
}

// PretenurePolicy maps allocation sites to pretenuring decisions. Sites
// absent from the policy allocate normally (in the nursery). Policies are
// built from heap profiles (internal/prof) using the paper's old% cutoff.
// The policy is one decision byte per site id, so the allocation path's
// Lookup is a bounds check and a load.
type PretenurePolicy struct {
	dec []uint8 // by site id: 0 (absent), or decPretenure | decOnlyOldRefs
}

const (
	decPretenure   uint8 = 1 << iota // the site is pretenured
	decOnlyOldRefs                   // with PretenureDecision.OnlyOldRefs
)

// NewPretenurePolicy builds a policy from explicit per-site decisions.
func NewPretenurePolicy(sites map[obj.SiteID]PretenureDecision) *PretenurePolicy {
	n := 0
	for id := range sites {
		n = max(n, int(id)+1)
	}
	p := &PretenurePolicy{dec: make([]uint8, n)}
	for id, d := range sites {
		p.dec[id] = decPretenure
		if d.OnlyOldRefs {
			p.dec[id] |= decOnlyOldRefs
		}
	}
	return p
}

// set records the decision byte code for site.
func (p *PretenurePolicy) set(site obj.SiteID, code uint8) {
	if n := int(site) + 1; n > len(p.dec) {
		p.dec = append(p.dec, make([]uint8, n-len(p.dec))...)
	}
	p.dec[site] = code
}

// Lookup returns the decision for a site and whether the site is
// pretenured at all.
func (p *PretenurePolicy) Lookup(site obj.SiteID) (PretenureDecision, bool) {
	if p == nil || int(site) >= len(p.dec) || p.dec[site] == 0 {
		return PretenureDecision{}, false
	}
	return PretenureDecision{OnlyOldRefs: p.dec[site]&decOnlyOldRefs != 0}, true
}

// Len returns the number of pretenured sites.
func (p *PretenurePolicy) Len() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, d := range p.dec {
		if d != 0 {
			n++
		}
	}
	return n
}

// Sites returns the pretenured site ids in ascending order.
func (p *PretenurePolicy) Sites() []obj.SiteID {
	if p == nil {
		return nil
	}
	ids := make([]obj.SiteID, 0, len(p.dec))
	for id, d := range p.dec {
		if d != 0 {
			ids = append(ids, obj.SiteID(id))
		}
	}
	return ids
}

// mergePolicies returns the union of two policies (either may be nil);
// where both decide a site, b's decision wins. When only one is non-nil
// it is returned as-is; the merged copy is only built when both
// contribute, so the common static-only and advisor-only configurations
// pay nothing.
func mergePolicies(a, b *PretenurePolicy) *PretenurePolicy {
	if b.Len() == 0 {
		return a
	}
	if a.Len() == 0 {
		return b
	}
	m := &PretenurePolicy{dec: slices.Clone(a.dec)}
	for id, d := range b.dec {
		if d != 0 {
			m.set(obj.SiteID(id), d)
		}
	}
	return m
}

// region is a contiguous range of tenured words allocated into directly
// (pretenured objects) since the last minor collection. The collector
// "remember[s] the area of the older generation that has been directly
// allocated into and scan[s] this region ... on the next collection" (§6).
type region struct {
	space mem.SpaceID
	start uint64 // first word offset
	end   uint64 // one past the last word offset
}

// regionSet accumulates pretenured-allocation regions, coalescing
// adjacent allocations so a run of pretenured objects is one region.
type regionSet struct {
	regions []region
}

// add records words [start, start+size) of space as pretenured-allocated.
func (rs *regionSet) add(space mem.SpaceID, start, size uint64) {
	if n := len(rs.regions); n > 0 {
		last := &rs.regions[n-1]
		if last.space == space && last.end == start {
			last.end += size
			return
		}
	}
	rs.regions = append(rs.regions, region{space: space, start: start, end: start + size})
}

// clear drops all regions (after the minor collection scanned them).
func (rs *regionSet) clear() { rs.regions = rs.regions[:0] }

// words returns the total words covered.
func (rs *regionSet) words() uint64 {
	var n uint64
	for _, r := range rs.regions {
		n += r.end - r.start
	}
	return n
}
