// Package adapt implements online adaptive pretenuring (§9): an advisor
// that runs inside a single simulation and makes the §6 pretenuring
// decision — allocate this site directly into the tenured generation —
// from survival statistics gathered on-line, instead of from a separate
// offline training run.
//
// The engine consumes the profiler's lifetime event stream (prof.Observer):
// per-site words surviving their first collection versus dying young feed a
// decayed (EWMA-like) survival estimate; once a site's estimate crosses the
// promotion cutoff with sufficient sample mass, the advisor answers true on
// the collector's allocation-path probe (core.SiteAdvisor) and the site is
// pretenured from then on. Crucially, the decision is reversible: a
// promoted site's tenured garbage — words placed directly in the old
// generation that then die there — is tracked per promotion episode, and a
// site whose garbage fraction crosses the demotion threshold is demoted,
// its survival statistics reset (the evidence that justified promotion is
// exactly what the phase shift invalidated) and a cooldown imposed so it
// must re-earn promotion. This is the feedback loop NG2C-style systems use
// to survive phase-shifted workloads.
//
// Everything is deterministic: decisions are made only at collection
// boundaries, over sites visited in sorted order, with pure integer
// (parts-per-million) arithmetic; timestamps come from the cost meter. The
// engine charges its own overhead — allocation-path probes, per-event
// samples, per-site decision folds — to the meter's Adapt component, so
// adaptive-vs-offline comparisons account for the advisor's cost.
package adapt

import (
	"slices"

	"tilgc/internal/costmodel"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
	"tilgc/internal/trace"
)

// Params tunes the decision engine. The zero value selects defaults
// matching the paper's offline rule (80% survival cutoff).
type Params struct {
	// PromotePPM is the survival-fraction estimate, in parts per million,
	// at or above which a site is promoted. Default 800000 (the paper's
	// 80% old cutoff).
	PromotePPM uint64
	// DemotePPM is the tenured-garbage fraction (pretenured words that
	// died in the old generation / pretenured words placed, this
	// promotion episode) at or above which a site is demoted. Default
	// 500000: demote once half the words the decision placed are garbage.
	DemotePPM uint64
	// MinSampleWords is the decayed sample mass (survived + died-young
	// words) required before the survival estimate is trusted. Default 256.
	MinSampleWords uint64
	// MinOldWords is the pretenured placement mass required before the
	// garbage fraction is judged. Default 256.
	MinOldWords uint64
	// DecayDen is the per-epoch decay denominator: at each collection a
	// touched site's accumulators lose a 1/DecayDen share before the
	// epoch's deltas are added, an integer EWMA. Default 8.
	DecayDen uint64
	// CooldownEpochs is how many collections a demoted site must wait
	// before it may be promoted again (hysteresis). Default 8.
	CooldownEpochs uint64
	// DisableDemotion turns the mistrain correction off (for ablation:
	// the phase-shift experiment runs with and without it).
	DisableDemotion bool
}

func (p *Params) setDefaults() {
	if p.PromotePPM == 0 {
		p.PromotePPM = 800_000
	}
	if p.DemotePPM == 0 {
		p.DemotePPM = 500_000
	}
	if p.MinSampleWords == 0 {
		p.MinSampleWords = 256
	}
	if p.MinOldWords == 0 {
		p.MinOldWords = 256
	}
	if p.DecayDen == 0 {
		p.DecayDen = 8
	}
	if p.CooldownEpochs == 0 {
		p.CooldownEpochs = 8
	}
}

// siteState is the engine's per-site record.
type siteState struct {
	site obj.SiteID

	// Decayed survival accumulators (words), the EWMA state. Only nursery
	// allocations feed them: survWords counts words surviving their first
	// collection, deadWords words dying young.
	survWords uint64
	deadWords uint64
	// Decayed tenure-age accumulators: bytes allocated between an
	// object's birth and its first survival, summed (ageBytes) over
	// ageSamples surviving objects.
	ageBytes   uint64
	ageSamples uint64

	// Raw deltas accumulated since the last collection boundary; folded
	// into the decayed state at fold().
	epochSurv uint64
	epochDead uint64
	epochAge  uint64
	epochAgeN uint64

	// Promotion-episode accounting: words placed directly into the old
	// generation and the subset observed dead there, both reset when a
	// new episode begins. oldDied additionally counts survived-then-died
	// words (lifetime, informational).
	pretPlaced uint64
	pretDied   uint64
	oldDied    uint64

	pretenured    bool
	cooldownUntil uint64 // epoch before which promotion is barred
	promotions    uint64
	demotions     uint64
	touched       bool
}

// Decision is one promotion/demotion/warm-start event, timestamped in the
// run's simulated cycles and its collection count.
type Decision struct {
	Epoch       uint64           // collections completed when decided (0 = warm start)
	Cycles      costmodel.Cycles // meter total at decision time
	Site        obj.SiteID
	Verb        string // trace.AdaptPromote | trace.AdaptDemote | trace.AdaptWarm
	SurvivalPPM uint64
	GarbagePPM  uint64
	SampleWords uint64
}

// Engine is the online advisor. It implements prof.Observer (the stat
// feed) and core.SiteAdvisor (the allocation-path probe). One engine
// serves one run; it is single-goroutine state like the meter it charges.
type Engine struct {
	params Params
	meter  *costmodel.Meter
	tr     *trace.Recorder // nil-safe, like every recorder call site

	sites   []*siteState // by site id; nil for a site not seen yet
	touched []obj.SiteID // sites with epoch deltas, deduped via touched flag

	epoch      uint64
	samples    uint64
	promotions uint64
	demotions  uint64
	decisions  []Decision
	sealed     bool
}

// New creates an engine charging meter's Adapt component and (optionally)
// emitting decisions and counters into tr.
func New(meter *costmodel.Meter, tr *trace.Recorder, params Params) *Engine {
	params.setDefaults()
	return &Engine{
		params: params,
		meter:  meter,
		tr:     tr,
	}
}

func (e *Engine) state(site obj.SiteID) *siteState {
	if int(site) < len(e.sites) && e.sites[site] != nil {
		return e.sites[site]
	}
	if n := int(site) + 1; n > len(e.sites) {
		e.sites = append(e.sites, make([]*siteState, n-len(e.sites))...)
	}
	st := &siteState{site: site}
	e.sites[site] = st
	return st
}

func (e *Engine) touch(st *siteState) {
	if !st.touched {
		st.touched = true
		e.touched = append(e.touched, st.site)
	}
}

func (e *Engine) sample() {
	e.meter.Charge(costmodel.Adapt, costmodel.AdaptSample)
	e.samples++
	e.tr.CountAdaptSamples(1)
}

// ShouldPretenure implements core.SiteAdvisor: the collector's per-
// allocation probe. The probe cost is charged here so the allocation path
// pays for the advisor even when the answer is no.
func (e *Engine) ShouldPretenure(site obj.SiteID) bool {
	e.meter.Charge(costmodel.Adapt, costmodel.AdaptProbe)
	return int(site) < len(e.sites) && e.sites[site] != nil && e.sites[site].pretenured
}

// ObserveAlloc implements prof.Observer. Only pretenured placements are
// sampled: nursery allocations are judged by their collection fate
// (ObserveSurvive / ObserveDeath), which already covers every one of them.
func (e *Engine) ObserveAlloc(site obj.SiteID, words uint64, pretenured bool) {
	if e.sealed || !pretenured {
		return
	}
	e.sample()
	st := e.state(site)
	st.pretPlaced += words
	e.touch(st)
}

// ObserveSurvive implements prof.Observer: words of site survived their
// first collection, ageBytes of allocation after their birth.
func (e *Engine) ObserveSurvive(site obj.SiteID, words uint64, ageBytes uint64) {
	if e.sealed {
		return
	}
	e.sample()
	st := e.state(site)
	st.epochSurv += words
	st.epochAge += ageBytes
	st.epochAgeN++
	e.touch(st)
}

// ObserveDeath implements prof.Observer.
func (e *Engine) ObserveDeath(site obj.SiteID, words uint64, class prof.DeathClass) {
	if e.sealed {
		return
	}
	e.sample()
	st := e.state(site)
	switch class {
	case prof.DeathYoung:
		st.epochDead += words
	case prof.DeathPretenured:
		st.pretDied += words
		st.oldDied += words
	case prof.DeathOld:
		st.oldDied += words
	}
	e.touch(st)
}

// ObserveGCEnd implements prof.Observer: a collection boundary. All
// decisions happen here, over the epoch's touched sites in sorted order.
func (e *Engine) ObserveGCEnd() {
	if e.sealed {
		return
	}
	e.fold(true)
}

// fold absorbs the epoch's raw deltas into the decayed accumulators and
// (when decide is set) re-evaluates promotion and demotion for every
// touched site. Sites are visited in ascending id order so the decision
// sequence — and therefore every downstream trace and store byte — is
// independent of map iteration order.
func (e *Engine) fold(decide bool) {
	if decide {
		e.epoch++
	}
	if len(e.touched) == 0 {
		return
	}
	slices.Sort(e.touched)
	for _, id := range e.touched {
		st := e.sites[id]
		st.touched = false
		e.meter.Charge(costmodel.Adapt, costmodel.AdaptEpochSite)

		st.survWords -= st.survWords / e.params.DecayDen
		st.deadWords -= st.deadWords / e.params.DecayDen
		st.ageBytes -= st.ageBytes / e.params.DecayDen
		st.ageSamples -= st.ageSamples / e.params.DecayDen
		st.survWords += st.epochSurv
		st.deadWords += st.epochDead
		st.ageBytes += st.epochAge
		st.ageSamples += st.epochAgeN
		st.epochSurv, st.epochDead, st.epochAge, st.epochAgeN = 0, 0, 0, 0

		if !decide {
			continue
		}
		if !st.pretenured {
			mass := st.survWords + st.deadWords
			if e.epoch > st.cooldownUntil && mass >= e.params.MinSampleWords {
				if ppm := st.survWords * 1_000_000 / mass; ppm >= e.params.PromotePPM {
					e.promote(st, ppm, mass)
				}
			}
		} else if !e.params.DisableDemotion && st.pretPlaced >= e.params.MinOldWords {
			if gppm := st.pretDied * 1_000_000 / st.pretPlaced; gppm >= e.params.DemotePPM {
				e.demote(st, gppm)
			}
		}
	}
	e.touched = e.touched[:0]
}

// promote begins a pretenuring episode for the site.
func (e *Engine) promote(st *siteState, survivalPPM, mass uint64) {
	st.pretenured = true
	st.pretPlaced, st.pretDied = 0, 0
	st.promotions++
	e.promotions++
	e.record(Decision{
		Epoch: e.epoch, Cycles: e.meter.Total(),
		Site: st.site, Verb: trace.AdaptPromote,
		SurvivalPPM: survivalPPM, SampleWords: mass,
	})
}

// demote ends a mistrained episode: the site goes back to nursery
// allocation, its survival evidence is discarded (the phase shift
// invalidated it), and promotion is barred for the cooldown.
func (e *Engine) demote(st *siteState, garbagePPM uint64) {
	st.pretenured = false
	st.survWords, st.deadWords = 0, 0
	st.ageBytes, st.ageSamples = 0, 0
	st.pretPlaced, st.pretDied = 0, 0
	st.cooldownUntil = e.epoch + e.params.CooldownEpochs
	st.demotions++
	e.demotions++
	e.record(Decision{
		Epoch: e.epoch, Cycles: e.meter.Total(),
		Site: st.site, Verb: trace.AdaptDemote,
		GarbagePPM: garbagePPM,
	})
}

func (e *Engine) record(d Decision) {
	e.decisions = append(e.decisions, d)
	e.tr.AdaptDecision(d.Site, d.Verb, d.SurvivalPPM, d.GarbagePPM, d.SampleWords)
}

// WarmStart seeds the engine from a prior run's stored profile, before the
// run begins: survival statistics are adopted as the decayed state, and
// sites that ended the prior run pretenured start this run pretenured,
// each recorded as a warm decision at epoch 0. The normal demotion
// machinery applies from the first collection, so a stale warm start
// self-corrects exactly like a mistrained promotion.
func (e *Engine) WarmStart(rp *RunProfile) {
	if rp == nil {
		return
	}
	for _, s := range rp.Sites {
		e.meter.Charge(costmodel.Adapt, costmodel.AdaptEpochSite)
		st := e.state(s.Site)
		st.survWords = s.SurvWords
		st.deadWords = s.DeadWords
		st.ageBytes = s.AgeBytes
		st.ageSamples = s.AgeSamples
		if s.Pretenured {
			st.pretenured = true
			st.promotions++
			e.promotions++
			mass := st.survWords + st.deadWords
			var ppm uint64
			if mass > 0 {
				ppm = st.survWords * 1_000_000 / mass
			}
			e.record(Decision{
				Epoch: 0, Cycles: e.meter.Total(),
				Site: st.site, Verb: trace.AdaptWarm,
				SurvivalPPM: ppm, SampleWords: mass,
			})
		}
	}
}

// Seal folds any tail-of-run deltas (the profiler's Finalize fires
// end-of-run deaths after the last collection) into the decayed state
// without making further decisions, and freezes the engine. Call once,
// after prof.Profiler.Finalize.
func (e *Engine) Seal() {
	if e.sealed {
		return
	}
	e.fold(false)
	e.sealed = true
}

// SiteState is the frozen per-site view exported by Snapshot.
type SiteState struct {
	Site       obj.SiteID
	Pretenured bool
	SurvWords  uint64
	DeadWords  uint64
	AgeBytes   uint64
	AgeSamples uint64
	PretPlaced uint64
	PretDied   uint64
	OldDied    uint64
	Promotions uint64
	Demotions  uint64
}

// SurvivalPPM returns the site's survival estimate in parts per million.
func (s SiteState) SurvivalPPM() uint64 {
	mass := s.SurvWords + s.DeadWords
	if mass == 0 {
		return 0
	}
	return s.SurvWords * 1_000_000 / mass
}

// Snapshot is the engine's frozen end-of-run state: integer-only, sites
// sorted by id, decisions in emission order — byte-stable across runs.
type Snapshot struct {
	Promotions uint64
	Demotions  uint64
	Samples    uint64
	Decisions  []Decision
	Sites      []SiteState
}

// Snapshot freezes the engine's state.
func (e *Engine) Snapshot() *Snapshot {
	sites := make([]SiteState, 0, len(e.sites))
	for _, st := range e.sites {
		if st == nil {
			continue
		}
		sites = append(sites, SiteState{
			Site: st.site, Pretenured: st.pretenured,
			SurvWords: st.survWords, DeadWords: st.deadWords,
			AgeBytes: st.ageBytes, AgeSamples: st.ageSamples,
			PretPlaced: st.pretPlaced, PretDied: st.pretDied, OldDied: st.oldDied,
			Promotions: st.promotions, Demotions: st.demotions,
		})
	}
	ds := make([]Decision, len(e.decisions))
	copy(ds, e.decisions)
	return &Snapshot{
		Promotions: e.promotions,
		Demotions:  e.demotions,
		Samples:    e.samples,
		Decisions:  ds,
		Sites:      sites,
	}
}

// StoreProfile converts the engine's end-of-run state into a storable
// profile for warm-starting later runs. siteNames is optional
// documentation (may be nil).
func (e *Engine) StoreProfile(label, workload string, siteNames map[obj.SiteID]string) *RunProfile {
	snap := e.Snapshot()
	rp := &RunProfile{Label: label, Workload: workload}
	for _, s := range snap.Sites {
		rp.Sites = append(rp.Sites, SiteSeed{
			Site: s.Site, Name: siteNames[s.Site],
			SurvWords: s.SurvWords, DeadWords: s.DeadWords,
			AgeBytes: s.AgeBytes, AgeSamples: s.AgeSamples,
			PretPlaced: s.PretPlaced, PretDied: s.PretDied,
			Pretenured: s.Pretenured,
		})
	}
	return rp
}
