package trace

import (
	"fmt"
	"io"

	"tilgc/internal/costmodel"
	"tilgc/internal/jsonl"
	"tilgc/internal/obj"
)

// JSONL sink: one record per line, schema-versioned. Record kinds, in
// stream order:
//
//	{"t":"header","schema":1,"clock_hz":150000000,"runs":N}
//	{"t":"run","run":i,"label":"Life/gen+markers k=2"}       per run, then:
//	{"t":"gc_begin","run":i,"seq":s,"major":false,"at":C,"client":..,"stack":..,"copy":..}
//	{"t":"phase_begin","run":i,"seq":s,"phase":"roots",...}
//	{"t":"phase_end",...}
//	{"t":"gc_end","run":i,"seq":s,...,"counters":{...}}
//	{"t":"run_end","run":i,"client":..,"stack":..,"copy":..}
//	{"t":"adapt","run":i,"seq":s,"site":..,"verb":"promote",...}  adaptive runs only
//	{"t":"heap","run":i,"seq":s,...,"spaces":[{"name":..,"live":..,"committed":..}]}
//	                                                         heap-sampled runs only
//	{"t":"req","run":i,"id":..,"b_client":..,...,"e_client":..,...}
//	                                                         request workloads only
//	{"t":"site","run":i,"site":..,"name":..,...}             sorted by site id
//	{"t":"metric","run":i,"name":..,"kind":..,...}           sorted by name
//
// All cycle quantities are integers of simulated cycles; "at" is always
// client+stack+copy+adapt at the event ("adapt" is omitted when zero, i.e.
// on every non-adaptive run — those streams are byte-identical to pre-§9
// builds). The stream contains no floats, no wall-clock quantities, and no
// map-ordered output, so it is byte-identical across runs and harness
// parallelism levels.

type recHeader struct {
	T       string `json:"t"`
	Schema  int    `json:"schema"`
	ClockHz uint64 `json:"clock_hz"`
	Runs    int    `json:"runs"`
}

type recRun struct {
	T     string `json:"t"`
	Run   int    `json:"run"`
	Label string `json:"label"`
}

// wireBreak is a meter breakdown on the wire. Records embed it, so its
// fields appear at the embedding position.
type wireBreak struct {
	Client uint64 `json:"client"`
	Stack  uint64 `json:"stack"`
	Copy   uint64 `json:"copy"`
	Adapt  uint64 `json:"adapt,omitempty"`
}

func toWire(b costmodel.Breakdown) wireBreak {
	return wireBreak{Client: uint64(b.Client), Stack: uint64(b.GCStack),
		Copy: uint64(b.GCCopy), Adapt: uint64(b.Adapt)}
}

func (w wireBreak) breakdown() costmodel.Breakdown {
	return costmodel.Breakdown{Client: costmodel.Cycles(w.Client), GCStack: costmodel.Cycles(w.Stack),
		GCCopy: costmodel.Cycles(w.Copy), Adapt: costmodel.Cycles(w.Adapt)}
}

// wireStamp is a breakdown preceded by its redundant total, "at".
type wireStamp struct {
	At uint64 `json:"at"`
	wireBreak
}

func toStamp(b costmodel.Breakdown) wireStamp {
	return wireStamp{At: uint64(b.Total()), wireBreak: toWire(b)}
}

// breakdown converts back, rejecting an "at" that disagrees with the sum.
func (w wireStamp) breakdown() (costmodel.Breakdown, error) {
	b := w.wireBreak.breakdown()
	if costmodel.Cycles(w.At) != b.Total() {
		return b, fmt.Errorf("at %d != client+stack+copy+adapt %d", w.At, b.Total())
	}
	return b, nil
}

type recEvent struct {
	T     string `json:"t"`
	Run   int    `json:"run"`
	Seq   uint64 `json:"seq"`
	Major *bool  `json:"major,omitempty"`
	Phase string `json:"phase,omitempty"`
	wireStamp
	// Workers appears on phase_end records of parallel collection phases
	// only (W > 1), so single-worker streams — including the golden
	// fixture — are byte-identical to pre-parallel builds.
	Workers  []uint64    `json:"workers,omitempty"`
	Counters *GCCounters `json:"counters,omitempty"`
}

type recRunEnd struct {
	T   string `json:"t"`
	Run int    `json:"run"`
	wireBreak
	// Overlap is the run's hidden parallel-worker cycles (see
	// RunData.Overlap); omitted when zero, i.e. on every single-worker run.
	Overlap uint64 `json:"overlap,omitempty"`
}

// recAdapt is one advisor decision. It appears only in adaptive runs'
// streams (after run_end, before site records), so non-adaptive traces —
// including the golden fixture — are byte-identical to pre-§9 builds
// without a schema bump; readers reject it only via the unknown-record
// check, which schema 1 readers predating §9 would do by design.
type recAdapt struct {
	T           string `json:"t"`
	Run         int    `json:"run"`
	Seq         uint64 `json:"seq"`
	Site        uint16 `json:"site"`
	Verb        string `json:"verb"`
	SurvivalPPM uint64 `json:"survival_ppm"`
	GarbagePPM  uint64 `json:"garbage_ppm"`
	SampleWords uint64 `json:"sample_words"`
	wireStamp
}

// recHeap is one end-of-collection footprint sample. Like recAdapt it is
// gated — emitted only when the producing run enabled heap sampling — so
// default streams (and the golden fixture) are byte-identical to builds
// predating it.
type recHeap struct {
	T   string `json:"t"`
	Run int    `json:"run"`
	Seq uint64 `json:"seq"`
	wireStamp
	Spaces []recHeapSpace `json:"spaces"`
}

type recHeapSpace struct {
	Name      string `json:"name"`
	Live      uint64 `json:"live"`
	Committed uint64 `json:"committed"`
}

// recReq is one served request span: the full meter breakdown at arrival
// (b_*) and completion (e_*). Latency and the GC share inside the request
// are deltas of the two snapshots; no derived field is stored, so the
// record cannot disagree with itself.
type recReq struct {
	T       string `json:"t"`
	Run     int    `json:"run"`
	ID      uint64 `json:"id"`
	BClient uint64 `json:"b_client"`
	BStack  uint64 `json:"b_stack"`
	BCopy   uint64 `json:"b_copy"`
	BAdapt  uint64 `json:"b_adapt,omitempty"`
	EClient uint64 `json:"e_client"`
	EStack  uint64 `json:"e_stack"`
	ECopy   uint64 `json:"e_copy"`
	EAdapt  uint64 `json:"e_adapt,omitempty"`
}

type recSite struct {
	T                 string `json:"t"`
	Run               int    `json:"run"`
	Site              uint16 `json:"site"`
	Name              string `json:"name,omitempty"`
	AllocObjects      uint64 `json:"alloc_objects"`
	AllocWords        uint64 `json:"alloc_words"`
	PretenuredObjects uint64 `json:"pretenured_objects"`
	PretenuredWords   uint64 `json:"pretenured_words"`
	CopiedWords       uint64 `json:"copied_words"`
	TenuredWords      uint64 `json:"tenured_words"`
	DiedWords         uint64 `json:"died_words"`
}

type recMetric struct {
	T       string   `json:"t"`
	Run     int      `json:"run"`
	Name    string   `json:"name"`
	Kind    string   `json:"kind"`
	Value   uint64   `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Max     uint64   `json:"max,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// eventRecName maps event kinds to wire record names.
func eventRecName(k EventKind) string {
	switch k {
	case EvGCBegin:
		return "gc_begin"
	case EvGCEnd:
		return "gc_end"
	case EvPhaseBegin:
		return "phase_begin"
	case EvPhaseEnd:
		return "phase_end"
	}
	return "unknown"
}

// File is a parsed (or about-to-be-written) trace: a schema header plus
// one RunData per traced run.
type File struct {
	Schema  int
	ClockHz uint64
	Runs    []*RunData
}

// NewFile wraps frozen run data in a current-schema file.
func NewFile(runs ...*RunData) *File {
	return &File{Schema: SchemaVersion, ClockHz: uint64(costmodel.ClockHz), Runs: runs}
}

// WriteJSONL writes the file as schema-versioned JSONL.
func (f *File) WriteJSONL(w io.Writer) error {
	enc := jsonl.NewWriter(w)
	enc.Encode(recHeader{T: "header", Schema: f.Schema, ClockHz: f.ClockHz, Runs: len(f.Runs)})
	for i, d := range f.Runs {
		enc.Encode(recRun{T: "run", Run: i, Label: d.Label})
		for _, e := range d.Events {
			rec := recEvent{T: eventRecName(e.Kind), Run: i, Seq: e.Seq, wireStamp: toStamp(e.Break)}
			switch e.Kind {
			case EvGCBegin:
				major := e.Major
				rec.Major = &major
			case EvGCEnd:
				rec.Counters = e.Counters
			case EvPhaseBegin, EvPhaseEnd:
				rec.Phase = e.Phase.String()
				rec.Workers = e.Workers
			}
			enc.Encode(rec)
		}
		enc.Encode(recRunEnd{T: "run_end", Run: i, wireBreak: toWire(d.Final), Overlap: uint64(d.Overlap)})
		for _, a := range d.Adapt {
			enc.Encode(recAdapt{T: "adapt", Run: i, Seq: a.Seq,
				Site: uint16(a.Site), Verb: a.Verb,
				SurvivalPPM: a.SurvivalPPM, GarbagePPM: a.GarbagePPM, SampleWords: a.SampleWords,
				wireStamp: toStamp(a.Break)})
		}
		for _, h := range d.Heap {
			spaces := make([]recHeapSpace, len(h.Spaces))
			for j, sp := range h.Spaces {
				spaces[j] = recHeapSpace{Name: sp.Name, Live: sp.Live, Committed: sp.Committed}
			}
			enc.Encode(recHeap{T: "heap", Run: i, Seq: h.Seq, wireStamp: toStamp(h.Break), Spaces: spaces})
		}
		for _, q := range d.Reqs {
			enc.Encode(recReq{T: "req", Run: i, ID: q.ID,
				BClient: uint64(q.Begin.Client), BStack: uint64(q.Begin.GCStack),
				BCopy: uint64(q.Begin.GCCopy), BAdapt: uint64(q.Begin.Adapt),
				EClient: uint64(q.End.Client), EStack: uint64(q.End.GCStack),
				ECopy: uint64(q.End.GCCopy), EAdapt: uint64(q.End.Adapt)})
		}
		for _, s := range d.Sites {
			enc.Encode(recSite{T: "site", Run: i, Site: uint16(s.Site), Name: s.Name,
				AllocObjects: s.AllocObjects, AllocWords: s.AllocWords,
				PretenuredObjects: s.PretenuredObjects, PretenuredWords: s.PretenuredWords,
				CopiedWords: s.CopiedWords, TenuredWords: s.TenuredWords, DiedWords: s.DiedWords})
		}
		for _, m := range d.Metrics {
			rec := recMetric{T: "metric", Run: i, Name: m.Name, Kind: m.Kind.String()}
			if m.Kind == KindHistogram {
				rec.Count, rec.Sum, rec.Max, rec.Buckets = m.Count, m.Sum, m.Max, m.Buckets
			} else {
				rec.Value = m.Value
			}
			enc.Encode(rec)
		}
	}
	return enc.Flush()
}

// ReadJSONL parses a JSONL trace, rejecting unknown record types, unknown
// fields, out-of-order run records, and schema versions this build does
// not understand. Structural soundness beyond record shape (span pairing,
// monotonic timestamps, reconciliation) is checked by Validate.
func ReadJSONL(r io.Reader) (*File, error) {
	var f *File
	var cur *RunData
	format := jsonl.Format{Prefix: "trace: line", Empty: "trace: empty input (no header record)",
		Header: "header", Schema: SchemaVersion, Group: "run", Key: "run"}
	header := func(l jsonl.Line) (int, error) {
		var h recHeader
		if err := l.Decode(&h); err != nil {
			return 0, err
		}
		f = &File{Schema: h.Schema, ClockHz: h.ClockHz}
		return h.Schema, nil
	}
	err := jsonl.Read(r, format, header, func(l jsonl.Line) error {
		switch l.Type {
		case "run":
			var rr recRun
			if err := l.Decode(&rr); err != nil {
				return err
			}
			cur = &RunData{Label: rr.Label}
			f.Runs = append(f.Runs, cur)
		case "gc_begin", "gc_end", "phase_begin", "phase_end":
			var re recEvent
			if err := l.Decode(&re); err != nil {
				return err
			}
			ev, err := re.event(l.Type)
			if err != nil {
				return err
			}
			cur.Events = append(cur.Events, ev)
		case "run_end":
			var re recRunEnd
			if err := l.Decode(&re); err != nil {
				return err
			}
			cur.Final = re.breakdown()
			cur.Overlap = costmodel.Cycles(re.Overlap)
		case "adapt":
			var ra recAdapt
			if err := l.Decode(&ra); err != nil {
				return err
			}
			b, err := ra.breakdown()
			if err != nil {
				return err
			}
			switch ra.Verb {
			case AdaptPromote, AdaptDemote, AdaptWarm:
			default:
				return fmt.Errorf("unknown adapt verb %q", ra.Verb)
			}
			cur.Adapt = append(cur.Adapt, AdaptDecision{
				Seq: ra.Seq, Site: obj.SiteID(ra.Site), Verb: ra.Verb,
				SurvivalPPM: ra.SurvivalPPM, GarbagePPM: ra.GarbagePPM,
				SampleWords: ra.SampleWords, Break: b,
			})
		case "heap":
			var rh recHeap
			if err := l.Decode(&rh); err != nil {
				return err
			}
			b, err := rh.breakdown()
			if err != nil {
				return err
			}
			spaces := make([]SpaceOcc, len(rh.Spaces))
			for j, sp := range rh.Spaces {
				spaces[j] = SpaceOcc{Name: sp.Name, Live: sp.Live, Committed: sp.Committed}
			}
			cur.Heap = append(cur.Heap, HeapSample{Seq: rh.Seq, Break: b, Spaces: spaces})
		case "req":
			var rq recReq
			if err := l.Decode(&rq); err != nil {
				return err
			}
			cur.Reqs = append(cur.Reqs, RequestSpan{ID: rq.ID,
				Begin: costmodel.Breakdown{
					Client:  costmodel.Cycles(rq.BClient),
					GCStack: costmodel.Cycles(rq.BStack),
					GCCopy:  costmodel.Cycles(rq.BCopy),
					Adapt:   costmodel.Cycles(rq.BAdapt),
				},
				End: costmodel.Breakdown{
					Client:  costmodel.Cycles(rq.EClient),
					GCStack: costmodel.Cycles(rq.EStack),
					GCCopy:  costmodel.Cycles(rq.ECopy),
					Adapt:   costmodel.Cycles(rq.EAdapt),
				}})
		case "site":
			var rs recSite
			if err := l.Decode(&rs); err != nil {
				return err
			}
			cur.Sites = append(cur.Sites, SiteCounters{
				Site: obj.SiteID(rs.Site), Name: rs.Name,
				AllocObjects: rs.AllocObjects, AllocWords: rs.AllocWords,
				PretenuredObjects: rs.PretenuredObjects, PretenuredWords: rs.PretenuredWords,
				CopiedWords: rs.CopiedWords, TenuredWords: rs.TenuredWords, DiedWords: rs.DiedWords,
			})
		case "metric":
			var rm recMetric
			if err := l.Decode(&rm); err != nil {
				return err
			}
			m := Metric{Name: rm.Name, Value: rm.Value,
				Count: rm.Count, Sum: rm.Sum, Max: rm.Max, Buckets: rm.Buckets}
			switch rm.Kind {
			case "counter":
				m.Kind = KindCounter
			case "gauge":
				m.Kind = KindGauge
			case "hist":
				m.Kind = KindHistogram
			default:
				return fmt.Errorf("unknown metric kind %q", rm.Kind)
			}
			cur.Metrics = append(cur.Metrics, m)
		default:
			return fmt.Errorf("unknown record type %q", l.Type)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// event converts a wire event record back to the in-memory form.
func (re recEvent) event(t string) (Event, error) {
	b, err := re.breakdown()
	if err != nil {
		return Event{}, err
	}
	ev := Event{Seq: re.Seq, Break: b}
	if len(re.Workers) > 0 && t != "phase_end" {
		return Event{}, fmt.Errorf("%s record carries worker tallies", t)
	}
	switch t {
	case "gc_begin":
		ev.Kind = EvGCBegin
		if re.Major == nil {
			return Event{}, fmt.Errorf("gc_begin without major field")
		}
		ev.Major = *re.Major
	case "gc_end":
		ev.Kind = EvGCEnd
		if re.Counters == nil {
			return Event{}, fmt.Errorf("gc_end without counters")
		}
		ev.Counters = re.Counters
	case "phase_begin", "phase_end":
		if t == "phase_begin" {
			ev.Kind = EvPhaseBegin
		} else {
			ev.Kind = EvPhaseEnd
			ev.Workers = re.Workers
		}
		p, ok := ParsePhase(re.Phase)
		if !ok {
			return Event{}, fmt.Errorf("unknown phase %q", re.Phase)
		}
		ev.Phase = p
	}
	return ev, nil
}

// Validate checks every run's structural invariants: spans strictly
// nested and paired, collection sequence numbers consecutive from 1,
// meter components non-decreasing event to event, and the per-phase /
// per-span / final-meter cycle reconciliation.
func (f *File) Validate() error {
	if f.Schema != SchemaVersion {
		return fmt.Errorf("trace: schema %d, want %d", f.Schema, SchemaVersion)
	}
	for i, d := range f.Runs {
		if err := d.validate(); err != nil {
			return fmt.Errorf("run %d (%s): %w", i, d.Label, err)
		}
	}
	return nil
}

func (d *RunData) validate() error {
	var prev costmodel.Breakdown
	var seq uint64
	gcOpen, phaseOpen := false, false
	var openPhase Phase
	for i, e := range d.Events {
		if e.Break.Client < prev.Client || e.Break.GCStack < prev.GCStack ||
			e.Break.GCCopy < prev.GCCopy || e.Break.Adapt < prev.Adapt {
			return fmt.Errorf("event %d: meter snapshot went backwards", i)
		}
		prev = e.Break
		switch e.Kind {
		case EvGCBegin:
			if gcOpen {
				return fmt.Errorf("event %d: gc_begin inside an open collection", i)
			}
			if e.Seq != seq+1 {
				return fmt.Errorf("event %d: collection seq %d, want %d", i, e.Seq, seq+1)
			}
			seq = e.Seq
			gcOpen = true
		case EvGCEnd:
			if !gcOpen || phaseOpen {
				return fmt.Errorf("event %d: gc_end without open collection (or with open phase)", i)
			}
			if e.Seq != seq {
				return fmt.Errorf("event %d: gc_end seq %d, want %d", i, e.Seq, seq)
			}
			gcOpen = false
		case EvPhaseBegin:
			if !gcOpen || phaseOpen {
				return fmt.Errorf("event %d: phase_begin outside a collection or inside phase %v", i, openPhase)
			}
			phaseOpen, openPhase = true, e.Phase
		case EvPhaseEnd:
			if !phaseOpen || e.Phase != openPhase {
				return fmt.Errorf("event %d: phase_end(%v) does not match open phase", i, e.Phase)
			}
			phaseOpen = false
		}
	}
	if gcOpen || phaseOpen {
		return fmt.Errorf("trace ends with an open span")
	}
	if d.Final.Total() < prev.Total() {
		return fmt.Errorf("final meter breakdown precedes last event")
	}
	var prevHeap costmodel.Breakdown
	for i, h := range d.Heap {
		if h.Seq == 0 || h.Seq > seq {
			return fmt.Errorf("heap sample %d: collection seq %d outside 1..%d", i, h.Seq, seq)
		}
		if h.Break.Total() < prevHeap.Total() {
			return fmt.Errorf("heap sample %d: timestamp went backwards", i)
		}
		prevHeap = h.Break
		if h.Break.Total() > d.Final.Total() {
			return fmt.Errorf("heap sample %d: timestamp after final meter", i)
		}
		if len(h.Spaces) == 0 {
			return fmt.Errorf("heap sample %d: no spaces", i)
		}
		for _, sp := range h.Spaces {
			if sp.Name == "" {
				return fmt.Errorf("heap sample %d: unnamed space", i)
			}
			if sp.Live > sp.Committed {
				return fmt.Errorf("heap sample %d: space %s live %d > committed %d", i, sp.Name, sp.Live, sp.Committed)
			}
		}
	}
	var prevReq costmodel.Cycles
	for i, q := range d.Reqs {
		if q.End.Client < q.Begin.Client || q.End.GCStack < q.Begin.GCStack ||
			q.End.GCCopy < q.Begin.GCCopy || q.End.Adapt < q.Begin.Adapt {
			return fmt.Errorf("request span %d (id %d): end breakdown precedes begin", i, q.ID)
		}
		if q.Begin.Total() < prevReq {
			return fmt.Errorf("request span %d (id %d): begins before the previous span's start", i, q.ID)
		}
		prevReq = q.Begin.Total()
		if q.End.Total() > d.Final.Total() {
			return fmt.Errorf("request span %d (id %d): ends after final meter", i, q.ID)
		}
	}
	return d.Reconcile()
}
