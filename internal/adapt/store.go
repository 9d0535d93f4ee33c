package adapt

import (
	"fmt"
	"io"

	"tilgc/internal/jsonl"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/prof"
)

// Cross-run profile store: schema-versioned JSONL, one record per line,
// read→write byte-identical like the trace sink. Record kinds, in stream
// order:
//
//	{"t":"header","schema":1,"profiles":N}
//	{"t":"profile","profile":i,"label":..,"workload":..,"sites":K}   per profile, then:
//	{"t":"site","profile":i,"site":..,"name":..,"surv_words":..,...} sorted by site id
//
// All quantities are integers (words/bytes/counts) — no floats, no
// wall-clock values, no map-ordered output — so a store written by one
// sweep byte-compares equal at any parallelism and across machines.

// StoreSchemaVersion is the profile-store format version. Bump when the
// record shapes change incompatibly; readers reject other versions
// outright rather than decoding garbage.
const StoreSchemaVersion = 1

// SiteSeed is one site's stored statistics: the engine's decayed survival
// state plus the end-of-run pretenuring verdict.
type SiteSeed struct {
	Site       obj.SiteID
	Name       string
	SurvWords  uint64
	DeadWords  uint64
	AgeBytes   uint64
	AgeSamples uint64
	PretPlaced uint64
	PretDied   uint64
	Pretenured bool
}

// RunProfile is one run's stored advisor state, keyed by workload name for
// warm-start lookup. Sites are sorted by id.
type RunProfile struct {
	Label    string
	Workload string
	Sites    []SiteSeed
}

// Store is an ordered collection of run profiles.
type Store struct {
	Profiles []*RunProfile
}

// Find returns the last profile stored for the workload, or nil. Last
// wins so appending a fresh sweep to an existing store supersedes it.
func (s *Store) Find(workload string) *RunProfile {
	if s == nil {
		return nil
	}
	for i := len(s.Profiles) - 1; i >= 0; i-- {
		if s.Profiles[i].Workload == workload {
			return s.Profiles[i]
		}
	}
	return nil
}

type storeHeader struct {
	T        string `json:"t"`
	Schema   int    `json:"schema"`
	Profiles int    `json:"profiles"`
}

type storeProfile struct {
	T        string `json:"t"`
	Profile  int    `json:"profile"`
	Label    string `json:"label"`
	Workload string `json:"workload"`
	Sites    int    `json:"sites"`
}

type storeSite struct {
	T          string `json:"t"`
	Profile    int    `json:"profile"`
	Site       uint16 `json:"site"`
	Name       string `json:"name,omitempty"`
	SurvWords  uint64 `json:"surv_words"`
	DeadWords  uint64 `json:"dead_words"`
	AgeBytes   uint64 `json:"age_bytes"`
	AgeSamples uint64 `json:"age_samples"`
	PretPlaced uint64 `json:"pret_placed"`
	PretDied   uint64 `json:"pret_died"`
	Pretenured bool   `json:"pretenured"`
}

// WriteJSONL writes the store as schema-versioned JSONL.
func (s *Store) WriteJSONL(w io.Writer) error {
	enc := jsonl.NewWriter(w)
	enc.Encode(storeHeader{T: "header", Schema: StoreSchemaVersion, Profiles: len(s.Profiles)})
	for i, p := range s.Profiles {
		enc.Encode(storeProfile{T: "profile", Profile: i,
			Label: p.Label, Workload: p.Workload, Sites: len(p.Sites)})
		for _, seed := range p.Sites {
			enc.Encode(storeSite{T: "site", Profile: i,
				Site: uint16(seed.Site), Name: seed.Name,
				SurvWords: seed.SurvWords, DeadWords: seed.DeadWords,
				AgeBytes: seed.AgeBytes, AgeSamples: seed.AgeSamples,
				PretPlaced: seed.PretPlaced, PretDied: seed.PretDied,
				Pretenured: seed.Pretenured})
		}
	}
	return enc.Flush()
}

// ReadJSONL parses a profile store, rejecting unknown record types,
// unknown fields, out-of-order profile records, and — before anything
// else is decoded — schema versions this build does not understand.
func ReadJSONL(r io.Reader) (*Store, error) {
	var s *Store
	var cur *RunProfile
	format := jsonl.Format{Prefix: "adapt: store line", Empty: "adapt: empty store (no header record)",
		Header: "header", Schema: StoreSchemaVersion, Group: "profile", Key: "profile"}
	header := func(l jsonl.Line) (int, error) {
		var h storeHeader
		if err := l.Decode(&h); err != nil {
			return 0, err
		}
		s = &Store{}
		return h.Schema, nil
	}
	err := jsonl.Read(r, format, header, func(l jsonl.Line) error {
		switch l.Type {
		case "profile":
			var rp storeProfile
			if err := l.Decode(&rp); err != nil {
				return err
			}
			cur = &RunProfile{Label: rp.Label, Workload: rp.Workload}
			s.Profiles = append(s.Profiles, cur)
		case "site":
			var rs storeSite
			if err := l.Decode(&rs); err != nil {
				return err
			}
			if n := len(cur.Sites); n > 0 && cur.Sites[n-1].Site >= obj.SiteID(rs.Site) {
				return fmt.Errorf("site %d out of order", rs.Site)
			}
			cur.Sites = append(cur.Sites, SiteSeed{
				Site: obj.SiteID(rs.Site), Name: rs.Name,
				SurvWords: rs.SurvWords, DeadWords: rs.DeadWords,
				AgeBytes: rs.AgeBytes, AgeSamples: rs.AgeSamples,
				PretPlaced: rs.PretPlaced, PretDied: rs.PretDied,
				Pretenured: rs.Pretenured,
			})
		default:
			return fmt.Errorf("unknown record type %q", l.Type)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// FromProfile converts an offline heap profile (internal/prof) into a
// storable run profile, so existing train-run profiles can warm-start the
// advisor. Word counts are reconstructed from per-site averages (the
// offline profiler tracks object counts, not per-fate words); the
// pretenured verdict applies the paper's rule — old% at least cutoffPct
// with at least minObjects allocations. Integer arithmetic only, so the
// conversion is deterministic.
func FromProfile(p *prof.Profiler, label, workload string, cutoffPct float64, minObjects uint64) *RunProfile {
	rp := &RunProfile{Label: label, Workload: workload}
	sites := p.Sites()
	// p.Sites sorts by descending allocation; the store wants ascending id.
	byID := make([]*prof.SiteStats, len(sites))
	copy(byID, sites)
	for i := 1; i < len(byID); i++ {
		for j := i; j > 0 && byID[j-1].Site > byID[j].Site; j-- {
			byID[j-1], byID[j] = byID[j], byID[j-1]
		}
	}
	for _, s := range byID {
		if s.AllocCount == 0 {
			continue // death-only site: no survival evidence to seed
		}
		avgWords := s.AllocBytes / mem.WordSize / s.AllocCount
		if avgWords == 0 {
			avgWords = 1
		}
		seed := SiteSeed{
			Site:      s.Site,
			Name:      s.Name,
			SurvWords: s.SurvivedFirst * avgWords,
			DeadWords: (s.AllocCount - s.SurvivedFirst) * avgWords,
		}
		seed.Pretenured = s.AllocCount >= minObjects && s.OldPct() >= cutoffPct
		rp.Sites = append(rp.Sites, seed)
	}
	return rp
}
