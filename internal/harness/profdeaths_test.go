package harness

import (
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/workload"
)

// TestProfilerCountsEveryDeath: after Finish every object the profiler saw
// allocated has died exactly once — in a collection, in a sweep, or in the
// end-of-run accounting. A collector that evacuates a space without
// condemning it to the profiler (as aging minors once did with their
// from-space) loses the deaths of the objects left behind.
func TestProfilerCountsEveryDeath(t *testing.T) {
	scale := workload.Scale{Repeat: 0.01, Depth: 0.5}
	var cfgs []RunConfig
	for _, w := range []string{"Nqueen", "Life"} {
		for k := CollectorKind(0); k.valid(); k++ {
			cfgs = append(cfgs, RunConfig{Workload: w, Scale: scale, Kind: k, K: 2, Profile: true})
		}
		for _, old := range []core.OldCollector{core.OldMarkSweep, core.OldMarkCompact} {
			cfgs = append(cfgs, RunConfig{Workload: w, Scale: scale, Kind: KindGenAging, K: 2,
				Profile: true, OldCollector: old})
		}
	}
	for _, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Label(), err)
		}
		var allocs, deaths uint64
		for _, s := range res.Profiler.Sites() {
			allocs += s.AllocCount
			deaths += s.Deaths
		}
		if allocs == 0 || deaths != allocs {
			t.Errorf("%s: %d deaths recorded for %d allocations", cfg.Label(), deaths, allocs)
		}
	}

	// The trace's per-site died words come from the same deaths.
	cfg := RunConfig{Workload: "Nqueen", Scale: scale, Kind: KindGenAging, K: 2, Trace: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var alloc, died uint64
	for _, s := range res.Trace.Data(cfg.Label()).Sites {
		alloc += s.AllocWords
		died += s.DiedWords
	}
	if alloc == 0 || died != alloc {
		t.Errorf("%s: %d words died of %d allocated", cfg.Label(), died, alloc)
	}
}
