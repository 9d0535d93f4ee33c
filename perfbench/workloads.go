package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"

	"tilgc/internal/core"
	"tilgc/internal/harness"
	"tilgc/internal/workload"
)

// benchWorkload is one of the benchmark's fixed programs. A measured unit
// runs every config in cfgs once; the unit's other work (program tracing,
// the SLO report, the sanitizer) follows from the flags on those configs.
type benchWorkload struct {
	name string
	// cfgs builds the unit's run configs at the given scale factor.
	cfgs func(scale float64) []harness.RunConfig
	// workers is the pool size for multi-run units (1 runs serially).
	workers int
}

// The four workloads, three of them in BENCHMARK.json. Each puts most of
// the load on a different layer; the README gives the measured split.
var benchWorkloads = []benchWorkload{
	{
		// Mutator-bound: deep, rarely unwinding stacks, exceptions raised
		// through Mutator.Raise, few collections. Knuth-Bendix sizes its
		// input by Depth only; 0.5 is the smallest depth that keeps the
		// deep-stack profile of the paper's Table 2. BENCHMARK.json leaves
		// it out: on a shared host its unit time swings by up to 2x with
		// the neighbours' cache load, too much for the regression gate, so
		// it runs only by hand (for instance with -cpuprofile).
		name: "kb-deepstack",
		cfgs: func(f float64) []harness.RunConfig {
			return []harness.RunConfig{{
				Workload: "Knuth-Bendix", Scale: workload.Scale{Repeat: 0.01 * f, Depth: 0.5 * f},
				Kind: harness.KindGenMarkers, K: 4,
			}}
		},
		workers: 1,
	},
	{
		// Collector-bound: a tight budget (k=1.1) makes simulated GC
		// cycles several times the client's, with hundreds of majors.
		name: "color-gcbound",
		cfgs: func(f float64) []harness.RunConfig {
			return []harness.RunConfig{{
				Workload: "Color", Scale: workload.Scale{Repeat: 0.2 * f, Depth: f},
				Kind: harness.KindGenerational, K: 1.1,
			}}
		},
		workers: 1,
	},
	{
		// The latency path a user of `gctrace slo` takes: a traced,
		// heap-sampled, four-thread, four-worker mark-sweep server run,
		// then its trace and SLO report encoded as JSONL.
		name: "server-slo",
		cfgs: func(f float64) []harness.RunConfig {
			return []harness.RunConfig{{
				Workload: "ServerDripChurn", Scale: workload.Scale{Repeat: 4 * f, Depth: f},
				Kind: harness.KindGenMarkersPretenure, K: 1, OldCollector: core.OldMarkSweep,
				Threads: 4, GCWorkers: 4, Trace: true, TraceHeap: true,
			}}
		},
		workers: 1,
	},
	{
		// Breadth, in the shape of CI and table regeneration: 40 short
		// sanitized runs through the harness pool, covering the semispace,
		// card, aging and scan-elision kernels and mark-compact.
		name:    "sweep-sanitized",
		cfgs:    sweepConfigs,
		workers: min(runtime.NumCPU(), 4),
	},
}

// sweepConfigs is the sanitized sweep: the paper's programs other than
// Knuth-Bendix (which has its own workload), each under four collectors.
func sweepConfigs(f float64) []harness.RunConfig {
	scale := workload.Scale{Repeat: 0.01 * f, Depth: 0.5 * f}
	var cfgs []harness.RunConfig
	for _, name := range harness.PaperOrder {
		if name == "Knuth-Bendix" {
			continue
		}
		for _, c := range []harness.RunConfig{
			{Kind: harness.KindSemispace},
			{Kind: harness.KindGenCards},
			{Kind: harness.KindGenAgingPretenure},
			{Kind: harness.KindGenMarkersPretenureElide, OldCollector: core.OldMarkCompact},
		} {
			c.Workload, c.Scale, c.K, c.Sanitize = name, scale, 2, true
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() []string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return names
}

// pins.json holds each workload's checksums at the pinned scale, keyed by
// benchmark workload and then by run label (harness.RunConfig.Label).
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]map[string]uint64, error) {
	var pins map[string]map[string]uint64
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	for _, w := range benchWorkloads {
		for _, c := range w.cfgs(1) {
			if _, ok := pins[w.name][c.Label()]; !ok {
				return nil, fmt.Errorf("pins.json: no checksum for %s run %q", w.name, c.Label())
			}
		}
	}
	return pins, nil
}
