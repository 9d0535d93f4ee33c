package fuzz

import (
	"fmt"
	"strings"
	"testing"

	"tilgc/gcsim"
	"tilgc/internal/core"
	"tilgc/internal/harness"
	"tilgc/internal/workload"
)

// TestInvalidSpecParity: every front end that can express an invalid
// configuration rejects it with the same rule text — harness.Run,
// harness.RunAll, gcsim.Config.Validate, gcsim.NewRuntime, and the fuzz
// build path. A nil mapping means that front end has no way to say it.
func TestInvalidSpecParity(t *testing.T) {
	tiny := workload.Scale{Repeat: 0.002, Depth: 0.3}
	run := func(c harness.RunConfig) *harness.RunConfig {
		c.Workload, c.Scale = "Life", tiny
		return &c
	}
	pol := gcsim.NewPretenurePolicy(map[gcsim.SiteID]gcsim.PretenureDecision{1: {}})
	cases := []struct {
		name    string
		want    string
		harness *harness.RunConfig
		gcsim   *gcsim.Config
		fuzz    *Config
	}{
		{"negative threads", "Threads -2 is negative",
			run(harness.RunConfig{Kind: harness.KindGenerational, Threads: -2}),
			&gcsim.Config{Threads: -2}, nil},
		{"negative workers", "GCWorkers -3 is negative",
			run(harness.RunConfig{Kind: harness.KindGenerational, GCWorkers: -3}),
			&gcsim.Config{GCWorkers: -3}, &Config{Workers: -3}},
		{"negative markerN", "MarkerN -1 is negative",
			run(harness.RunConfig{Kind: harness.KindGenMarkers, MarkerN: -1}),
			&gcsim.Config{Collector: gcsim.GenerationalMarkers, MarkerN: -1}, &Config{MarkerN: -1}},
		{"negative aging", "AgingMinors -2 is negative",
			nil, &gcsim.Config{AgingMinors: -2}, &Config{AgingMinors: -2}},
		{"negative K", "K -1 is negative",
			run(harness.RunConfig{Kind: harness.KindGenerational, K: -1}), nil, nil},
		{"negative scale", "negative factor",
			&harness.RunConfig{Workload: "Life", Scale: workload.Scale{Repeat: -1}, Kind: harness.KindGenerational}, nil, nil},
		{"unknown old collector", "unknown OldCollector 9",
			run(harness.RunConfig{Kind: harness.KindGenerational, OldCollector: core.OldCollector(9)}),
			&gcsim.Config{OldCollector: core.OldCollector(9)}, &Config{Old: core.OldCollector(9)}},
		{"semispace old", "OldCollector marksweep is set but the Semispace collector has no old generation",
			run(harness.RunConfig{Kind: harness.KindSemispace, OldCollector: core.OldMarkSweep}),
			&gcsim.Config{Collector: gcsim.Semispace, OldCollector: gcsim.OldMarkSweep},
			&Config{Semispace: true, Old: core.OldMarkSweep}},
		{"semispace cards", "CardTable is set but the Semispace collector has no write barrier",
			nil, &gcsim.Config{Collector: gcsim.Semispace, CardTable: true}, &Config{Semispace: true, Cards: true}},
		{"semispace aging", "AgingMinors is set but the Semispace collector has no promotion",
			nil, &gcsim.Config{Collector: gcsim.Semispace, AgingMinors: 2}, &Config{Semispace: true, AgingMinors: 2}},
		{"semispace pretenure", "Pretenure is set but the Semispace collector has no tenured generation",
			nil, &gcsim.Config{Collector: gcsim.Semispace, Pretenure: pol}, &Config{Semispace: true, Pretenure: true}},
		{"semispace elision", "ScanElision is set but the Semispace collector has no pretenured region",
			nil, &gcsim.Config{Collector: gcsim.Semispace, ScanElision: true}, nil},
		{"semispace adapt", "Adapt is set but the Semispace collector has no tenured generation",
			run(harness.RunConfig{Kind: harness.KindSemispace, Adapt: true}), nil, &Config{Semispace: true, Adapt: true}},
		{"elision without pretenure", "ScanElision is set without a Pretenure policy",
			nil, &gcsim.Config{Collector: gcsim.GenerationalFull, ScanElision: true}, nil},
	}
	p := Generate(1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(entry string, err error) {
				t.Helper()
				if err == nil {
					t.Errorf("%s accepted the configuration", entry)
				} else if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %q does not contain %q", entry, err, tc.want)
				}
			}
			if c := tc.harness; c != nil {
				_, err := harness.Run(*c)
				check("harness.Run", err)
				_, err = harness.RunAll([]harness.RunConfig{*c}, harness.Options{Parallelism: 1})
				check("harness.RunAll", err)
			}
			if c := tc.gcsim; c != nil {
				check("gcsim.Config.Validate", c.Validate())
				check("gcsim.NewRuntime", func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("%v", r)
						}
					}()
					gcsim.NewRuntime(*c)
					return nil
				}())
			}
			if c := tc.fuzz; c != nil {
				cfg := *c
				cfg.Name = tc.name
				out := execute(p, cfg, false, false)
				var err error
				if out.panicked != nil {
					err = fmt.Errorf("%v", out.panicked)
				}
				check("fuzz execute", err)
			}
		})
	}
}
