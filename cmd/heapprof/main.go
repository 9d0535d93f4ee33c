// Command heapprof runs a benchmark with the heap profiler attached and
// prints its Figure 2-style per-allocation-site lifetime report, plus the
// pretenuring policy the paper's 80% old-cutoff rule would derive.
//
// It is also the bridge between offline profiling and the §9 online
// advisor: -export-store converts the offline profile into the adaptive
// advisor's warm-start store format, and -inspect-store summarizes an
// existing store file (from heapprof or `gcbench -adapt-store`).
//
// Usage:
//
//	heapprof -bench Knuth-Bendix
//	heapprof -bench Nqueen -cutoff 90 -repeat 0.05
//	heapprof -bench Nqueen -export-store nqueen.jsonl   # offline profile → advisor store
//	heapprof -inspect-store nqueen.jsonl                # summarize a store file
package main

import (
	"flag"
	"fmt"
	"os"

	"tilgc/gcsim"
)

func main() {
	bench := flag.String("bench", "", "benchmark to profile (see gcbench -list)")
	repeat := flag.Float64("repeat", gcsim.DefaultScale.Repeat,
		"workload repetition scale (1.0 = paper scale)")
	depth := flag.Float64("depth", 1.0, "structural depth scale")
	cutoff := flag.Float64("cutoff", 80, "old%% pretenuring cutoff")
	exportStore := flag.String("export-store", "",
		"export the offline profile as an adaptive-advisor warm-start store to FILE")
	inspectStore := flag.String("inspect-store", "",
		"summarize the advisor store at FILE and exit (no benchmark run)")
	flag.Parse()

	if err := checkNumbers(*repeat, *depth, *cutoff); err != nil {
		fmt.Fprintln(os.Stderr, "heapprof:", err)
		os.Exit(2)
	}

	if *inspectStore != "" {
		if err := inspect(*inspectStore); err != nil {
			fmt.Fprintln(os.Stderr, "heapprof:", err)
			os.Exit(1)
		}
		return
	}

	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	info, err := gcsim.Describe(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heapprof:", err)
		os.Exit(1)
	}

	scale := gcsim.Scale{Repeat: *repeat, Depth: *depth}
	// A small nursery samples object lifetimes frequently, sharpening the
	// old% estimates (the paper's profiled runs pay a similar overhead).
	rt := gcsim.NewRuntime(gcsim.Config{
		Collector:    gcsim.Generational,
		NurseryWords: 4 * 1024,
		Profile:      true,
		SiteNames:    info.Sites,
	})
	if _, err := rt.RunBenchmark(*bench, scale); err != nil {
		fmt.Fprintln(os.Stderr, "heapprof:", err)
		os.Exit(1)
	}
	p := rt.Profiler()
	opts := gcsim.DefaultReportOptions(*bench)
	opts.CutoffPct = *cutoff
	p.WriteReport(os.Stdout, opts)

	policy := gcsim.PolicyFromProfile(p, *cutoff, 32)
	fmt.Printf("\nDerived pretenuring policy (old%% >= %g): %d sites\n", *cutoff, policy.Len())
	for _, id := range policy.Sites() {
		fmt.Printf("  site %d  %s\n", id, info.Sites[id])
	}

	if *exportStore != "" {
		label := fmt.Sprintf("%s/heapprof repeat=%g", *bench, *repeat)
		profile := gcsim.AdaptProfileFromProfiler(p, label, *bench, *cutoff, 32)
		if err := writeStore(profile, *exportStore); err != nil {
			fmt.Fprintln(os.Stderr, "heapprof:", err)
			os.Exit(1)
		}
		fmt.Printf("\nExported %d sites (%d pretenured) to advisor store %s\n",
			len(profile.Sites), countPretenured(profile), *exportStore)
	}
}

// checkNumbers rejects numeric flag values no run can use: negative
// scales and an old% cutoff outside 0-100.
func checkNumbers(repeat, depth, cutoff float64) error {
	switch {
	case repeat < 0:
		return fmt.Errorf("-repeat %g is negative", repeat)
	case depth < 0:
		return fmt.Errorf("-depth %g is negative", depth)
	case cutoff < 0 || cutoff > 100:
		return fmt.Errorf("-cutoff %g is outside 0-100", cutoff)
	}
	return nil
}

// writeStore serializes a single-profile advisor store.
func writeStore(profile *gcsim.AdaptProfile, path string) error {
	store := &gcsim.AdaptStore{Profiles: []*gcsim.AdaptProfile{profile}}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	err = store.WriteJSONL(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

func countPretenured(profile *gcsim.AdaptProfile) int {
	n := 0
	for _, s := range profile.Sites {
		if s.Pretenured {
			n++
		}
	}
	return n
}

// inspect summarizes an advisor store file. Schema mismatches and
// malformed records surface the store reader's descriptive errors.
func inspect(path string) error {
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()
	store, err := gcsim.ReadAdaptStore(in)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("%s: %d profiles\n", path, len(store.Profiles))
	for _, p := range store.Profiles {
		fmt.Printf("\n%s (workload %s): %d sites, %d pretenured\n",
			p.Label, p.Workload, len(p.Sites), countPretenured(p))
		for _, s := range p.Sites {
			surv := 0.0
			if total := s.SurvWords + s.DeadWords; total > 0 {
				surv = 100 * float64(s.SurvWords) / float64(total)
			}
			mark := " "
			if s.Pretenured {
				mark = "*"
			}
			fmt.Printf("  %s site %-6d %-24s surv %5.1f%%  words %d/%d  placed/died %d/%d\n",
				mark, s.Site, s.Name, surv,
				s.SurvWords, s.SurvWords+s.DeadWords, s.PretPlaced, s.PretDied)
		}
	}
	return nil
}
