package gcsim

import (
	"strings"
	"testing"
)

func TestNewRuntimeDefaults(t *testing.T) {
	r := NewRuntime(Config{})
	if r.CollectorName() != "generational" {
		t.Fatalf("default collector = %q", r.CollectorName())
	}
	if r.Mutator() == nil {
		t.Fatal("no mutator")
	}
}

func TestQuickstartPattern(t *testing.T) {
	r := NewRuntime(Config{Collector: Generational, NurseryWords: 512})
	m := r.Mutator()
	frame := m.PtrFrame("main", 2)
	m.Call(frame, func() {
		for i := uint64(0); i < 2000; i++ {
			m.ConsInt(1, i, 1, 1)
		}
		n := m.ListLen(1, 2)
		if n != 2000 {
			t.Fatalf("list length = %d", n)
		}
	})
	if r.Stats().NumGC == 0 {
		t.Fatal("no collections despite tiny nursery")
	}
	if r.GCSeconds() <= 0 || r.ClientSeconds() <= 0 {
		t.Fatal("no time charged")
	}
}

func TestAllCollectorChoicesRunNqueen(t *testing.T) {
	scale := Scale{Repeat: 0.0001}
	var ref uint64
	choices := []CollectorChoice{Semispace, Generational, GenerationalMarkers, GenerationalFull}
	for i, c := range choices {
		cfg := Config{Collector: c}
		if c != Semispace {
			// Validate rejects generational knobs on the semispace baseline
			// (it used to ignore them silently).
			cfg.NurseryWords = 2048
		}
		if c == GenerationalFull {
			cfg.Pretenure = NewPretenurePolicy(map[SiteID]PretenureDecision{801: {}})
		}
		r := NewRuntime(cfg)
		check, err := r.RunBenchmark("Nqueen", scale)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = check
		} else if check != ref {
			t.Fatalf("collector %d check %#x want %#x", c, check, ref)
		}
	}
}

func TestProfileToPolicy(t *testing.T) {
	r := NewRuntime(Config{Profile: true, NurseryWords: 2048})
	if _, err := r.RunBenchmark("Nqueen", Scale{Repeat: 0.004}); err != nil {
		t.Fatal(err)
	}
	p := r.Profiler()
	if p == nil {
		t.Fatal("profiler missing")
	}
	pol := PolicyFromProfile(p, 80, 32)
	if pol.Len() == 0 {
		t.Fatal("profile produced no pretenure sites for Nqueen")
	}
	// Re-run with the derived policy: same answer, less copying.
	base := NewRuntime(Config{NurseryWords: 2048})
	cb, _ := base.RunBenchmark("Nqueen", Scale{Repeat: 0.004})
	pre := NewRuntime(Config{Collector: GenerationalFull, Pretenure: pol, NurseryWords: 2048})
	cp, _ := pre.RunBenchmark("Nqueen", Scale{Repeat: 0.004})
	if cb != cp {
		t.Fatal("policy changed the computation")
	}
	if pre.Stats().BytesCopied >= base.Stats().BytesCopied {
		t.Fatalf("derived policy did not cut copying: %d vs %d",
			pre.Stats().BytesCopied, base.Stats().BytesCopied)
	}
}

func TestBenchmarksListing(t *testing.T) {
	names := Benchmarks()
	if len(names) != 11 {
		t.Fatalf("expected 11 benchmarks, got %d", len(names))
	}
	for _, n := range names {
		info, err := Describe(n)
		if err != nil {
			t.Fatal(err)
		}
		if info.Description == "" || len(info.Sites) == 0 {
			t.Errorf("%s metadata incomplete", n)
		}
	}
	if _, err := Describe("bogus"); err == nil {
		t.Fatal("Describe accepted unknown benchmark")
	}
}

func TestExperimentDispatch(t *testing.T) {
	var b strings.Builder
	if err := Experiment(&b, "table1", DefaultScale); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Knuth-Bendix") {
		t.Fatal("table1 output incomplete")
	}
	if err := Experiment(&b, "nope", DefaultScale); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(Experiments()) < 10 {
		t.Fatal("experiment list too short")
	}
}

func TestWriteProfileOutput(t *testing.T) {
	var b strings.Builder
	if err := WriteProfile(&b, "Nqueen", Scale{Repeat: 0.001}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "heap profile end") {
		t.Fatal("profile output malformed")
	}
}

func TestTryCatchExposedViaMutator(t *testing.T) {
	r := NewRuntime(Config{})
	m := r.Mutator()
	f := m.PtrFrame("f", 1)
	caught := false
	m.Call(f, func() {
		m.TryCatch(func() {
			m.Call(f, func() {
				m.Call(f, func() {
					m.Raise()
				})
			})
		}, func() {
			caught = true
		})
	})
	if !caught {
		t.Fatal("exception not caught")
	}
}

func TestAgingConfigThroughFacade(t *testing.T) {
	base := NewRuntime(Config{NurseryWords: 2048})
	cb, err := base.RunBenchmark("Nqueen", Scale{Repeat: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	aging := NewRuntime(Config{NurseryWords: 2048, AgingMinors: 3})
	ca, err := aging.RunBenchmark("Nqueen", Scale{Repeat: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	if cb != ca {
		t.Fatal("aging changed the computation")
	}
	if aging.CollectorName() != "generational+aging3" {
		t.Fatalf("collector name = %q", aging.CollectorName())
	}
	// Aging copies more (tenured-bound data copied repeatedly) — the very
	// effect §7.2 says pretenuring fixes.
	if aging.Stats().BytesCopied <= base.Stats().BytesCopied {
		t.Fatalf("aging did not increase copying: %d vs %d",
			aging.Stats().BytesCopied, base.Stats().BytesCopied)
	}
}

func TestExperimentAgingListed(t *testing.T) {
	found := false
	for _, e := range Experiments() {
		if e == "aging" {
			found = true
		}
	}
	if !found {
		t.Fatal("aging experiment not listed")
	}
}

func TestTimeAccessorsAndCollect(t *testing.T) {
	r := NewRuntime(Config{Collector: GenerationalMarkers, NurseryWords: 512})
	m := r.Mutator()
	f := m.PtrFrame("f", 1)
	m.Call(f, func() {
		for i := uint64(0); i < 500; i++ {
			m.ConsInt(1, i, 1, 1)
		}
	})
	r.Collect(true)
	if r.GCSeconds() <= 0 {
		t.Fatal("no GC time")
	}
	if d := r.GCStackSeconds() + r.GCCopySeconds() - r.GCSeconds(); d > 1e-12 || d < -1e-12 {
		t.Fatalf("stack+copy != total GC time (delta %g)", d)
	}
	opts := DefaultReportOptions("x")
	if opts.CutoffPct != 80 || opts.Title != "x" {
		t.Fatalf("DefaultReportOptions = %+v", opts)
	}
}

func TestExperimentOptsParallelIdentical(t *testing.T) {
	scale := Scale{Repeat: 0.002, Depth: 0.3}
	var serial, parallel strings.Builder
	if err := ExperimentOpts(&serial, "elide", scale, RunOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	events := 0
	opts := RunOptions{Parallelism: 4, Events: func(e RunEvent) { events++ }}
	if err := ExperimentOpts(&parallel, "elide", scale, opts); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel output differs from serial:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
	if events == 0 {
		t.Fatal("progress hook never fired")
	}
}

func TestExperimentDispatchAllNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	scale := Scale{Repeat: 0.001, Depth: 0.15}
	for _, name := range Experiments() {
		if name == "table3" || name == "table4" || name == "table7" {
			continue // full 11-benchmark k-sweeps; covered by the harness tests
		}
		var b strings.Builder
		if err := Experiment(&b, name, scale); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

// TestSmallBudgetOverrunsAreCounted pins the honest overrun count: with a
// 4096-word budget Nqueen's live set (tens of thousands of words) cannot
// fit the budget share of any collector, so each must report sizing a
// space past it. The default 65536-word nursery alone exceeds this
// budget, which once wrapped the generational tenured cap to unbounded.
func TestSmallBudgetOverrunsAreCounted(t *testing.T) {
	scale := Scale{Repeat: 0.01, Depth: 0.5}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"generational", Config{BudgetWords: 4096}},
		{"generational+marksweep", Config{BudgetWords: 4096, OldCollector: OldMarkSweep}},
		{"semispace", Config{BudgetWords: 4096, Collector: Semispace}},
	}
	for _, c := range cfgs {
		name, cfg := c.name, c.cfg
		r := NewRuntime(cfg)
		if _, err := r.RunBenchmark("Nqueen", scale); err != nil {
			t.Fatal(err)
		}
		s := r.Stats()
		if s.MaxLiveBytes/8 <= cfg.BudgetWords {
			t.Fatalf("%s: max live %d words fits the budget; the pin is vacuous", name, s.MaxLiveBytes/8)
		}
		if s.EmergencyGrows == 0 {
			t.Errorf("%s: max live %d words over a %d-word budget, but EmergencyGrows = 0",
				name, s.MaxLiveBytes/8, cfg.BudgetWords)
		}
	}
}

// TestSingleThreadRuntimeHasThreadZero: a default runtime is a thread set
// of one, so switching to thread 0 works and any other id is rejected by
// the thread set rather than dereferencing a missing one.
func TestSingleThreadRuntimeHasThreadZero(t *testing.T) {
	m := NewRuntime(Config{}).Mutator()
	m.SetThread(0)
	if n := m.NumThreads(); n != 1 {
		t.Fatalf("NumThreads = %d, want 1", n)
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "no thread 1 (have 1)") {
			t.Fatalf("SetThread(1) panicked with %v, want rt's no-thread error", r)
		}
	}()
	m.SetThread(1)
	t.Fatal("SetThread(1) did not panic")
}
