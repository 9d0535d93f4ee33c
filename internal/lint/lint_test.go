package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tilgc/internal/lint"
)

// fixturePatterns are the testdata packages the analyzer tests load. They
// sit under testdata/ so ./... wildcards (the CI gclint invocation, go
// build, go vet) never see them. The internal/mem, internal/obj,
// internal/costmodel, and internal/rt entries are support packages the
// analyzers match primitives in; they must stay finding-free.
var fixturePatterns = []string{
	"./testdata/src/maporder",
	"./testdata/src/internal/core",
	"./testdata/src/internal/trace",
	"./testdata/src/internal/adapt",
	"./testdata/src/internal/fuzz",
	"./testdata/src/internal/slo",
	"./testdata/src/internal/mem",
	"./testdata/src/internal/obj",
	"./testdata/src/internal/costmodel",
	"./testdata/src/internal/rt",
	"./testdata/src/cfg",
	"./testdata/src/detclient",
	"./testdata/src/gcclient",
}

// fixtureResult loads and analyzes the fixture packages exactly once for
// all tests in the file (the go list + srcimporter load dominates test
// wall time).
var fixtureResult = sync.OnceValues(func() (*lint.Result, error) {
	return lint.Run(".", fixturePatterns, lint.Default())
})

// expectation is one "// want: <substring>" annotation in a fixture.
type expectation struct {
	file string // base name
	line int
	want string
	hit  bool
}

// collectWants parses the want annotations out of a fixture file.
func collectWants(t *testing.T, path string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for i, line := range strings.Split(string(data), "\n") {
		_, after, ok := strings.Cut(line, "// want: ")
		if !ok {
			continue
		}
		wants = append(wants, &expectation{
			file: filepath.Base(path),
			line: i + 1,
			want: strings.TrimSpace(after),
		})
	}
	return wants
}

// TestAnalyzersOnFixtures runs the full pipeline — go list, parse,
// type-check, analyze, suppress — over the fixture packages and checks the
// diagnostics exactly match the "want:" annotations.
func TestAnalyzersOnFixtures(t *testing.T) {
	var wants []*expectation
	for _, pat := range fixturePatterns {
		dir := filepath.FromSlash(strings.TrimPrefix(pat, "./"))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".go") {
				wants = append(wants, collectWants(t, filepath.Join(dir, e.Name()))...)
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no want annotations found in fixtures")
	}

	res, err := fixtureResult()
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range res.Diagnostics {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line &&
				strings.Contains(d.Message, w.want) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.want)
		}
	}
}

// TestIgnoreHygiene checks that suppressions naming an unknown analyzer
// or lacking a justification are reported rather than honored, and that a
// well-formed suppression with nothing to suppress is reported as stale.
func TestIgnoreHygiene(t *testing.T) {
	res, err := lint.Run(".", []string{"./testdata/src/badignore"}, lint.Default())
	if err != nil {
		t.Fatal(err)
	}
	var malformed, stale int
	for _, d := range res.Diagnostics {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "malformed //lint:ignore"):
			malformed++
		case d.Analyzer == "lint" && strings.Contains(d.Message, "stale //lint:ignore"):
			stale++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if malformed != 2 || stale != 1 {
		t.Errorf("got %d malformed + %d stale ignore reports, want 2 + 1:\n%s",
			malformed, stale, renderAll(res.Diagnostics))
	}
}

// TestDiagnosticsSorted checks the position ordering contract on the
// combined fixture run.
func TestDiagnosticsSorted(t *testing.T) {
	res, err := fixtureResult()
	if err != nil {
		t.Fatal(err)
	}
	diags := res.Diagnostics
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		ka := fmt.Sprintf("%s:%08d:%08d:%s", a.Pos.Filename, a.Pos.Line, a.Pos.Column, a.Analyzer)
		kb := fmt.Sprintf("%s:%08d:%08d:%s", b.Pos.Filename, b.Pos.Line, b.Pos.Column, b.Analyzer)
		if ka > kb {
			t.Errorf("diagnostics out of order:\n  %s\n  %s", a, b)
		}
	}
}

// TestSuppressionInventory checks the -ignores data: the fixture run must
// report every justified suppression with the right kind and use state.
func TestSuppressionInventory(t *testing.T) {
	res, err := fixtureResult()
	if err != nil {
		t.Fatal(err)
	}
	// (file base name, kind, analyzer, used) tuples that must appear.
	wants := []struct {
		file     string
		kind     string
		analyzer string
		used     bool
	}{
		{"maporder.go", "lint:ignore", "maporder", true},
		{"policy.go", "lint:ignore", "seamcheck", true},
		{"detclient.go", "lint:ignore", "detflow", true},
		{"gc.go", "gc:nobarrier", "barriercheck", true},  // fixtureEvacuate
		{"gc.go", "gc:nobarrier", "barriercheck", false}, // tidy (stale)
		{"gc.go", "gc:nocharge", "costcharge", true},     // Grow
		{"gc.go", "gc:nocharge", "costcharge", false},    // Shrink (stale)
		{"policy.go", "gc:nobarrier", "barriercheck", true},
		{"kernels_fixture.go", "gc:nobarrier", "barriercheck", true},
		{"gcclient.go", "gc:nobarrier", "barriercheck", false},
		{"gcclient.go", "gc:nocharge", "costcharge", false},
	}
	for _, w := range wants {
		found := false
		for _, s := range res.Suppressions {
			if filepath.Base(s.Pos.Filename) == w.file && s.Kind == w.kind &&
				s.Analyzer == w.analyzer && s.Used == w.used {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("suppression inventory missing %s %s (%s, used=%v)", w.file, w.kind, w.analyzer, w.used)
		}
	}
	for i := 1; i < len(res.Suppressions); i++ {
		a, b := res.Suppressions[i-1], res.Suppressions[i]
		ka := fmt.Sprintf("%s:%08d", a.Pos.Filename, a.Pos.Line)
		kb := fmt.Sprintf("%s:%08d", b.Pos.Filename, b.Pos.Line)
		if ka > kb {
			t.Errorf("suppressions out of order:\n  %s\n  %s", a, b)
		}
	}
}

// TestInjections loads one deliberately broken package per new analyzer
// and asserts that exactly that analyzer fires — a mutation test for the
// checkers themselves, so a refactor cannot quietly blunt one of them.
func TestInjections(t *testing.T) {
	cases := []struct {
		pattern  string
		analyzer string
	}{
		{"./testdata/src/inject_barrier", "barriercheck"},
		{"./testdata/src/inject_charge/internal/core", "costcharge"},
		{"./testdata/src/inject_seam/internal/core", "seamcheck"},
		{"./testdata/src/inject_detflow", "detflow"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			res, err := lint.Run(".", []string{tc.pattern}, lint.Default())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Diagnostics) == 0 {
				t.Fatalf("injected defect in %s produced no findings", tc.pattern)
			}
			for _, d := range res.Diagnostics {
				if d.Analyzer != tc.analyzer {
					t.Errorf("injected defect tripped %s, want only %s: %s", d.Analyzer, tc.analyzer, d)
				}
			}
		})
	}
}

// moduleResult loads and analyzes the whole module once for the module
// tests below.
var moduleResult = sync.OnceValues(func() (*moduleRun, error) {
	pkgs, err := lint.Load(".", []string{"tilgc/..."})
	if err != nil {
		return nil, err
	}
	return &moduleRun{pkgs: pkgs, res: lint.Analyze(pkgs, lint.Default())}, nil
})

type moduleRun struct {
	pkgs []*lint.Package
	res  *lint.Result
}

// TestModuleIsClean is the acceptance gate in test form: the real module
// must produce zero gclint findings. Skipped with -short because it
// type-checks the whole module.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint run")
	}
	m, err := moduleResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.res.Diagnostics) != 0 {
		t.Errorf("gclint findings on the module:\n%s", renderAll(m.res.Diagnostics))
	}
}

// TestScannedPackageSet pins the analyzer scope: the packages the paper's
// determinism and accounting invariants live in must be in the module
// sweep, so a build-layout change cannot silently drop one from CI.
func TestScannedPackageSet(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint run")
	}
	m, err := moduleResult()
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, p := range m.pkgs {
		if p.Target {
			targets[p.Path] = true
		}
	}
	for _, path := range []string{
		"tilgc/internal/core", "tilgc/internal/rt", "tilgc/internal/mem",
		"tilgc/internal/obj", "tilgc/internal/costmodel", "tilgc/internal/prof",
		"tilgc/internal/trace", "tilgc/internal/jsonl", "tilgc/internal/adapt", "tilgc/internal/fuzz",
		"tilgc/internal/slo", "tilgc/internal/harness", "tilgc/internal/sanitize",
		"tilgc/internal/lint",
		"tilgc/cmd/gcbench", "tilgc/cmd/gclint", "tilgc/gcsim",
	} {
		if !targets[path] {
			t.Errorf("module sweep no longer covers %s", path)
		}
	}
	for path := range targets {
		if strings.Contains(path, "testdata") {
			t.Errorf("module sweep leaked into testdata: %s", path)
		}
	}
}

// TestFenceCoverage checks every declared fence suffix still matches at
// least one real module package — a rename would otherwise silently
// shrink the determinism fence.
func TestFenceCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint run")
	}
	m, err := moduleResult()
	if err != nil {
		t.Fatal(err)
	}
	fences := lint.FencePackages()
	for _, want := range []string{"internal/adapt", "internal/trace", "internal/jsonl", "internal/fuzz", "internal/slo"} {
		found := false
		for _, f := range fences {
			if f == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fence list no longer includes %s", want)
		}
	}
	for _, suffix := range fences {
		matched := false
		for _, p := range m.pkgs {
			if p.Target && (p.Path == suffix || strings.HasSuffix(p.Path, "/"+suffix)) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("fence suffix %q matches no module package", suffix)
		}
	}
}

func renderAll(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
