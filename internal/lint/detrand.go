package lint

import (
	"go/ast"
	"strings"
)

// detPackages are the package-path suffixes where the simulation must be
// fully deterministic: the collector core and everything it depends on.
// The harness and workload layers sit outside the fence — the harness
// legitimately reads GOMAXPROCS for its worker pool, and that choice
// cannot leak into results (RunAll assembles in input order).
var detPackages = []string{
	"internal/core",
	"internal/rt",
	"internal/mem",
	"internal/obj",
	"internal/costmodel",
	"internal/prof",
	// The trace layer's whole contract is byte-identical output: every
	// timestamp is a costmodel cycle count, so a wall-clock or scheduler
	// read here would corrupt trace determinism silently.
	"internal/trace",
	// The JSONL framing shared by the trace, SLO and advisor-store
	// readers: a parse must depend on the input bytes alone.
	"internal/jsonl",
	// The adaptive advisor's promotion/demotion decisions feed back into
	// allocation placement, so any nondeterminism here changes heap layout,
	// GC counts, and the cross-run profile store.
	"internal/adapt",
	// The differential fuzzer's whole value is replayability: a seed must
	// regenerate the exact program and the exact failure, and serial and
	// parallel sweeps must render byte-identical reports. Host randomness
	// or clock reads in the generator, interpreter, or driver would turn
	// every reported seed into an unreplayable one-off.
	"internal/fuzz",
	// The SLO layer is a pure function of a frozen trace: percentiles,
	// MMU/AMU curves, and report bytes must be identical across runs,
	// machines, and parallelism levels. A clock read here would smuggle
	// wall time into a report whose schema promises simulated cycles only.
	"internal/slo",
}

// detrandBanned maps package path -> banned member names. An empty set
// bans the import entirely.
var detrandBanned = map[string]map[string]bool{
	"math/rand":    nil,
	"math/rand/v2": nil,
	"runtime":      {"GOMAXPROCS": true, "NumCPU": true},
	"time":         {"Now": true, "Since": true, "Until": true},
}

// Detrand flags nondeterminism sources inside the deterministic core of
// the simulator: unseeded randomness, wall-clock reads, and
// scheduler-dependent values. Every quantity the core reports must be a
// pure function of the workload and configuration — simulated time comes
// from the cost model (costmodel.Cycles), never from the host clock.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc:  "bans randomness, wall-clock, and scheduler reads in deterministic packages",
	Run:  runDetrand,
}

func runDetrand(pass *Pass) {
	if !inDetFence(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if members, banned := detrandBanned[path]; banned && members == nil {
				pass.Reportf(imp.Pos(), "import of %s in deterministic package %s: results must not depend on randomness", path, pass.Pkg.Path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, member, ok := resolvePkgMember(pass, sel)
			if !ok {
				return true
			}
			if members := detrandBanned[pkgPath]; members != nil && members[member] {
				pass.Reportf(sel.Pos(), "%s.%s in deterministic package %s: simulated results must not depend on the host clock or scheduler",
					pathBase(pkgPath), member, pass.Pkg.Path)
			}
			return true
		})
	}
}

// inDetFence reports whether path is one of the deterministic packages.
func inDetFence(path string) bool {
	for _, suffix := range detPackages {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// resolvePkgMember resolves pkg.Member selector expressions via type info,
// so aliased imports and shadowed identifiers are handled correctly.
func resolvePkgMember(pass *Pass, sel *ast.SelectorExpr) (pkgPath, member string, ok bool) {
	obj := pass.Pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	// Only package-level selections (time.Now), not field/method accesses.
	if _, isSelection := pass.Pkg.Info.Selections[sel]; isSelection {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
