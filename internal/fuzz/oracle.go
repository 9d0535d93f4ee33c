package fuzz

import (
	"bytes"
	"fmt"

	"tilgc/internal/core"
	"tilgc/internal/harness"
	"tilgc/internal/sanitize"
	"tilgc/internal/trace"
)

// FailKind classifies an oracle failure.
type FailKind string

const (
	// FailCrash is a panic (in the collector, runtime, or interpreter).
	FailCrash FailKind = "crash"
	// FailSanitizer is a heap-integrity violation from internal/sanitize.
	FailSanitizer FailKind = "sanitizer"
	// FailTrace is a trace reconcile or validation error.
	FailTrace FailKind = "trace"
	// FailRunTwice is a same-config re-run that produced different
	// results (fingerprint, checksum, stats, or trace bytes).
	FailRunTwice FailKind = "run-twice"
	// FailWrapper is a sanitized+traced run that differed client-visibly
	// from a plain run of the same configuration.
	FailWrapper FailKind = "wrapper"
	// FailDivergence is a cross-config client-visible difference.
	FailDivergence FailKind = "divergence"
)

// Failure is one oracle violation, addressable by (seed, config, kind).
type Failure struct {
	Seed   uint64
	Config string
	Kind   FailKind
	Detail string
}

// String renders the failure for reports.
func (f Failure) String() string {
	return fmt.Sprintf("seed %d [%s] %s: %s", f.Seed, f.Config, f.Kind, f.Detail)
}

// runOutput carries everything one execution exposes to the oracles.
type runOutput struct {
	fp       uint64
	checksum uint64
	stats    core.GCStats
	traceRaw []byte
	sanViol  []string
	panicked any   // recovered panic value, nil when clean
	traceErr error // VerifyReconciled / Validate error
}

// execute runs the program once under cfg. traced attaches the
// recorder (and captures trace JSONL bytes); sanitized wraps the
// collector with every invariant pass after every collection,
// collecting violations instead of panicking.
func execute(p *Program, cfg Config, traced, sanitized bool) (out runOutput) {
	defer func() {
		if r := recover(); r != nil {
			out.panicked = r
		}
	}()

	spec := cfg.spec(p)
	spec.Trace = traced
	if sanitized {
		spec.Sanitize = &sanitize.Options{
			OnViolation: func(vs []sanitize.Violation) {
				for _, v := range vs {
					out.sanViol = append(out.sanViol, v.String())
				}
			},
		}
	}
	r, err := harness.Build(spec)
	if err != nil {
		out.panicked = err // an invalid matrix entry fails like a crash
		return out
	}
	in := newInterp(r.Col, r.Stack, r.Table, r.Meter, r.Threads)
	in.run(p)

	err = r.Finish()
	out.fp = fingerprint(r.Col, rootStacks(r.Threads))
	out.checksum = in.checksum
	out.stats = *r.Col.Stats()
	if err != nil {
		out.traceErr = err
		return out
	}
	if rec := r.Rec; rec != nil {
		f := trace.NewFile(rec.Data(cfg.Name))
		var buf bytes.Buffer
		if err := f.WriteJSONL(&buf); err != nil {
			out.traceErr = err
			return out
		}
		if err := f.Validate(); err != nil {
			out.traceErr = err
			return out
		}
		out.traceRaw = buf.Bytes()
	}
	return out
}

// checkConfig runs every per-config oracle for one matrix entry and
// returns (failures, primary output). The primary output is only
// meaningful when the run did not crash.
func checkConfig(p *Program, cfg Config) ([]Failure, runOutput) {
	fail := func(kind FailKind, format string, args ...any) Failure {
		return Failure{Seed: p.Seed, Config: cfg.Name, Kind: kind,
			Detail: fmt.Sprintf(format, args...)}
	}
	var fails []Failure

	out := execute(p, cfg, true, true)
	if out.panicked != nil {
		return append(fails, fail(FailCrash, "%v", out.panicked)), out
	}
	if len(out.sanViol) > 0 {
		f := fail(FailSanitizer, "%d violation(s): %s", len(out.sanViol), out.sanViol[0])
		fails = append(fails, f)
	}
	if out.traceErr != nil {
		fails = append(fails, fail(FailTrace, "%v", out.traceErr))
	}

	// Run-twice byte-identity under the identical configuration.
	out2 := execute(p, cfg, true, true)
	switch {
	case out2.panicked != nil:
		fails = append(fails, fail(FailRunTwice, "second run panicked: %v", out2.panicked))
	case out2.fp != out.fp:
		fails = append(fails, fail(FailRunTwice, "fingerprint %s vs %s", fmtHash(out.fp), fmtHash(out2.fp)))
	case out2.checksum != out.checksum:
		fails = append(fails, fail(FailRunTwice, "checksum %s vs %s", fmtHash(out.checksum), fmtHash(out2.checksum)))
	case out2.stats != out.stats:
		fails = append(fails, fail(FailRunTwice, "GC stats differ: %+v vs %+v", out.stats, out2.stats))
	case !bytes.Equal(out2.traceRaw, out.traceRaw):
		fails = append(fails, fail(FailRunTwice, "trace JSONL bytes differ"))
	}

	// Wrapper transparency: sanitizer + recorder must not perturb the
	// client-visible outcome.
	plain := execute(p, cfg, false, false)
	switch {
	case plain.panicked != nil:
		fails = append(fails, fail(FailWrapper, "plain run panicked: %v", plain.panicked))
	case plain.fp != out.fp:
		fails = append(fails, fail(FailWrapper, "plain fingerprint %s vs wrapped %s", fmtHash(plain.fp), fmtHash(out.fp)))
	case plain.checksum != out.checksum:
		fails = append(fails, fail(FailWrapper, "plain checksum %s vs wrapped %s", fmtHash(plain.checksum), fmtHash(out.checksum)))
	}

	return fails, out
}

// CheckProgram runs the program across cfgs (nil means the standard
// Matrix) and returns every oracle failure. The first configuration is
// the cross-config baseline.
func CheckProgram(p *Program, cfgs []Config) []Failure {
	if cfgs == nil {
		cfgs = Matrix()
	}
	var fails []Failure
	haveBase := false
	var baseOut runOutput
	var baseName string
	for _, cfg := range cfgs {
		cfgFails, out := checkConfig(p, cfg)
		fails = append(fails, cfgFails...)
		crashed := false
		for _, f := range cfgFails {
			if f.Kind == FailCrash {
				crashed = true
			}
		}
		if crashed {
			continue
		}
		if !haveBase {
			haveBase, baseOut, baseName = true, out, cfg.Name
			continue
		}
		if out.fp != baseOut.fp {
			fails = append(fails, Failure{Seed: p.Seed, Config: cfg.Name, Kind: FailDivergence,
				Detail: fmt.Sprintf("fingerprint %s, baseline %s has %s",
					fmtHash(out.fp), baseName, fmtHash(baseOut.fp))})
		} else if out.checksum != baseOut.checksum {
			fails = append(fails, Failure{Seed: p.Seed, Config: cfg.Name, Kind: FailDivergence,
				Detail: fmt.Sprintf("checksum %s, baseline %s has %s",
					fmtHash(out.checksum), baseName, fmtHash(baseOut.checksum))})
		}
	}
	return fails
}

// SeedResult summarizes one seed's differential check.
type SeedResult struct {
	Seed     uint64
	Profile  Profile
	FP       uint64 // baseline-config fingerprint
	Checksum uint64 // baseline-config client checksum
	Failures []Failure
}

// CheckSeed generates the seed's program and checks it across the
// standard matrix, also capturing the baseline outputs so a later
// reference-kernel pass can compare against them.
func CheckSeed(seed uint64) SeedResult {
	p := Generate(seed)
	res := SeedResult{Seed: seed, Profile: ProfileOf(seed)}
	cfgs := Matrix()
	res.Failures = CheckProgram(p, cfgs)
	base := execute(p, cfgs[0], false, false)
	if base.panicked == nil {
		res.FP = base.fp
		res.Checksum = base.checksum
	}
	return res
}

// CheckRefKernels re-runs the seed's program under cfg with whatever
// kernel implementation is globally selected (see
// core.SetReferenceKernels) and compares the client-visible outcome
// against the expected baseline values. The caller owns the global
// kernel flip; this function just runs and compares.
func CheckRefKernels(seed uint64, cfg Config, wantFP, wantSum uint64) []Failure {
	p := Generate(seed)
	out := execute(p, cfg, false, false)
	name := cfg.Name + "+refkernels"
	switch {
	case out.panicked != nil:
		return []Failure{{Seed: seed, Config: name, Kind: FailCrash,
			Detail: fmt.Sprintf("%v", out.panicked)}}
	case out.fp != wantFP:
		return []Failure{{Seed: seed, Config: name, Kind: FailDivergence,
			Detail: fmt.Sprintf("fingerprint %s, opt kernels had %s", fmtHash(out.fp), fmtHash(wantFP))}}
	case out.checksum != wantSum:
		return []Failure{{Seed: seed, Config: name, Kind: FailDivergence,
			Detail: fmt.Sprintf("checksum %s, opt kernels had %s", fmtHash(out.checksum), fmtHash(wantSum))}}
	}
	return nil
}
