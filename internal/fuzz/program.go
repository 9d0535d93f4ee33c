// Package fuzz is the differential fuzzing fleet: a deterministic,
// seedable generator of mutator programs that are executed across the
// full collector matrix (semispace, generational ±markers, ±cards,
// ±aging, ±pretenure, ±adapt, opt vs reference kernels, ±sanitize) and
// checked against a set of client-observational oracles:
//
//   - cross-config equivalence: the client-visible heap (reachable
//     object graph shapes, raw field values, aux bytes) and the running
//     client checksum are identical under every collector configuration;
//   - run-twice byte-identity: re-running the same program under the
//     same configuration reproduces the fingerprint, the checksum, the
//     GC statistics, and the trace JSONL bytes exactly;
//   - sanitizer-clean: every invariant pass of internal/sanitize holds
//     after every collection;
//   - trace soundness: the recorder reconciles against the cost meter
//     and the emitted trace file validates;
//   - wrapper transparency: a sanitized+traced run is client-identical
//     to a plain run.
//
// Programs are pure functions of a 64-bit seed (splitmix64; the package
// sits inside the gclint detrand fence, so math/rand and wall-clock are
// banned), which makes every failure a one-word reproducer. A ddmin
// shrinker reduces failing programs, and minimized reproducers live in
// corpus/ where they replay as ordinary go test cases.
package fuzz

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"tilgc/internal/obj"
)

// Interpreter limits. These are part of the program semantics: changing
// them changes what committed corpus programs do, so they are fixed.
const (
	// NumRoots is the number of pointer slots per fuzz frame (slots
	// 1..NumRoots; slot 0 is the return key).
	NumRoots = 8
	// MaxRecordLen bounds record arity in generated programs.
	MaxRecordLen = 6
	// MaxArrayLen bounds array lengths. It deliberately straddles the
	// matrix's LOS threshold (LargeObjectWords, 64 words) so the same
	// program exercises both small-array and LOS paths.
	MaxArrayLen = 120
	// MaxCallDepth bounds the simulated call depth.
	MaxCallDepth = 40
	// NumSites is the number of allocation sites programs draw from
	// (sites 1..NumSites). The pretenuring matrix entries pretenure a
	// fixed subset of them.
	NumSites = 6
	// MaxWalkSteps bounds an OpWalk traversal.
	MaxWalkSteps = 64
	// MaxThreads bounds the simulated thread set a program may spawn
	// (thread 0, the primary, counts toward the cap).
	MaxThreads = 8
)

// OpKind enumerates the operations of the fuzz program machine.
type OpKind uint8

const (
	// OpAllocRecord allocates a record: dst root A, site from B, arity
	// from C, pointer mask and field initialization derived from V.
	OpAllocRecord OpKind = iota
	// OpAllocPtrArray allocates an all-pointer array into root A (site
	// B, length from C); elements are initialized from the roots.
	OpAllocPtrArray
	// OpAllocRawArray allocates an untraced array into root A (site B,
	// length from C); elements are initialized from V.
	OpAllocRawArray
	// OpStorePtr stores root C into a pointer field (from B) of the
	// object in root A, through the write barrier.
	OpStorePtr
	// OpStoreInt stores a value derived from V into a non-pointer field
	// (from B) of the object in root A.
	OpStoreInt
	// OpLoadPtr loads a pointer field (from B) of the object in root A
	// into root C, folding the loaded pointer's nil-ness into the
	// checksum.
	OpLoadPtr
	// OpLoadInt loads a non-pointer field (from B) of the object in
	// root A and folds the value into the checksum.
	OpLoadInt
	// OpDrop clears root A.
	OpDrop
	// OpDup copies root A into root B.
	OpDup
	// OpCollect forces a collection (major when V is odd).
	OpCollect
	// OpCall pushes a new frame, passing every root along.
	OpCall
	// OpReturn pops the current frame, passing root A back to the
	// caller's root B (no-op in the base frame).
	OpReturn
	// OpPushHandler installs an exception handler on the current frame.
	OpPushHandler
	// OpRaise raises to the most recent handler (no-op without one).
	OpRaise
	// OpSetAux writes aux byte V to the object in root A.
	OpSetAux
	// OpGetAux folds the aux byte of the object in root A into the
	// checksum.
	OpGetAux
	// OpWalk walks the pointer chain from root A (first pointer field,
	// bounded by MaxWalkSteps), folding shapes and length into the
	// checksum.
	OpWalk
	// OpWork charges abstract mutator computation derived from V.
	OpWork
	// OpSpawn spawns a new mutator thread (no-op at the MaxThreads cap),
	// seeding its base frame with the current thread's roots. The new
	// thread is not made current.
	OpSpawn
	// OpSwitch switches execution to thread A mod the threads ever
	// created (no-op when the target is dead or already current).
	OpSwitch
	// OpJoin joins thread A mod the threads ever created (no-op on the
	// primary thread, the current thread, or an already-dead thread). A
	// joined thread's stack stops being a root source; its barrier state
	// still drains at the next collection.
	OpJoin

	numOpKinds
)

// opNames maps each OpKind to its corpus-file spelling.
var opNames = [numOpKinds]string{
	"alloc-record", "alloc-ptrarray", "alloc-rawarray",
	"store-ptr", "store-int", "load-ptr", "load-int",
	"drop", "dup", "collect",
	"call", "return", "push-handler", "raise",
	"set-aux", "get-aux", "walk", "work",
	"spawn", "switch", "join",
}

// String returns the corpus-file spelling of the op kind.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one instruction. Every op is total: operands out of range are
// reduced modulo the relevant limit, and ops that need a live object
// are no-ops when their root is nil. Semantics depend only on
// collector-independent state (nil-ness, object kind/arity/mask), never
// on address values, so a program behaves identically under every
// configuration.
type Op struct {
	Kind    OpKind
	A, B, C uint16
	V       uint64
}

// Program is a deterministic mutator program. Seed records the
// generator seed it came from (zero for hand-written programs).
type Program struct {
	Seed uint64
	Ops  []Op
}

// recordLen returns the record arity encoded by an alloc-record op.
func (o Op) recordLen() uint64 { return uint64(o.C) % (MaxRecordLen + 1) }

// arrayLen returns the array length encoded by an array alloc op.
func (o Op) arrayLen() uint64 { return 1 + uint64(o.C)%MaxArrayLen }

// site returns the allocation site encoded by an alloc op.
func (o Op) site() obj.SiteID { return obj.SiteID(1 + o.B%NumSites) }

// root reduces a raw operand to a root slot index (1..NumRoots).
func root(x uint16) int { return 1 + int(x)%NumRoots }

// HasThreadOps reports whether the program ever touches the thread
// machine (spawns, switches or joins).
func (p *Program) HasThreadOps() bool {
	for _, op := range p.Ops {
		switch op.Kind {
		case OpSpawn, OpSwitch, OpJoin:
			return true
		}
	}
	return false
}

// AllocWords returns the total words (headers included) the program
// allocates, an upper bound on its live data used to size matrix
// budgets.
func (p *Program) AllocWords() uint64 {
	var total uint64
	for _, op := range p.Ops {
		switch op.Kind {
		case OpAllocRecord:
			total += obj.SizeWords(obj.Record, op.recordLen())
		case OpAllocPtrArray:
			total += obj.SizeWords(obj.PtrArray, op.arrayLen())
		case OpAllocRawArray:
			total += obj.SizeWords(obj.RawArray, op.arrayLen())
		}
	}
	return total
}

// ---- Corpus text format -----------------------------------------------------

// formatHeader is the first line of every corpus file.
const formatHeader = "tilgc-fuzz-program v1"

// Format renders the program in the corpus text format: a header line,
// a seed line, then one op per line as "kind A B C V". Lines beginning
// with '#' are comments.
func (p *Program) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", formatHeader)
	fmt.Fprintf(&b, "seed %d\n", p.Seed)
	for _, op := range p.Ops {
		fmt.Fprintf(&b, "%s %d %d %d %d\n", op.Kind, op.A, op.B, op.C, op.V)
	}
	return b.String()
}

// Parse reads a program in the corpus text format.
func Parse(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	sawHeader := false
	p := &Program{}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !sawHeader {
			if text != formatHeader {
				return nil, fmt.Errorf("fuzz: line %d: want header %q, got %q", line, formatHeader, text)
			}
			sawHeader = true
			continue
		}
		fields := strings.Fields(text)
		if fields[0] == "seed" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("fuzz: line %d: malformed seed line", line)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &p.Seed); err != nil {
				return nil, fmt.Errorf("fuzz: line %d: bad seed: %v", line, err)
			}
			continue
		}
		if len(fields) != 5 {
			return nil, fmt.Errorf("fuzz: line %d: want 'kind A B C V', got %q", line, text)
		}
		kind, ok := opKindByName(fields[0])
		if !ok {
			return nil, fmt.Errorf("fuzz: line %d: unknown op %q", line, fields[0])
		}
		var a, b, c uint16
		var v uint64
		if _, err := fmt.Sscanf(fields[1]+" "+fields[2]+" "+fields[3]+" "+fields[4],
			"%d %d %d %d", &a, &b, &c, &v); err != nil {
			return nil, fmt.Errorf("fuzz: line %d: bad operands: %v", line, err)
		}
		p.Ops = append(p.Ops, Op{Kind: kind, A: a, B: b, C: c, V: v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fuzz: %v", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("fuzz: missing %q header", formatHeader)
	}
	return p, nil
}

// ParseString parses a program from a corpus-format string.
func ParseString(s string) (*Program, error) {
	return Parse(strings.NewReader(s))
}

// opKindByName resolves a corpus-file op spelling.
func opKindByName(name string) (OpKind, bool) {
	for i, n := range opNames {
		if n == name {
			return OpKind(i), true
		}
	}
	return 0, false
}
