// Package sanitize is the heap-integrity sanitizer: a set of invariant
// passes that independently re-derive what the collectors claim about the
// heap and report any disagreement. The passes mirror the correctness
// arguments the paper's design rests on — no from-space survivors after
// evacuation, remembered-set completeness for old-to-young edges (§2.1,
// §4), stack-marker/frame consistency (§5), and pretenured-region
// soundness (§6, §7.2) — plus structural header checks and cost-meter
// reconciliation.
//
// Use Check for an on-demand scan of any inspectable collector, or Wrap to
// decorate a collector so the passes run automatically after every
// collection (see gcbench -sanitize and harness.RunConfig.Sanitize).
// The sanitizer only reads collector state; a wrapped run produces
// bit-for-bit the same tables as an unwrapped one.
package sanitize

import (
	"fmt"
	"strings"

	"tilgc/internal/core"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

// Violation reports one invariant breach with enough context to locate it.
type Violation struct {
	// Pass names the invariant pass that fired (see PassNames).
	Pass string
	// Addr is the offending object or field address (Nil when the
	// violation is not tied to a heap location).
	Addr mem.Addr
	// Site is the allocation site of the object involved, when known.
	Site obj.SiteID
	// Gen locates the violation: "young", "old", "los", "stack", or ""
	// for collector-global invariants.
	Gen string
	// Msg describes the breach.
	Msg string
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]", v.Pass)
	if v.Gen != "" {
		fmt.Fprintf(&b, " %s", v.Gen)
	}
	if !v.Addr.IsNil() {
		fmt.Fprintf(&b, " %v", v.Addr)
	}
	if v.Site != 0 {
		fmt.Fprintf(&b, " site=%d", v.Site)
	}
	fmt.Fprintf(&b, ": %s", v.Msg)
	return b.String()
}

// passes lists every invariant pass in execution order.
var passes = []struct {
	name string
	run  func(*checker)
}{
	{"headers", (*checker).checkHeaders},
	{"fromspace", (*checker).checkFromspace},
	{"remembered", (*checker).checkRemembered},
	{"markers", (*checker).checkMarkers},
	{"pretenure", (*checker).checkPretenure},
	{"oldbitmap", (*checker).checkOldBitmap},
	{"freelist", (*checker).checkOldFreeList},
	{"costs", (*checker).checkCosts},
	{"workers", (*checker).checkWorkers},
}

// PassNames returns the names of all invariant passes, in execution order.
func PassNames() []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.name
	}
	return names
}

// Check runs every invariant pass against the collector's current state
// and returns the violations found (nil when the heap is clean). The
// collector must be between collections. Wrapped collectors are unwrapped
// first.
func Check(c core.Collector) []Violation {
	return CheckPasses(c, nil)
}

// CheckPasses runs the named invariant passes (nil or empty means all).
// Unknown pass names are themselves reported as violations, so a typo in a
// pass list cannot silently disable checking.
func CheckPasses(c core.Collector, names []string) []Violation {
	if w, ok := c.(*Wrapper); ok {
		c = w.Unwrap()
	}
	insp, ok := c.(core.Inspectable)
	if !ok {
		return []Violation{{Pass: "inspect",
			Msg: fmt.Sprintf("collector %T does not support inspection", c)}}
	}
	ck := newChecker(insp.Inspect())
	if len(names) == 0 {
		for _, p := range passes {
			p.run(ck)
		}
		return ck.violations
	}
	for _, name := range names {
		found := false
		for _, p := range passes {
			if p.name == name {
				p.run(ck)
				found = true
				break
			}
		}
		if !found {
			ck.violations = append(ck.violations, Violation{
				Pass: "inspect", Msg: fmt.Sprintf("unknown pass %q", name)})
		}
	}
	return ck.violations
}

// checker carries one check's state: the collector snapshot, the space
// classification as lookup sets, and the violations accumulated so far.
type checker struct {
	in         core.Inspection
	young      map[mem.SpaceID]bool
	old        map[mem.SpaceID]bool
	los        map[mem.SpaceID]bool
	violations []Violation
}

func newChecker(in core.Inspection) *checker {
	ck := &checker{
		in:    in,
		young: make(map[mem.SpaceID]bool, len(in.YoungSpaces)),
		old:   make(map[mem.SpaceID]bool, len(in.OldSpaces)),
		los:   make(map[mem.SpaceID]bool, len(in.LOSSpaces)),
	}
	for _, id := range in.YoungSpaces {
		ck.young[id] = true
	}
	for _, id := range in.OldSpaces {
		ck.old[id] = true
	}
	for _, id := range in.LOSSpaces {
		ck.los[id] = true
	}
	return ck
}

func (ck *checker) report(v Violation) {
	ck.violations = append(ck.violations, v)
}

// genOf classifies a space id for violation context.
func (ck *checker) genOf(id mem.SpaceID) string {
	switch {
	case ck.young[id]:
		return "young"
	case ck.old[id]:
		return "old"
	case ck.los[id]:
		return "los"
	}
	return ""
}

// isLive reports whether a space may legally hold live objects.
func (ck *checker) isLive(id mem.SpaceID) bool {
	return ck.young[id] || ck.old[id] || ck.los[id]
}

// eachRootStack visits every stack whose frames are live roots: the live
// threads' stacks in thread-id order. Dead (joined) threads' stacks are
// excluded — their frames no longer keep anything alive.
func (ck *checker) eachRootStack(fn func(threadID int, st *rt.Stack)) {
	for _, t := range ck.in.Threads.Threads() {
		if t.Dead() {
			continue
		}
		fn(t.ID(), t.Stack())
	}
}

// walkRange decodes the objects tiling words [start, end) of space id,
// stopping early (without reporting) at a forwarded or malformed header —
// the headers pass owns reporting those, so other passes just see the
// well-formed prefix.
func (ck *checker) walkRange(id mem.SpaceID, start, end uint64) []obj.Object {
	sp := ck.in.Heap.Space(id)
	if sp == nil {
		return nil
	}
	var out []obj.Object
	off := start
	for off < end {
		a := mem.MakeAddr(id, off)
		if obj.HeaderKind(ck.in.Heap.Load(a)) == obj.Forwarded {
			return out
		}
		o := obj.Decode(ck.in.Heap, a)
		if o.Kind == obj.Record && o.Len > obj.MaxRecordFields {
			return out
		}
		size := o.SizeWords()
		if off+size > end {
			return out
		}
		out = append(out, o)
		off += size
	}
	return out
}

// walkSpace decodes every object in a linearly-allocated space.
func (ck *checker) walkSpace(id mem.SpaceID) []obj.Object {
	sp := ck.in.Heap.Space(id)
	if sp == nil {
		return nil
	}
	return ck.walkRange(id, 1, sp.Used()+1)
}
