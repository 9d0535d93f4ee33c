package prof

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

func TestSiteStatsMath(t *testing.T) {
	s := SiteStats{AllocBytes: 1000, AllocCount: 10, CopiedBytes: 500,
		SurvivedFirst: 4, Deaths: 5, SumDeathAgeKB: 50}
	if s.OldPct() != 40 {
		t.Errorf("OldPct = %g", s.OldPct())
	}
	if s.AvgAgeKB() != 10 {
		t.Errorf("AvgAgeKB = %g", s.AvgAgeKB())
	}
	if s.CopyRatio() != 0.5 {
		t.Errorf("CopyRatio = %g", s.CopyRatio())
	}
	var zero SiteStats
	if zero.OldPct() != 0 || zero.AvgAgeKB() != 0 || zero.CopyRatio() != 0 {
		t.Error("zero-stats accessors must return 0")
	}
}

func TestProfilerAllocMoveDeath(t *testing.T) {
	p := New(nil)
	a := mem.MakeAddr(1, 10)
	b := mem.MakeAddr(1, 20)
	p.OnAlloc(a, 5, obj.Record, 4, false) // 32 bytes
	p.OnAlloc(b, 5, obj.Record, 2, false) // 16 bytes
	p.OnMove(a, mem.MakeAddr(2, 1))       // a survives, copied
	p.OnSpaceCondemned(1)                 // b dies
	p.OnGCEnd()

	s := p.sites[5]
	if s.AllocBytes != 48 || s.AllocCount != 2 {
		t.Fatalf("alloc stats: %+v", s)
	}
	if s.CopiedBytes != 32 || s.SurvivedFirst != 1 {
		t.Fatalf("copy stats: %+v", s)
	}
	if s.Deaths != 1 {
		t.Fatalf("death stats: %+v", s)
	}
	if s.OldPct() != 50 {
		t.Fatalf("OldPct = %g", s.OldPct())
	}

	// Second move of the same object: more copying, but SurvivedFirst
	// stays (first survival already counted).
	p.OnMove(mem.MakeAddr(2, 1), mem.MakeAddr(3, 1))
	p.OnGCEnd()
	if s.CopiedBytes != 64 || s.SurvivedFirst != 1 {
		t.Fatalf("second copy stats: %+v", s)
	}
}

func TestProfilerAgeAccounting(t *testing.T) {
	p := New(nil)
	a := mem.MakeAddr(1, 1)
	p.OnAlloc(a, 1, obj.Record, 128, false) // 1KB; clock now 1KB
	// 9KB more allocation from another site.
	p.OnAlloc(mem.MakeAddr(1, 200), 2, obj.RawArray, 128*9, false)
	p.OnSpaceCondemned(1) // both die; a's age = 9KB, other's age = 0
	s := p.sites[1]
	if s.Deaths != 1 || s.AvgAgeKB() != 9 {
		t.Fatalf("age: deaths=%d avg=%g", s.Deaths, s.AvgAgeKB())
	}
	if p.sites[2].AvgAgeKB() != 0 {
		t.Fatalf("fresh object age = %g", p.sites[2].AvgAgeKB())
	}
}

func TestProfilerFinalize(t *testing.T) {
	p := New(nil)
	p.OnAlloc(mem.MakeAddr(1, 1), 1, obj.Record, 10, false)
	p.Finalize()
	if p.sites[1].Deaths != 1 {
		t.Fatal("finalize did not record survivor death")
	}
	// Idempotent.
	p.Finalize()
	if p.sites[1].Deaths != 1 {
		t.Fatal("finalize double-counted")
	}
}

func TestPolicyCutoff(t *testing.T) {
	p := New(nil)
	// Site 1: 10 objects, all survive. Site 2: 10 objects, none survive.
	// Site 3: only 2 objects (below min), all survive.
	for i := 0; i < 10; i++ {
		a := mem.MakeAddr(1, uint64(1+i*10))
		p.OnAlloc(a, 1, obj.Record, 2, false)
		p.OnMove(a, mem.MakeAddr(2, uint64(1+i*10)))
		p.OnGCEnd()
	}
	for i := 0; i < 10; i++ {
		p.OnAlloc(mem.MakeAddr(3, uint64(1+i*10)), 2, obj.Record, 2, false)
	}
	p.OnSpaceCondemned(3)
	for i := 0; i < 2; i++ {
		a := mem.MakeAddr(4, uint64(1+i*10))
		p.OnAlloc(a, 3, obj.Record, 2, false)
		p.OnMove(a, mem.MakeAddr(5, uint64(1+i*10)))
		p.OnGCEnd()
	}
	pol := p.Policy(80, 5)
	if _, ok := pol.Lookup(1); !ok {
		t.Error("high-survival site not pretenured")
	}
	if _, ok := pol.Lookup(2); ok {
		t.Error("zero-survival site pretenured")
	}
	if _, ok := pol.Lookup(3); ok {
		t.Error("low-count site pretenured despite minObjects")
	}
	if pol.Len() != 1 {
		t.Errorf("policy has %d sites", pol.Len())
	}
}

func TestCutoffSummary(t *testing.T) {
	p := New(nil)
	*p.site(1) = SiteStats{Site: 1, AllocBytes: 100, AllocCount: 10,
		SurvivedFirst: 10, CopiedBytes: 900}
	*p.site(2) = SiteStats{Site: 2, AllocBytes: 900, AllocCount: 90,
		SurvivedFirst: 0, CopiedBytes: 100}
	copied, alloc := p.CutoffSummary(80)
	if copied != 90 || alloc != 10 {
		t.Fatalf("summary = %g%% copied, %g%% allocated", copied, alloc)
	}
}

func TestWriteReportFormat(t *testing.T) {
	p := New(map[obj.SiteID]string{7: "cons"})
	for i := 0; i < 100; i++ {
		a := mem.MakeAddr(1, uint64(1+i*4))
		p.OnAlloc(a, 7, obj.Record, 4, false)
		p.OnMove(a, mem.MakeAddr(2, uint64(1+i*4)))
		p.OnGCEnd()
	}
	var sb strings.Builder
	p.WriteReport(&sb, DefaultReportOptions("TestBench"))
	out := sb.String()
	for _, want := range []string{
		"TestBench", "heap profile end", "cutoff of 80%",
		"targeted sites comprise", "<--",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestProfilerDrivesPretenuringEndToEnd runs a real collector with the
// profiler attached, derives a policy, and re-runs with pretenuring: the
// long-lived site must be selected and copying must drop.
func TestProfilerDrivesPretenuringEndToEnd(t *testing.T) {
	const liveSite, dieSite = 11, 12
	run := func(prof core.Profiler, pol *core.PretenurePolicy) (*core.Generational, *Profiler) {
		table := rt.NewTraceTable()
		meter := costmodel.NewMeter()
		stack := rt.NewStack(table, meter)
		slots := []rt.SlotTrace{rt.NP(), rt.PTR()}
		fi := table.Register("root", slots, nil)
		stack.Call(fi)
		c := core.NewGenerational(stack, meter, prof, core.GenConfig{
			BudgetWords: 1 << 20, NurseryWords: 512, Pretenure: pol,
		})
		// Long-lived list from liveSite, garbage from dieSite.
		stack.SetSlot(1, uint64(mem.Nil))
		for i := 0; i < 3000; i++ {
			cell := c.Alloc(obj.Record, 2, liveSite, 0b10)
			c.InitField(cell, 1, stack.Slot(1))
			stack.SetSlot(1, uint64(cell))
			c.Alloc(obj.Record, 2, dieSite, 0)
			c.Alloc(obj.Record, 2, dieSite, 0)
		}
		c.Collect(false)
		pp, _ := prof.(*Profiler)
		return c, pp
	}

	profiler := New(nil)
	_, pp := run(profiler, nil)
	pp.Finalize()
	if pp.sites[liveSite].OldPct() < 80 {
		t.Fatalf("live site old%% = %g", pp.sites[liveSite].OldPct())
	}
	if pp.sites[dieSite].OldPct() > 20 {
		t.Fatalf("dying site old%% = %g", pp.sites[dieSite].OldPct())
	}
	pol := pp.Policy(80, 10)
	if _, ok := pol.Lookup(liveSite); !ok {
		t.Fatal("policy missed the long-lived site")
	}

	base, _ := run(nil, nil)
	pre, _ := run(nil, pol)
	if pre.Stats().BytesCopied*2 > base.Stats().BytesCopied {
		t.Fatalf("profile-driven pretenuring did not cut copying: %d vs %d",
			pre.Stats().BytesCopied, base.Stats().BytesCopied)
	}
}

func TestOnLOSDeadAndClock(t *testing.T) {
	p := New(nil)
	a := mem.MakeAddr(9, 1)
	p.OnAlloc(a, 4, obj.RawArray, 100, false)
	if p.Clock() != 800 {
		t.Fatalf("Clock = %d", p.Clock())
	}
	p.OnLOSDead(a)
	if p.sites[4].Deaths != 1 {
		t.Fatal("LOS death not recorded")
	}
	// Unknown address: no-op.
	p.OnLOSDead(mem.MakeAddr(9, 500))
	if p.sites[4].Deaths != 1 {
		t.Fatal("phantom death recorded")
	}
	// Condemning a space with no table is a no-op.
	p.OnSpaceCondemned(77)
}

func TestSitesSortedByAllocation(t *testing.T) {
	p := New(nil)
	p.OnAlloc(mem.MakeAddr(1, 1), 5, obj.Record, 10, false)
	p.OnAlloc(mem.MakeAddr(1, 50), 6, obj.Record, 100, false)
	p.OnAlloc(mem.MakeAddr(1, 200), 7, obj.Record, 100, false)
	sites := p.Sites()
	if len(sites) != 3 {
		t.Fatalf("Sites len = %d", len(sites))
	}
	if sites[0].AllocBytes < sites[1].AllocBytes {
		t.Fatal("not sorted by allocation")
	}
	// Equal allocations tie-break by site id.
	if sites[0].Site != 6 || sites[1].Site != 7 {
		t.Fatalf("tie break wrong: %d, %d", sites[0].Site, sites[1].Site)
	}
}

func TestMoveOfUntrackedObject(t *testing.T) {
	p := New(nil)
	// Moving an object the profiler never saw must be ignored.
	p.OnMove(mem.MakeAddr(1, 7), mem.MakeAddr(2, 7))
	p.OnGCEnd()
	if len(p.sites) != 0 {
		t.Fatal("phantom site created")
	}
}

// TestDeathOnlySiteInReport: a site with deaths but zero recorded
// allocations (its stats were seeded from another run, or its objects
// predate profiling) contributes 0% to the allocation and copy shares, so
// the report's percentage filter would silently drop it — yet its garbage
// is exactly what a mistrain report needs to surface. It must render,
// without dividing by zero.
func TestDeathOnlySiteInReport(t *testing.T) {
	p := New(map[obj.SiteID]string{42: "seeded sink"})
	// A normal site so the report has nonzero totals.
	for i := 0; i < 100; i++ {
		p.OnAlloc(mem.MakeAddr(1, uint64(1+i*4)), 7, obj.Record, 4, false)
	}
	// The death-only site, seeded directly as a warm-started run would.
	*p.site(42) = SiteStats{Site: 42, Name: "seeded sink", Deaths: 3, SumDeathAgeKB: 1.5}

	s := p.sites[42]
	if got := s.OldPct(); got != 0 {
		t.Errorf("OldPct = %g, want 0", got)
	}
	if got := s.CopyRatio(); got != 0 {
		t.Errorf("CopyRatio = %g, want 0", got)
	}
	if got := s.AvgAgeKB(); got != 0.5 {
		t.Errorf("AvgAgeKB = %g, want 0.5", got)
	}

	var sb strings.Builder
	p.WriteReport(&sb, DefaultReportOptions("DeathOnly"))
	out := sb.String()
	if !strings.Contains(out, "42") {
		t.Fatalf("death-only site vanished from the report:\n%s", out)
	}
	for _, bad := range []string{"NaN", "Inf", "nan", "inf"} {
		if strings.Contains(out, bad) {
			t.Fatalf("report contains %s:\n%s", bad, out)
		}
	}
}

// TestObjRecIs24Bytes pins the record size: the slab holds one record per
// live object, so a wider record is paid for on every profiled run.
func TestObjRecIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(objRec{}); n != 24 {
		t.Fatalf("objRec is %d bytes, want 24", n)
	}
}

// TestProfilerCycleDoesNotAllocate: once the slab and the space indexes
// have grown to a collector's working set, a collection cycle — nursery
// allocations, promotions into one semispace, condemning the nursery and
// the other semispace — makes no Go allocation.
func TestProfilerCycleDoesNotAllocate(t *testing.T) {
	const nursery, from, to = 1, 2, 3
	p := New(nil)
	var dead uint64
	p.SetDeathSink(func(_ obj.SiteID, bytes uint64) { dead += bytes })
	spaces := [2]mem.SpaceID{from, to}
	cycle := func() {
		for i := uint64(0); i < 256; i++ {
			p.OnAlloc(mem.MakeAddr(nursery, 1+3*i), obj.SiteID(i%7), obj.Record, 3, false)
		}
		for i := uint64(0); i < 256; i += 4 {
			p.OnMove(mem.MakeAddr(nursery, 1+3*i), mem.MakeAddr(spaces[1], 1+3*i))
		}
		p.OnSpaceCondemned(nursery)
		p.OnSpaceCondemned(spaces[0])
		p.OnGCEnd()
		spaces[0], spaces[1] = spaces[1], spaces[0]
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("profiler cycle allocates %v times", allocs)
	}
	if dead == 0 {
		t.Fatal("no deaths reached the sink")
	}
}

// TestDeathsInAscendingAddressOrder: mark-sweep free lists hand out
// addresses in descending and interleaved order, but deaths must fire in
// ascending address order — the death sink sees them in that order, and
// the float age sum is the one the sorted order produces, bit for bit.
// The objects are huge so the age sum needs more than 53 bits and float
// addition order shows in its bits.
func TestDeathsInAscendingAddressOrder(t *testing.T) {
	const site = 3
	offsets := []uint64{900, 700, 500, 300, 100, 800, 200, 600, 400, 1000, 50, 950}
	p := New(nil)
	var seen []uint64
	p.SetDeathSink(func(_ obj.SiteID, bytes uint64) {
		seen = append(seen, bytes/mem.WordSize&(1<<20-1))
	})
	births := map[uint64]uint64{}
	for _, off := range offsets {
		p.OnAlloc(mem.MakeAddr(1, off), site, obj.RawArray, 1<<50|off, false)
		births[off] = p.Clock()
	}
	p.OnSpaceCondemned(1)

	sorted := slices.Clone(offsets)
	slices.Sort(sorted)
	if !slices.Equal(seen, sorted) {
		t.Fatalf("deaths fired at offsets %v, want %v", seen, sorted)
	}
	sum := func(order []uint64) float64 {
		var s float64
		for _, off := range order {
			s += float64(p.Clock()-births[off]) / 1024
		}
		return s
	}
	got := p.sites[site].SumDeathAgeKB
	if want := sum(sorted); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SumDeathAgeKB = %v, want the ascending-order sum %v", got, want)
	}
	if sum(offsets) == got {
		t.Fatal("test data cannot tell allocation order from address order")
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestTwoLiveRecordsAtOneAddressPanics: an address holds at most one live
// object, so a second record there means the collector reused it without
// reporting the first object's death or move.
func TestTwoLiveRecordsAtOneAddressPanics(t *testing.T) {
	p := New(nil)
	a := mem.MakeAddr(1, 5)
	p.OnAlloc(a, 1, obj.Record, 2, false)
	mustPanic(t, "prof: two live records at 1:0x5", func() { p.OnAlloc(a, 1, obj.Record, 2, false) })

	q := New(nil)
	q.OnAlloc(a, 1, obj.Record, 2, false)
	q.OnAlloc(mem.MakeAddr(2, 3), 1, obj.Record, 2, false)
	mustPanic(t, "prof: two live records at 2:0x3", func() { q.OnMove(a, mem.MakeAddr(2, 3)) })
}

// TestCondemningADestinationPanics: a space that received survivors in a
// collection cannot be condemned in the same collection.
func TestCondemningADestinationPanics(t *testing.T) {
	p := New(nil)
	p.OnAlloc(mem.MakeAddr(1, 1), 1, obj.Record, 2, false)
	p.OnMove(mem.MakeAddr(1, 1), mem.MakeAddr(2, 1))
	mustPanic(t, "prof: object in space 2 died in the collection that moved it there", func() { p.OnSpaceCondemned(2) })

	// After the collection ends the survivor is an ordinary record.
	q := New(nil)
	q.OnAlloc(mem.MakeAddr(1, 1), 1, obj.Record, 2, false)
	q.OnMove(mem.MakeAddr(1, 1), mem.MakeAddr(2, 1))
	q.OnGCEnd()
	q.OnSpaceCondemned(2)
	if q.sites[1].Deaths != 1 {
		t.Fatal("survivor's later death not recorded")
	}
}

// TestLOSDeathReleasesEmptyIndex: a large object's space dies with it,
// so its index is released rather than kept for an id never reused.
func TestLOSDeathReleasesEmptyIndex(t *testing.T) {
	p := New(nil)
	p.OnAlloc(mem.MakeAddr(4, 1), 1, obj.RawArray, 500, false)
	p.OnAlloc(mem.MakeAddr(5, 1), 1, obj.RawArray, 500, false)
	p.OnAlloc(mem.MakeAddr(5, 700), 1, obj.RawArray, 500, false)
	p.OnLOSDead(mem.MakeAddr(4, 1))
	if p.index[4] != nil {
		t.Fatalf("dead large object's index kept: %v", p.index[4])
	}
	p.OnLOSDead(mem.MakeAddr(5, 700))
	if len(p.index[5]) != 2 {
		t.Fatalf("index of space 5 has length %d after its top object died, want 2", len(p.index[5]))
	}
	p.OnAlloc(mem.MakeAddr(4, 1), 2, obj.Record, 2, false) // a fresh record reuses a freed slab slot
	if len(p.recs) != 3 {
		t.Fatalf("slab has %d records, want 3", len(p.recs))
	}
}
