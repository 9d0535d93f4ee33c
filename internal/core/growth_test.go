package core

import (
	"testing"

	"tilgc/internal/mem"
	"tilgc/internal/obj"
)

// TestSemispaceEmergencyGrowth drives the budget-overrun edge of
// allocSlow end to end: a live set above the semispace's budget share
// leaves the post-collection space limping with minimal headroom (a
// resize past the share, counted in GCStats.EmergencyGrows), so an
// allocation larger than that headroom must take the emergency-growth
// path — counted too — and still succeed with the heap intact.
func TestSemispaceEmergencyGrowth(t *testing.T) {
	e := newEnv(4)
	c := newSemi(e, 1024) // share = 512 words; the list below outgrows it
	consList(t, c, e, 1, 300, 7)
	limps := c.Stats().EmergencyGrows
	if limps == 0 {
		t.Fatal("the list never outgrew the semispace share; the edge test is vacuous")
	}
	if free := c.cur.Capacity() - c.cur.Used(); free >= 103 {
		t.Fatalf("%d free words after the small allocations; the 103-word array would not need to grow", free)
	}
	a := c.Alloc(obj.RawArray, 100, 8, 0) // > the limping 64-word headroom
	e.stack.SetSlot(2, uint64(a))
	// The allocation's collection limps once more, then the space grows.
	if got := c.Stats().EmergencyGrows; got != limps+2 {
		t.Fatalf("EmergencyGrows = %d, want %d: one more limping resize, then the growth", got, limps+2)
	}
	checkConsList(t, c, e, 1, 300)
	o := obj.Decode(c.Heap(), mem.Addr(e.stack.Slot(2)))
	if o.Kind != obj.RawArray || o.Len != 100 {
		t.Fatalf("emergency-grown array decoded as %v/%d", o.Kind, o.Len)
	}
	// The grown heap keeps working: collect again and re-verify.
	c.Collect(true)
	checkConsList(t, c, e, 1, 300)
}

// TestSemispaceGrowthFailureFields unit-tests the panic value the
// emergency path would raise if growth itself could not satisfy the
// request: a mem.GrowthError carrying the space id, used words, and
// requested words — the same typed shape as mem.GrowSpace's below-used
// failure, so handlers inspect fields instead of parsing messages.
func TestSemispaceGrowthFailureFields(t *testing.T) {
	h := mem.NewHeap()
	sp := h.AddSpace(64)
	if _, ok := sp.Alloc(40); !ok {
		t.Fatal("seed allocation failed")
	}
	ge := semispaceGrowthFailure(sp, 1000)
	if ge.Space != sp.ID() || ge.Used != 40 || ge.Requested != 1000 {
		t.Errorf("GrowthError{Space: %d, Used: %d, Requested: %d}, want {%d, 40, 1000}",
			ge.Space, ge.Used, ge.Requested, sp.ID())
	}
	if ge.Op == "" {
		t.Error("GrowthError.Op is empty")
	}
	var _ error = ge // the panic value implements error
}
