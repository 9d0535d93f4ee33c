package workload

import (
	"testing"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
)

func newTestMutator(t *testing.T) *Mutator {
	t.Helper()
	table := rt.NewTraceTable()
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	col := core.NewGenerational(stack, meter, nil, core.GenConfig{
		BudgetWords: 1 << 20, NurseryWords: 512,
	})
	return NewMutator(col, stack, table, meter)
}

func TestMutatorCallArgsCopiesValues(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 3)
	m.Call(f, func() {
		m.SetSlot(1, 0xa)
		m.SetSlot(2, 0xb)
		m.CallArgs(f, []int{2, 1}, func() {
			if m.Slot(1) != 0xb || m.Slot(2) != 0xa {
				t.Fatal("args not copied in order")
			}
			if m.Slot(3) != 0 {
				t.Fatal("extra slot not zeroed")
			}
		})
		if m.Slot(1) != 0xa {
			t.Fatal("caller slots disturbed")
		}
	})
}

// TestMutatorCallArgsNested: a call made inside a CallArgs body reuses
// the argument buffer; the outer callee's slots were filled before its
// body ran, so they keep their values.
func TestMutatorCallArgsNested(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 3)
	m.Call(f, func() {
		m.SetSlot(1, 1)
		m.SetSlot(2, 2)
		m.SetSlot(3, 3)
		m.CallArgs(f, []int{3, 2, 1}, func() {
			m.CallArgs(f, []int{1}, func() {
				if m.Slot(1) != 3 || m.Slot(2) != 0 {
					t.Fatal("inner args wrong")
				}
			})
			if m.Slot(1) != 3 || m.Slot(2) != 2 || m.Slot(3) != 1 {
				t.Fatal("outer args disturbed by the inner call")
			}
		})
	})
}

// TestMutatorCallArgsDoesNotAllocate pins the argument copy at zero Go
// allocations per call.
func TestMutatorCallArgsDoesNotAllocate(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 2)
	args := []int{2, 1}
	noop := func() {}
	m.Call(f, func() {
		if allocs := testing.AllocsPerRun(100, func() { m.CallArgs(f, args, noop) }); allocs != 0 {
			t.Fatalf("CallArgs allocates %v times per call", allocs)
		}
	})
}

func TestMutatorRetPtrTakeRet(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 2)
	m.Call(f, func() {
		m.AllocRecord(1, 1, 0, 1)
		m.InitIntField(1, 0, 77)
		m.Call(f, func() {
			m.AllocRecord(1, 1, 0, 1)
			m.InitIntField(1, 0, 88)
			m.RetPtr(1)
		})
		m.TakeRet(2)
		if m.LoadFieldInt(2, 0) != 88 {
			t.Fatal("returned pointer wrong")
		}
		if m.LoadFieldInt(1, 0) != 77 {
			t.Fatal("own slot disturbed")
		}
	})
}

func TestMutatorRetIntTakeRetInt(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 1)
	m.Call(f, func() {
		m.Call(f, func() { m.RetInt(12345) })
		if m.TakeRetInt() != 12345 {
			t.Fatal("int return lost")
		}
	})
}

func TestMutatorTryCatchNested(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 1)
	order := ""
	m.Call(f, func() {
		m.TryCatch(func() {
			m.TryCatch(func() {
				m.Call(f, func() { m.Raise() })
				order += "x" // unreachable
			}, func() {
				order += "inner"
				m.Raise() // re-raise to the outer handler
			})
			order += "y" // unreachable
		}, func() {
			order += "+outer"
		})
	})
	if order != "inner+outer" {
		t.Fatalf("handler order = %q", order)
	}
	if m.Stack.Depth() != 0 || m.Stack.HandlerDepth() != 0 {
		t.Fatalf("stack state corrupted after nested raise: depth=%d handlers=%d",
			m.Stack.Depth(), m.Stack.HandlerDepth())
	}
}

func TestMutatorTryCatchNormalExitPopsHandler(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 1)
	m.Call(f, func() {
		m.TryCatch(func() {}, func() { t.Fatal("handler ran without raise") })
		if m.Stack.HandlerDepth() != 0 {
			t.Fatal("handler leaked")
		}
	})
}

func TestMutatorConsListHelpers(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 3)
	m.Call(f, func() {
		m.SetSlotNil(1)
		for i := uint64(1); i <= 5; i++ {
			m.ConsInt(9, i, 1, 1)
		}
		if n := m.ListLen(1, 2); n != 5 {
			t.Fatalf("ListLen = %d", n)
		}
		if m.HeadInt(1) != 5 {
			t.Fatal("head wrong")
		}
		m.Tail(1, 2)
		if m.HeadInt(2) != 4 {
			t.Fatal("tail wrong")
		}
		// ConsPtr shares structure.
		m.ConsPtr(9, 2, 1, 3)
		m.Head(3, 3)
		if m.HeadInt(3) != 4 {
			t.Fatal("ConsPtr head wrong")
		}
	})
}

func TestMutatorFieldHelpersBarrier(t *testing.T) {
	m := newTestMutator(t)
	g := m.Col.(*core.Generational)
	f := m.PtrFrame("f", 3)
	m.Call(f, func() {
		m.AllocRecord(1, 2, 0b01, 1)
		m.AllocRecord(1, 1, 0, 2)
		before := g.PointerUpdates()
		m.StorePtrField(1, 0, 2) // barriered
		if g.PointerUpdates() != before+1 {
			t.Fatal("pointer store not barriered")
		}
		m.StoreIntField(1, 1, 42) // not barriered
		if g.PointerUpdates() != before+1 {
			t.Fatal("int store barriered")
		}
		m.InitPtrField(1, 0, 2) // initializing: not barriered
		if g.PointerUpdates() != before+1 {
			t.Fatal("init store barriered")
		}
		if m.LoadFieldInt(1, 1) != 42 {
			t.Fatal("field value lost")
		}
		m.LoadField(1, 0, 3)
		if m.SlotAddr(3) != m.SlotAddr(2) {
			t.Fatal("pointer field load wrong")
		}
	})
}

func TestMutatorAuxRoundTrip(t *testing.T) {
	m := newTestMutator(t)
	f := m.PtrFrame("f", 1)
	m.Call(f, func() {
		m.AllocRecord(1, 2, 0, 1)
		if m.Aux(1) != 0 {
			t.Fatal("fresh object aux not zero")
		}
		m.SetAux(1, 201)
		if m.Aux(1) != 201 {
			t.Fatal("aux round trip failed")
		}
		// Aux must survive a collection (it lives in the copied header).
		m.Col.Collect(false)
		if m.Aux(1) != 201 {
			t.Fatal("aux lost in collection")
		}
		// And must not corrupt the object.
		o := obj.Decode(m.Col.Heap(), m.SlotAddr(1))
		if o.Kind != obj.Record || o.Len != 2 || o.Site != 1 {
			t.Fatalf("aux write corrupted header: %+v", o)
		}
	})
}

func TestMutatorWorkCharges(t *testing.T) {
	m := newTestMutator(t)
	before := m.Meter.Get(costmodel.Client)
	m.Work(100)
	if m.Meter.Get(costmodel.Client) != before+100*costmodel.ClientWork {
		t.Fatal("Work charged wrong amount")
	}
}

func TestMutatorFrameRegs(t *testing.T) {
	m := newTestMutator(t)
	regs := make([]rt.SlotTrace, rt.NumRegs)
	regs[2] = rt.PTR()
	f := m.FrameRegs("f", regs, rt.PTR())
	m.Call(f, func() {
		m.AllocRecord(1, 1, 0, 1)
		m.InitIntField(1, 0, 5)
		m.Stack.SetReg(2, m.Slot(1))
		m.Col.Collect(false)
		if mem.Addr(m.Stack.Reg(2)) != m.SlotAddr(1) {
			t.Fatal("register root not forwarded with slot")
		}
	})
}
