// Package workload implements the paper's eleven SML benchmark programs
// (Table 1) as real algorithms running against the simulated runtime: all
// heap data lives in the arena heap, every call pushes a simulated
// activation record described by a trace table, and every allocation may
// trigger a collection that moves objects.
//
// Because collections move objects, a simulated pointer held in a Go
// local is stale after any allocation. Workload code therefore obeys the
// same discipline compiled code does: live pointers are kept in simulated
// stack slots (or registers) across allocation points and re-read
// afterwards. The Mutator API is deliberately slot-oriented to make this
// discipline natural.
package workload

import (
	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/trace"
)

// Mutator bundles the collector and the simulated runtime into the
// interface benchmark programs are written against.
type Mutator struct {
	Col   core.Collector
	Stack *rt.Stack
	Table *rt.TraceTable
	Meter *costmodel.Meter
	// Rec, when the harness attaches one, receives the request spans that
	// server workloads emit via Request. Nil for untraced runs (and for
	// batch workloads, which never call Request).
	Rec *trace.Recorder
	// Threads is the collector's thread set, which lets workloads
	// schedule work across simulated mutator threads (SetThread); thread 0
	// wraps Stack. The harness always sets it. A Mutator built by hand
	// may leave it nil, and then runs as a single thread.
	Threads *rt.ThreadSet
}

// NewMutator creates a mutator over the given collector and runtime.
func NewMutator(col core.Collector, stack *rt.Stack, table *rt.TraceTable, meter *costmodel.Meter) *Mutator {
	return &Mutator{Col: col, Stack: stack, Table: table, Meter: meter}
}

// NumThreads returns the number of simulated mutator threads (1 when no
// thread set is attached).
func (m *Mutator) NumThreads() int {
	if m.Threads == nil {
		return 1
	}
	return m.Threads.Len()
}

// SetThread switches execution to the given thread: subsequent frame,
// slot, and register operations act on that thread's stack, and pointer
// stores route through its barrier state. The switch itself charges
// nothing — the scheduler is part of the simulation harness, not the
// measured program.
func (m *Mutator) SetThread(id int) {
	m.Stack = m.Threads.SetCurrent(id).Stack()
}

// Frame registers a frame layout whose slots beyond slot 0 are described
// by traces built with rt.PTR, rt.NP, rt.SAVE, rt.COMPSLOT, rt.COMPREG.
func (m *Mutator) Frame(name string, slots ...rt.SlotTrace) *rt.FrameInfo {
	full := append([]rt.SlotTrace{rt.NP()}, slots...)
	return m.Table.Register(name, full, nil)
}

// FrameRegs registers a frame layout with explicit register traces.
func (m *Mutator) FrameRegs(name string, regs []rt.SlotTrace, slots ...rt.SlotTrace) *rt.FrameInfo {
	full := append([]rt.SlotTrace{rt.NP()}, slots...)
	return m.Table.Register(name, full, regs)
}

// PtrFrame registers a frame with n pointer slots (slots 1..n).
func (m *Mutator) PtrFrame(name string, n int) *rt.FrameInfo {
	slots := make([]rt.SlotTrace, n)
	for i := range slots {
		slots[i] = rt.PTR()
	}
	return m.Frame(name, slots...)
}

// simException is the panic value used to unwind Go frames in step with a
// simulated raised exception.
type simException struct{}

// Call pushes a simulated frame for fi, runs body, and pops the frame.
// If body raises a simulated exception the simulated frame has already
// been unwound by Raise, so the pop is skipped (the panic propagates to
// the enclosing TryCatch).
func (m *Mutator) Call(fi *rt.FrameInfo, body func()) {
	m.Stack.Call(fi)
	body()
	m.Stack.Return()
}

// CallArgs pushes a frame for fi, copies the values of the caller's slots
// named by srcSlots into the callee's slots 1..len(srcSlots), runs body,
// and pops the frame. The copy is atomic with respect to collection (no
// allocation can intervene), mirroring argument registers being spilled
// into the fresh frame by the prologue.
func (m *Mutator) CallArgs(fi *rt.FrameInfo, srcSlots []int, body func()) {
	vals := make([]uint64, len(srcSlots))
	for i, s := range srcSlots {
		vals[i] = m.Stack.Slot(s)
	}
	m.Stack.Call(fi)
	for i, v := range vals {
		m.Stack.SetSlot(i+1, v)
	}
	body()
	m.Stack.Return()
}

// RetPtr places the pointer in the current frame's slot `slot` into the
// return register (register 0). The caller must TakeRet immediately after
// the call returns: the return register is untraced, which is sound only
// because no allocation can occur between RetPtr and TakeRet.
func (m *Mutator) RetPtr(slot int) { m.Stack.SetReg(0, m.Slot(slot)) }

// RetInt places a raw value in the return register.
func (m *Mutator) RetInt(v uint64) { m.Stack.SetReg(0, v) }

// TakeRet moves the return register into slot dst of the current frame.
func (m *Mutator) TakeRet(dst int) { m.Stack.SetSlot(dst, m.Stack.Reg(0)) }

// TakeRetInt reads the return register as a raw value.
func (m *Mutator) TakeRetInt() uint64 { return m.Stack.Reg(0) }

// TryCatch installs an exception handler owned by the current simulated
// frame, runs body, and on a raised exception runs handler with the
// simulated stack already unwound back to this frame.
func (m *Mutator) TryCatch(body func(), handler func()) {
	m.Stack.PushHandler()
	caught := func() (caught bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(simException); ok {
					caught = true
					return
				}
				panic(r)
			}
		}()
		body()
		return false
	}()
	if caught {
		handler()
	} else {
		m.Stack.PopHandler()
	}
}

// Raise raises a simulated exception: the simulated stack unwinds to the
// most recent handler, and the Go stack unwinds to the matching TryCatch.
func (m *Mutator) Raise() {
	m.Stack.Raise()
	panic(simException{})
}

// Slot reads slot i of the current frame.
func (m *Mutator) Slot(i int) uint64 { return m.Stack.Slot(i) }

// SetSlot writes slot i of the current frame.
func (m *Mutator) SetSlot(i int, v uint64) { m.Stack.SetSlot(i, v) }

// SlotAddr reads slot i as a simulated pointer.
func (m *Mutator) SlotAddr(i int) mem.Addr { return mem.Addr(m.Stack.Slot(i)) }

// SetSlotNil clears pointer slot i.
func (m *Mutator) SetSlotNil(i int) { m.Stack.SetSlot(i, uint64(mem.Nil)) }

// Work charges n units of abstract mutator computation (arithmetic,
// comparisons — everything that is neither memory traffic nor calls).
func (m *Mutator) Work(n uint64) {
	m.Meter.ChargeN(costmodel.Client, costmodel.ClientWork, n)
}

// Request brackets one served request: the meter is snapshotted before
// and after body and the pair is recorded as a request span, so the
// request's simulated-cycle latency — and the share of it spent inside
// collections that landed mid-request — reads directly off the trace.
// With no recorder attached body simply runs; the request costs exactly
// the same cycles either way.
func (m *Mutator) Request(id uint64, body func()) {
	if m.Rec == nil {
		body()
		return
	}
	begin := m.Meter.Snapshot()
	body()
	m.Rec.Request(id, begin, m.Meter.Snapshot())
}

// Aux reads the aux mark byte of the object in slot objSlot (application-
// defined header bits that travel with the object when it is copied).
func (m *Mutator) Aux(objSlot int) uint8 {
	m.Meter.Charge(costmodel.Client, costmodel.MutatorLoad)
	return obj.Aux(m.Col.Heap(), m.SlotAddr(objSlot))
}

// SetAux writes the aux mark byte of the object in slot objSlot.
func (m *Mutator) SetAux(objSlot int, v uint8) {
	m.Meter.Charge(costmodel.Client, costmodel.MutatorStore)
	obj.SetAux(m.Col.Heap(), m.SlotAddr(objSlot), v)
}

// ---- Allocation ------------------------------------------------------------

// AllocRecord allocates a record of n fields with the given pointer mask
// into slot dst. Fields start nil/zero.
func (m *Mutator) AllocRecord(site obj.SiteID, n uint64, mask uint64, dst int) {
	a := m.Col.Alloc(obj.Record, n, site, mask)
	m.Stack.SetSlot(dst, uint64(a))
}

// AllocPtrArray allocates an all-pointer array of n elements into slot dst.
func (m *Mutator) AllocPtrArray(site obj.SiteID, n uint64, dst int) {
	a := m.Col.Alloc(obj.PtrArray, n, site, 0)
	m.Stack.SetSlot(dst, uint64(a))
}

// AllocRawArray allocates an untraced array of n words into slot dst.
func (m *Mutator) AllocRawArray(site obj.SiteID, n uint64, dst int) {
	a := m.Col.Alloc(obj.RawArray, n, site, 0)
	m.Stack.SetSlot(dst, uint64(a))
}

// ---- Field access (slot-oriented) -------------------------------------------

// LoadField loads field idx of the object in slot objSlot into slot dst.
func (m *Mutator) LoadField(objSlot int, idx uint64, dst int) {
	v := m.Col.LoadField(m.SlotAddr(objSlot), idx)
	m.Stack.SetSlot(dst, v)
}

// LoadFieldInt returns field idx of the object in slot objSlot as a raw
// value (safe for non-pointer fields only: the value is consumed
// immediately, not held across an allocation).
func (m *Mutator) LoadFieldInt(objSlot int, idx uint64) uint64 {
	return m.Col.LoadField(m.SlotAddr(objSlot), idx)
}

// StorePtrField stores the pointer in slot srcSlot into field idx of the
// object in slot objSlot, through the write barrier.
func (m *Mutator) StorePtrField(objSlot int, idx uint64, srcSlot int) {
	m.Col.StoreField(m.SlotAddr(objSlot), idx, m.Slot(srcSlot), true)
}

// StoreIntField stores a raw value into field idx of the object in slot
// objSlot (no barrier).
func (m *Mutator) StoreIntField(objSlot int, idx uint64, v uint64) {
	m.Col.StoreField(m.SlotAddr(objSlot), idx, v, false)
}

// InitPtrField initializes field idx of the just-allocated object in slot
// objSlot from slot srcSlot (initializing store: no barrier).
func (m *Mutator) InitPtrField(objSlot int, idx uint64, srcSlot int) {
	m.Col.InitField(m.SlotAddr(objSlot), idx, m.Slot(srcSlot))
}

// InitIntField initializes field idx of the just-allocated object in slot
// objSlot with a raw value.
func (m *Mutator) InitIntField(objSlot int, idx uint64, v uint64) {
	m.Col.InitField(m.SlotAddr(objSlot), idx, v)
}

// ---- List idioms -------------------------------------------------------------
//
// ML list cells are two-field records: [head, tail]. ConsInt builds a cell
// with an unboxed integer head (mask 0b10); ConsPtr builds a cell with a
// pointer head (mask 0b11).

// ConsInt allocates a cons cell with integer head val and tail from slot
// tailSlot, leaving the cell in slot dst. dst may equal tailSlot.
func (m *Mutator) ConsInt(site obj.SiteID, val uint64, tailSlot, dst int) {
	a := m.Col.Alloc(obj.Record, 2, site, 0b10)
	m.Col.InitField(a, 0, val)
	m.Col.InitField(a, 1, m.Slot(tailSlot))
	m.Stack.SetSlot(dst, uint64(a))
}

// ConsPtr allocates a cons cell with pointer head from headSlot and tail
// from tailSlot, leaving the cell in slot dst.
func (m *Mutator) ConsPtr(site obj.SiteID, headSlot, tailSlot, dst int) {
	a := m.Col.Alloc(obj.Record, 2, site, 0b11)
	m.Col.InitField(a, 0, m.Slot(headSlot))
	m.Col.InitField(a, 1, m.Slot(tailSlot))
	m.Stack.SetSlot(dst, uint64(a))
}

// Head loads the head of the list in slot listSlot into slot dst.
func (m *Mutator) Head(listSlot, dst int) { m.LoadField(listSlot, 0, dst) }

// HeadInt returns the integer head of the list in slot listSlot.
func (m *Mutator) HeadInt(listSlot int) uint64 { return m.LoadFieldInt(listSlot, 0) }

// Tail advances slot listSlot to the tail of its list (in place when dst
// == listSlot).
func (m *Mutator) Tail(listSlot, dst int) { m.LoadField(listSlot, 1, dst) }

// IsNil reports whether pointer slot i is the empty list.
func (m *Mutator) IsNil(i int) bool { return m.SlotAddr(i).IsNil() }

// ListLen walks the list in slot listSlot (using scratch as a cursor) and
// returns its length.
func (m *Mutator) ListLen(listSlot, scratch int) uint64 {
	m.Stack.SetSlot(scratch, m.Slot(listSlot))
	var n uint64
	for !m.IsNil(scratch) {
		n++
		m.Tail(scratch, scratch)
	}
	return n
}
