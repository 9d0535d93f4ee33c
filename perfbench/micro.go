package main

import (
	"runtime"
	"time"

	"tilgc/internal/core"
	"tilgc/internal/costmodel"
	"tilgc/internal/mem"
	"tilgc/internal/obj"
	"tilgc/internal/rt"
	"tilgc/internal/workload"
)

// sink keeps microbenchmark results live so the compiler cannot drop the
// measured calls.
var sink uint64

// microbench runs op(n) and returns host ns and heap allocations per op.
// op runs its operation n times; a short warm-up run comes first.
func microbench(n int, op func(n int)) (nsPerOp, allocsPerOp float64) {
	op(n / 16)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	op(n)
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// micro reports the layer microbenchmarks: the rt stack, mem heap and obj
// field accessors, the workload Mutator's CallArgs and TryCatch+Raise, and
// a costmodel charge. It returns the host ns of a generational collector's
// allocation and field load, measured in a nursery large enough that no
// collection runs.
func (b *bench) micro() (allocNs, fieldNs float64) {
	o := b.out
	table := rt.NewTraceTable()
	frame := table.Register("bench", []rt.SlotTrace{rt.NP(), rt.PTR(), rt.PTR(), rt.NP()}, nil)
	meter := costmodel.NewMeter()
	stack := rt.NewStack(table, meter)
	stack.Call(frame)

	ns, _ := microbench(1<<23, func(n int) {
		for i := 0; i < n; i++ {
			sink += stack.Slot(1 + i&1)
		}
	})
	o.set("rt.slot_ns", ns, "ns/op")
	ns, _ = microbench(1<<23, func(n int) {
		for i := 0; i < n; i++ {
			stack.SetSlot(3, uint64(i))
		}
	})
	o.set("rt.setslot_ns", ns, "ns/op")
	ns, _ = microbench(1<<22, func(n int) {
		for i := 0; i < n; i++ {
			stack.Call(frame)
			stack.Return()
		}
	})
	o.set("rt.push_pop_ns", ns, "ns/op")

	heap := mem.NewHeap()
	space := heap.AddSpace(1 << 10)
	rec, _ := obj.Alloc(heap, space, obj.Record, 8, 1, 0)
	ns, _ = microbench(1<<23, func(n int) {
		for i := 0; i < n; i++ {
			sink += heap.Load(rec.Add(uint64(1 + i&7)))
		}
	})
	o.set("mem.load_ns", ns, "ns/op")
	ns, _ = microbench(1<<23, func(n int) {
		for i := 0; i < n; i++ {
			//lint:ignore barriercheck measures the raw store on a standalone heap that no collector scans; the values stored are integers, not pointers
			heap.Store(rec.Add(uint64(1+i&7)), uint64(i))
		}
	})
	o.set("mem.store_ns", ns, "ns/op")
	ns, _ = microbench(1<<23, func(n int) {
		for i := 0; i < n; i++ {
			sink += obj.Field(heap, rec, uint64(i&7))
		}
	})
	o.set("obj.field_ns", ns, "ns/op")

	ns, _ = microbench(1<<23, func(n int) {
		for i := 0; i < n; i++ {
			meter.Charge(costmodel.Client, 1)
		}
	})
	o.set("costmodel.charge_ns", ns, "ns/op")

	// The Mutator API over a real collector; the frame's two pointer
	// slots stay nil, so no collection has anything to trace.
	mmeter := costmodel.NewMeter()
	mstack := rt.NewStack(table, mmeter)
	col := core.NewGenerational(mstack, mmeter, nil, core.GenConfig{BudgetWords: 1 << 20})
	m := workload.NewMutator(col, mstack, table, mmeter)
	mstack.Call(frame)
	args := []int{1, 2}
	noop := func() {}
	ns, allocs := microbench(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			m.CallArgs(frame, args, noop)
		}
	})
	o.set("workload.callargs_ns", ns, "ns/op")
	o.set("workload.callargs_allocs", allocs, "allocs/op")
	raise := func() { m.Call(frame, m.Raise) }
	ns, allocs = microbench(1<<17, func(n int) {
		for i := 0; i < n; i++ {
			m.TryCatch(raise, noop)
		}
	})
	o.set("workload.raise_ns", ns, "ns/op")
	o.set("workload.raise_allocs", allocs, "allocs/op")

	gmeter := costmodel.NewMeter()
	gen := core.NewGenerational(rt.NewStack(table, gmeter), gmeter, nil, core.GenConfig{
		BudgetWords: 1 << 23, NurseryWords: 1 << 22,
	})
	const nAllocs = 1 << 19 // with the warm-up, about half the nursery
	allocNs, _ = microbench(nAllocs, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(gen.Alloc(obj.Record, 2, 1, 0))
		}
	})
	if gen.Stats().NumGC != 0 {
		b.out.check("core allocation microbenchmark", []string{"a collection ran"})
	}
	a := gen.Alloc(obj.Record, 8, 1, 0)
	fieldNs, _ = microbench(1<<23, func(n int) {
		for i := 0; i < n; i++ {
			sink += gen.LoadField(a, uint64(i&7))
		}
	})
	return allocNs, fieldNs
}
