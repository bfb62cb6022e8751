package gpu

import (
	"testing"

	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/stats"
)

// In-package pins for the fused warp hot path, mirroring the MMU's
// TestLoadHitPathZeroAllocs/BenchmarkWalkerLoadHit pair: the
// steady-state fused clause — ALU rows plus TLB-hit LDG/STG — must not
// touch the heap, and the micro-benchmark puts a per-clause number on
// each engine tier.

// hotProgram is a straight-line two-clause kernel whose every slot takes
// a leaf tape case, memory included: vector integer and float ALU, an
// immediate-shift, and a TLB-hit LDG/STG pair — opcodes clc emits, so that
// the benchmark measures leaf code and not the interpreter fallback.
func hotProgram() *Program {
	p := &Program{RegCount: 16, Clauses: []Clause{
		{Instrs: []Instr{
			{Op: OpIADD, Dst: R(8), A: R(1), B: R(2)},
			{Op: OpIMUL, Dst: R(9), A: R(8), B: R(1)},
			{Op: OpXOR, Dst: R(8), A: R(9), B: R(2)},
			{Op: OpSHL, Dst: R(10), A: R(8), B: Imm, Imm: 3},
			{Op: OpIADD, Dst: R(8), A: R(10), B: R(9)},
			{Op: OpFMUL, Dst: R(11), A: R(8), B: R(9)},
		}},
		{Instrs: []Instr{
			{Op: OpLDG, Dst: R(12), A: R(4)},
			{Op: OpSTG, A: R(5), B: R(12)},
			{Op: OpIADD, Dst: R(8), A: R(8), B: R(12)},
			{Op: OpIMAX, Dst: R(13), A: R(8), B: R(9)},
		}},
	}}
	for i := range p.Clauses {
		p.Clauses[i].Addr = uint64(i) * 0x10
	}
	return p
}

// newHotContext builds a minimal execution rig — bus, identity-style
// address space, walker — and a full warp with per-lane load/store
// addresses already primed in the TLB, and returns the bus with them.
func newHotContext(tb testing.TB) (*execContext, *warp, *mem.Bus) {
	tb.Helper()
	bus := mem.NewBus(mem.NewRAM(0, 16<<20))
	alloc, err := mem.NewPageAllocator(1<<20, 8<<20)
	if err != nil {
		tb.Fatal(err)
	}
	as, err := mmu.NewAddressSpace(bus, alloc)
	if err != nil {
		tb.Fatal(err)
	}
	const va = 0x10000
	if err := as.MapRange(va, 0x0020_0000, 2*mem.PageSize, mmu.PermR|mmu.PermW); err != nil {
		tb.Fatal(err)
	}
	walker := mmu.NewWalker(bus)
	walker.SetRoot(as.Root())
	walker.ResetTouched()

	w := &warp{lanes: WarpSize, active: fullMask(WarpSize)}
	for l := 0; l < WarpSize; l++ {
		w.rows[1][l] = uint64(3 + l)
		w.rows[2][l] = uint64(17 * (l + 1))
		w.rows[4][l] = va + uint64(l)*64
		w.rows[5][l] = va + 4096 + uint64(l)*64
		// Prime the walker so the measured loop stays on the TLB-hit path.
		if _, err := walker.Load(w.rows[4][l], 4, mem.Read); err != nil {
			tb.Fatal(err)
		}
		if err := walker.Store(w.rows[5][l], 4, 0); err != nil {
			tb.Fatal(err)
		}
	}

	p := hotProgram()
	p.compile(EngineWarp)
	ec := &execContext{
		prog:   p,
		eng:    EngineWarp,
		walker: walker,
		gs:     &stats.GPUStats{},
		gsz:    [3]uint32{WarpSize, 1, 1},
		lsz:    [3]uint32{WarpSize, 1, 1},
	}
	ec.bindTape()
	return ec, w, bus
}

// setEngine switches a rig to another engine tier.
func (e *execContext) setEngine(eng Engine) {
	e.eng = eng
	e.bindTape()
}

// diverge turns the rig's warp into a divergent one: lane 1 sits out on a
// pending reconvergence frame that is never reached.
func diverge(w *warp) {
	w.stack = append(w.stack, divFrame{rejoin: 1 << 20, pendPC: -1, joinMask: w.active})
	w.active &^= 1 << 1
}

// regsOf returns the architectural registers (GRF and clause temporaries)
// of a warp's live lanes; dead lanes of a partial warp and the executor's
// scratch rows are host-side state the engines need not agree on.
func regsOf(w *warp) [NumGRF + NumTemp]soaRow {
	var r [NumGRF + NumTemp]soaRow
	for i := range r {
		copy(r[i][:w.lanes], w.rows[i][:w.lanes])
	}
	return r
}

// runHotClauses executes the whole program once through runWarp, starting
// from clause 0 (the warp engine runs it as one fused chain) as a job's
// first clause: a benchmark's worth of calls on one warp must not add up to
// the runaway guard.
func runHotClauses(tb testing.TB, ec *execContext, w *warp) {
	w.pc, w.steps = 0, 0
	if _, err := ec.runWarp(w); err != nil {
		tb.Fatal(err)
	}
	ec.commitTallies()
}

// TestWarpFusedClausesZeroAllocs pins the tape executor — ALU rows and
// TLB-hit global load/store, for full and for
// divergent (masked-commit) warps — to zero heap allocations per chain.
func TestWarpFusedClausesZeroAllocs(t *testing.T) {
	for _, masked := range []bool{false, true} {
		ec, w, _ := newHotContext(t)
		if masked {
			diverge(w)
		}
		runHotClauses(t, ec, w) // warm up once
		allocs := testing.AllocsPerRun(1000, func() {
			runHotClauses(t, ec, w)
		})
		if allocs != 0 {
			t.Errorf("tape chain (masked=%v) allocates %v/op, want 0", masked, allocs)
		}
	}
}

// TestWarpFusedClausesMatchInterp cross-checks the in-package rig itself:
// the tape and the interpreter must leave identical registers and
// statistics from identical starting state, for a full warp and for a
// divergent one.
func TestWarpFusedClausesMatchInterp(t *testing.T) {
	for _, masked := range []bool{false, true} {
		run := func(eng Engine) ([NumGRF + NumTemp]soaRow, stats.GPUStats) {
			ec, w, _ := newHotContext(t)
			ec.setEngine(eng)
			if masked {
				diverge(w)
			}
			runHotClauses(t, ec, w)
			return regsOf(w), *ec.gs
		}
		regsI, gsI := run(EngineInterp)
		regsW, gsW := run(EngineWarp)
		if regsI != regsW || gsI != gsW {
			t.Errorf("masked=%v: warp engine diverges from interpreter:\ninterp regs %v stats %+v\nwarp   regs %v stats %+v",
				masked, regsI, gsI, regsW, gsW)
		}
	}
}

// BenchmarkWarpClauseEngines measures the per-clause-chain cost of each
// engine tier on the same fused-friendly kernel (companion to the
// session-level AblationGPUEngine benchmark).
func BenchmarkWarpClauseEngines(b *testing.B) {
	run := func(eng Engine, masked bool) func(b *testing.B) {
		return func(b *testing.B) {
			ec, w, _ := newHotContext(b)
			ec.setEngine(eng)
			if masked {
				diverge(w)
			}
			runHotClauses(b, ec, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runHotClauses(b, ec, w)
			}
		}
	}
	for _, eng := range []Engine{EngineInterp, EngineWarp} {
		b.Run(eng.String(), run(eng, false))
	}
	// The same tape under a divergent warp: every ALU row takes the
	// masked commit and the memory uops their per-lane loops.
	b.Run("warp-masked", run(EngineWarp, true))
}

// TestWarpClauseEnginesBenchAllocs pins BenchmarkWarpClauseEngines/warp's
// -benchmem reading to zero: the benchmark's own allocation accounting —
// not just AllocsPerRun — must show an allocation-free steady state, so a
// regression shows up in CI and not only in a manually-read benchmark log.
func TestWarpClauseEnginesBenchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness run skipped in -short")
	}
	res := testing.Benchmark(func(b *testing.B) {
		ec, w, _ := newHotContext(b)
		runHotClauses(b, ec, w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runHotClauses(b, ec, w)
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Errorf("BenchmarkWarpClauseEngines/warp allocates %d/op (%d B/op), want 0", a, res.AllocedBytesPerOp())
	}
}

// TestWarpSlabRecycles pins how a host thread's warp slab is reused from
// one workgroup, and one job, to the next: warpsFor returns the same
// backing array, recycled warps are architecturally fresh (zero in every
// register the program can name and in the clause temporaries, cleared
// scheduler words, empty-but-capacitated divergence stack), and an
// undersized slab is replaced rather than sliced beyond capacity.
func TestWarpSlabRecycles(t *testing.T) {
	ec := &execContext{prog: &Program{regRows: 4}} // a core's first job: a nil slab is valid
	first := ec.warpsFor(4)
	if len(first) != 4 {
		t.Fatalf("warpsFor(4) returned %d warps", len(first))
	}
	// Dirty a warp the way a kernel would: registers, masks, divergence,
	// the runaway count.
	first[2].w.rows[3][1] = 0xdeadbeef
	first[2].w.rows[NumGRF+NumTemp-1][2] = 0xdeadbeef
	first[2].w.active, first[2].w.exited, first[2].w.steps = 1, 2, 99
	first[2].w.stack = append(first[2].w.stack, divFrame{rejoin: 7})
	first[2].done = true
	stackCap := cap(first[2].w.stack)

	ec2 := &execContext{prog: ec.prog, warpSlab: ec.warpSlab}
	reused := ec2.warpsFor(3)
	if &reused[0] != &first[0] {
		t.Fatalf("warpsFor(3) on a 4-warp slab allocated a new backing array")
	}
	if w := &reused[2]; w.w.rows[3][1] != 0 || w.w.rows[NumGRF+NumTemp-1][2] != 0 || w.w.active|w.w.exited != 0 || w.w.steps != 0 || w.done || len(w.w.stack) != 0 {
		t.Errorf("recycled warp not architecturally fresh: r3=%#x t3=%#x active=%b exited=%b steps=%d done=%v stack=%d",
			w.w.rows[3][1], w.w.rows[NumGRF+NumTemp-1][2], w.w.active, w.w.exited, w.w.steps, w.done, len(w.w.stack))
	}
	if cap(reused[2].w.stack) != stackCap {
		t.Errorf("divergence stack capacity not preserved: got %d, want %d", cap(reused[2].w.stack), stackCap)
	}
	if grown := ec2.warpsFor(16); len(grown) != 16 {
		t.Errorf("warpsFor(16) on a 4-cap slab returned %d warps", len(grown))
	}
}

// TestLidRowsMatchDivision holds lidRows to the lane ids of thread t of a
// workgroup: t mod lsz.x, t / lsz.x mod lsz.y and t / (lsz.x·lsz.y).
func TestLidRowsMatchDivision(t *testing.T) {
	for _, lsz := range [][3]uint32{{1, 1, 1}, {3, 5, 7}, {64, 1, 1}, {16, 16, 1}, {256, 1, 1}} {
		rows := lidRows(nil, lsz)
		total := lsz[0] * lsz[1] * lsz[2]
		if want := (int(total) + WarpSize - 1) / WarpSize; len(rows) != want {
			t.Fatalf("%v: %d warps, want %d", lsz, len(rows), want)
		}
		for th := uint32(0); th < total; th++ {
			w, l := &rows[th/WarpSize], th%WarpSize
			want := [3]uint64{uint64(th % lsz[0]), uint64(th / lsz[0] % lsz[1]), uint64(th / (lsz[0] * lsz[1]))}
			if got := [3]uint64{w[0][l], w[1][l], w[2][l]}; got != want {
				t.Fatalf("%v: thread %d has lid %v, want %v", lsz, th, got, want)
			}
		}
	}
}
