package gpu

import (
	"fmt"
	"math"
	"testing"

	"mobilesim/internal/mem"
	"mobilesim/internal/stats"
)

// Coverage pins for the tape (DESIGN.md §9). The differential fuzzer
// proves whole random kernels behave like the interpreter; these tests
// walk the lowering table itself — every opcode, in every operand shape,
// under every warp shape — so a hole in the case table shows up as a named
// (opcode, shape) failure instead of a fuzz seed, and so a new opcode
// cannot silently take a slow path.

// tapeInterpOnly lists the executable opcodes the tape hands to the
// per-lane interpreter even with register operands, each with the reason
// tapeFallbackReason gives: the tape lowers what clc emits, and clc emits
// none of these. An opcode added to the ISA without a lowering must be
// entered here, with the reason, to pass TestTapeLowersEveryOpcode.
var tapeInterpOnly = map[Opcode]string{
	OpSHR: clcEmitsNone, OpUCMPLT: clcEmitsNone, OpFMA: clcEmitsNone,
	OpSEL: clcEmitsNone, OpLDG64: clcEmitsNone, OpSTG64: clcEmitsNone,
}

const clcEmitsNone = "clc emits none: the interpreter executes it"

// tapeSlowOps lists the ALU opcodes that run through their value function
// (kSlow) instead of a leaf case: library transcendentals, the
// multi-branch integer divisions and the float MIN/MAX (math.Min's NaN
// rules), none of them hot in any workload profile.
var tapeSlowOps = map[Opcode]bool{
	OpFEXP: true, OpFLOG: true, OpFSIN: true, OpFCOS: true,
	OpIDIV: true, OpIMOD: true, OpFMIN: true, OpFMAX: true,
}

func oneInstrProgram(in Instr) *Program {
	return &Program{RegCount: 16, Clauses: []Clause{{Instrs: []Instr{in}}}}
}

func TestTapeLowersEveryOpcode(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		if IsClauseTerminal(op) {
			continue
		}
		in := Instr{Op: op, Dst: R(8), A: R(1), B: R(2)}
		wp := warpCompile(oneInstrProgram(in))
		var interp, slow bool
		for _, u := range wp.clauses[0].ops {
			switch u.kind() {
			case kLaneInterp:
				interp = true
			case kSlow:
				slow = true
			}
		}
		why, listed := tapeInterpOnly[op]
		if interp != listed {
			t.Errorf("%v: interpreter fallback = %v, listed in tapeInterpOnly = %v (reason %q)",
				op, interp, listed, tapeFallbackReason(&in))
		}
		if listed && tapeFallbackReason(&in) != why {
			t.Errorf("%v: fallback reason %q, want %q", op, tapeFallbackReason(&in), why)
		}
		if slow != tapeSlowOps[op] {
			t.Errorf("%v: slow value-function path = %v, listed in tapeSlowOps = %v", op, slow, tapeSlowOps[op])
		}
	}
	// The shapes that do fall back say why.
	for _, in := range []Instr{
		{Op: OpIADD, Dst: C(0), A: R(1), B: R(2)},
		{Op: OpLDG, Dst: S(SpecZero), A: R(4)},
		{Op: NumOpcodes + 3, Dst: R(8), A: R(1), B: R(2)},
	} {
		if tapeFallbackReason(&in) == "" {
			t.Errorf("%v: no fallback reason for a shape the tape cannot lower", in)
		}
	}
}

// tapeRig is the hot-path rig with a swappable program, local memory and
// lane values that exercise integer, float and special-value behaviour.
type tapeRig struct {
	ec  *execContext
	bus *mem.Bus
	w0  warp // pristine starting warp
}

func newTapeRig(t *testing.T) *tapeRig {
	ec, w, bus := newHotContext(t)
	ec.uniforms = []uint64{7, math.MaxUint32, 0x10000 + 128, uint64(math.Float32bits(-2.5))}
	ec.wgid, ec.gsz, ec.lsz = [3]uint32{2, 1, 0}, [3]uint32{64, 2, 1}, [3]uint32{WarpSize, 2, 1}
	ec.local = &guestLocal{base: 0x10000 + 2048, size: 256, walker: ec.walker} // inside the mapped pages
	// Per lane: r1, r2, r8 (the fresh destination, FMA/SEL's accumulator),
	// t1. No lane pairs two *different* NaNs: x86 propagates the first
	// operand's payload and the compiler may commute a float add or
	// multiply, so that is the one input class on which two builds of the
	// same expression may legitimately differ (fuzz_test.go: bothNaN32).
	vals := [WarpSize][4]uint64{
		{5, uint64(math.Float32bits(1.5)), uint64(math.Float32bits(3)), 100},
		{0x8000_0000, uint64(math.Float32bits(float32(math.NaN()))), 0, 1},
		{0, uint64(math.Float32bits(float32(math.Inf(-1)))), 0x8000_0001, 0xffff_ffff_0000_0002},
		{0xffff_fff9, 3, 17, 31},
	}
	for l := 0; l < WarpSize; l++ {
		w.rows[1][l], w.rows[2][l], w.rows[8][l], w.rows[NumGRF+1][l] = vals[l][0], vals[l][1], vals[l][2], vals[l][3]
		w.rows[NumGRF][l] = uint64(l)
		w.rows[6][l] = uint64(l) * 4 // local-memory offsets
		w.rows[rowGID][l], w.rows[rowLID+1][l] = uint64(8+l), uint64(l&1)
	}
	return &tapeRig{ec: ec, bus: bus, w0: *w}
}

// run executes prog from the pristine warp under one engine and warp shape
// and returns the architectural registers, the stats and the two mapped
// guest pages.
func (r *tapeRig) run(t *testing.T, prog *Program, eng Engine, shape func(*warp)) ([NumGRF + NumTemp]soaRow, stats.GPUStats, []byte, error) {
	t.Helper()
	const pa, n = 0x0020_0000, 2 * mem.PageSize
	if err := r.bus.WriteBytes(pa, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	w := r.w0
	w.stack = nil
	shape(&w)
	*r.ec.gs = stats.GPUStats{}
	r.ec.prog = prog
	r.ec.setEngine(eng)
	_, err := r.ec.runWarp(&w)
	r.ec.commitTallies()
	pages := make([]byte, n)
	if rerr := r.bus.ReadBytes(pa, pages); rerr != nil {
		t.Fatal(rerr)
	}
	return regsOf(&w), *r.ec.gs, pages, err
}

// check runs one instruction under both engines and every warp shape and
// requires identical registers, statistics, guest memory and error.
func (r *tapeRig) check(t *testing.T, in Instr) {
	t.Helper()
	prog := oneInstrProgram(in)
	prog.ROM = []uint64{0xdead_beef_0000_0003}
	prog.compile(EngineWarp)
	for _, sh := range warpShapes {
		regsI, gsI, memI, errI := r.run(t, prog, EngineInterp, sh.shape)
		regsW, gsW, memW, errW := r.run(t, prog, EngineWarp, sh.shape)
		switch {
		case fmt.Sprint(errI) != fmt.Sprint(errW):
			t.Errorf("%v [%s]: error: interp %v, warp %v", in, sh.name, errI, errW)
		case regsI != regsW:
			t.Errorf("%v [%s]: registers diverge\ninterp r8=%x t0=%x\nwarp   r8=%x t0=%x", in, sh.name,
				regsI[8], regsI[NumGRF], regsW[8], regsW[NumGRF])
		case gsI != gsW:
			t.Errorf("%v [%s]: stats diverge\ninterp %+v\nwarp   %+v", in, sh.name, gsI, gsW)
		case string(memI) != string(memW):
			t.Errorf("%v [%s]: guest memory diverges", in, sh.name)
		}
	}
}

// TestTapeMatchesInterpEveryShape executes every ALU opcode with every
// pairing of source-operand kinds — register rows, clause temporaries,
// lane ids, kernel arguments, immediates, ROM, workgroup-level specials —
// into a fresh register, a clause temporary and over its own sources (the
// d == a and d == b accumulator shapes), and every memory opcode with
// register and uniform address/value operands.
func TestTapeMatchesInterpEveryShape(t *testing.T) {
	r := newTapeRig(t)
	srcs := []uint8{R(1), R(2), T(1), S(SpecGIDX), S(SpecLIDY), C(0), C(3), C(9), Imm, Rom,
		S(SpecWGIDX), S(SpecLSZY), S(SpecZero), S(40)}
	for op := Opcode(0); op < NumOpcodes; op++ {
		if Classify(op) != ClassArith {
			continue
		}
		for _, a := range srcs {
			for _, b := range srcs {
				for _, d := range []uint8{R(8), T(0), a, b} {
					if k, _ := OperKind(d); k != OperGRF && k != OperTemp {
						continue
					}
					// Imm 0 selects ROM[0] for Rom operands; odd immediates
					// exercise shifts, compares and float bit patterns.
					for _, imm := range []uint32{0, 0xC0200003} {
						r.check(t, Instr{Op: op, Dst: d, A: a, B: b, Imm: imm})
					}
				}
			}
		}
	}
	addrs := []uint8{R(4), C(2)} // per-lane addresses in the mapped pages; one uniform address
	for _, op := range []Opcode{OpLDG, OpLDG64, OpLDGB, OpSTG, OpSTG64, OpSTGB} {
		for _, a := range addrs {
			for _, v := range []uint8{R(2), T(1), C(1), Imm, S(SpecGIDX)} {
				for _, d := range []uint8{R(8), T(0), a} {
					r.check(t, Instr{Op: op, Dst: d, A: a, B: v, Imm: 8})
				}
			}
		}
	}
	for _, op := range []Opcode{OpLDL, OpSTL} {
		for _, a := range []uint8{R(6), S(SpecZero)} {
			for _, v := range []uint8{R(2), C(1), S(SpecLIDY)} {
				r.check(t, Instr{Op: op, Dst: R(8), A: a, B: v, Imm: 16})
				r.check(t, Instr{Op: op, Dst: R(8), A: a, B: v, Imm: 4096}) // beyond the local allocation: faults
			}
		}
	}
}

// TestLongRunCountsExactly runs a hand-built clause far past the sixteen
// architectural slots — 300 NOPs interleaved with 300 IADDs, one fault-free
// run whose counts no byte could hold — and requires exact totals.
func TestLongRunCountsExactly(t *testing.T) {
	var c Clause
	for i := 0; i < 300; i++ {
		c.Instrs = append(c.Instrs, Instr{Op: OpNOP}, Instr{Op: OpIADD, Dst: R(8), A: R(8), B: R(1)})
	}
	prog := &Program{RegCount: 16, Clauses: []Clause{c}}
	prog.compile(EngineWarp)
	r := newTapeRig(t)
	for _, sh := range warpShapes {
		w := r.w0
		sh.shape(&w)
		act, _ := w.activeSet()
		_, gsI, _, _ := r.run(t, prog, EngineInterp, sh.shape)
		_, gsW, _, _ := r.run(t, prog, EngineWarp, sh.shape)
		if gsW != gsI || gsW.ArithInstr != 300*act || gsW.NopInstr != 300*act || gsW.GRFRead != 600*act || gsW.GRFWrite != 300*act {
			t.Errorf("[%s]: 300 NOPs and 300 IADDs over %d lanes counted\ninterp %+v\nwarp   %+v", sh.name, act, gsI, gsW)
		}
	}
}

// restoreShapes are the divergent warps the restore tests run: a full warp
// with lane 1 inactive, and a partial tail warp of three lanes with lane 1
// inactive.
var restoreShapes = []struct {
	name  string
	shape func(w *warp)
}{
	{"full", diverge},
	{"partial", func(w *warp) { w.lanes = WarpSize - 1; w.active = 0b101 }},
}

// checkRestored runs prog from the pristine warp under both engines and
// every restore shape, and requires every register the interpreter leaves
// — inactive lanes included — plus the statistics and the error.
func checkRestored(t *testing.T, prog *Program) {
	t.Helper()
	r := newTapeRig(t)
	prog.compile(EngineWarp)
	for _, sh := range restoreShapes {
		regsI, gsI, _, errI := r.run(t, prog, EngineInterp, sh.shape)
		regsW, gsW, _, errW := r.run(t, prog, EngineWarp, sh.shape)
		if fmt.Sprint(errI) != fmt.Sprint(errW) || gsI != gsW {
			t.Errorf("[%s]: error %v, warp %v; stats equal %v", sh.name, errI, errW, gsI == gsW)
		}
		for reg := 0; reg < NumGRF; reg++ {
			if regsI[reg] != regsW[reg] {
				t.Errorf("[%s]: r%d: interp %x, warp %x", sh.name, reg, regsI[reg], regsW[reg])
			}
		}
	}
}

// TestDivergentFaultRestoresLanes: a divergent warp runs its tape at full
// width, so the sums its tape writes into r9 and r10 reach the inactive
// lanes too until runWarp puts them back. The load behind them faults, and
// the abort must find every register as the interpreter leaves it.
func TestDivergentFaultRestoresLanes(t *testing.T) {
	checkRestored(t, progOf([]Instr{
		{Op: OpIADD, Dst: R(9), A: R(1), B: R(2)},
		{Op: OpIMUL, Dst: R(10), A: R(9), B: C(0)},
		{Op: OpLDG, Dst: R(11), A: R(4), Imm: 0x2000},
		{Op: OpIADD, Dst: R(12), A: R(9), B: R(10)},
		{Op: OpRET},
	}))
}

// TestDivergentSlowOpRestoresLanes: a slow ALU op runs over every lane of a
// divergent warp; its inactive lanes must read as before.
func TestDivergentSlowOpRestoresLanes(t *testing.T) {
	checkRestored(t, progOf([]Instr{
		{Op: OpIDIV, Dst: R(9), A: R(1), B: R(2)},
		{Op: OpFSIN, Dst: R(10), A: R(2)},
		{Op: OpFMAX, Dst: R(2), A: R(2), B: R(8)},
		{Op: OpRET},
	}))
}
