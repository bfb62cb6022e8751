package gpu_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"mobilesim/internal/gpu"
	"mobilesim/internal/mem"
)

// Differential engine testing. The warp engine must be observationally
// identical to the interpreter, its specification: same guest memory after
// the job, same statistics counters, same faults. These tests generate
// random but well-formed kernels (random ALU/memory/divergence mixes over
// disjoint per-thread data, plus misaligned and page-crossing accesses
// that force the warp engine off its fused fast path) and execute each one
// under both engines on fresh devices, comparing final guest memory and
// the full stats records against the interpreter reference.
// `go test` replays the seed corpus; `go test -fuzz=FuzzDifferentialEngines`
// explores further (CI runs a short-budget smoke of exactly that).

// diffBinOps are the two-source opcodes the generator draws from — every
// value-table binary op plus the accumulator forms (FMA, SEL), so leaf and
// slow micro-ops mix within one clause with the ops clc emits none of
// (SHR, UCMPLT, FMA, SEL), which the interpreter runs mid-tape.
var diffBinOps = []gpu.Opcode{
	gpu.OpIADD, gpu.OpISUB, gpu.OpIMUL, gpu.OpIDIV, gpu.OpIMOD,
	gpu.OpSHL, gpu.OpSHR, gpu.OpSAR, gpu.OpAND, gpu.OpOR, gpu.OpXOR,
	gpu.OpIMIN, gpu.OpIMAX, gpu.OpADD64, gpu.OpMUL64,
	gpu.OpFADD, gpu.OpFSUB, gpu.OpFMUL, gpu.OpFDIV, gpu.OpFMIN, gpu.OpFMAX,
	gpu.OpICMPEQ, gpu.OpICMPNE, gpu.OpICMPLT, gpu.OpICMPLE, gpu.OpUCMPLT,
	gpu.OpFCMPEQ, gpu.OpFCMPLT, gpu.OpFCMPLE,
	gpu.OpFMA, gpu.OpSEL,
}

var diffUnOps = []gpu.Opcode{
	gpu.OpMOV, gpu.OpI2F, gpu.OpF2I, gpu.OpFABS, gpu.OpFNEG,
	gpu.OpFSQRT, gpu.OpFEXP, gpu.OpFLOG, gpu.OpFSIN, gpu.OpFCOS, gpu.OpFFLOOR,
}

// diffOutStride is the per-thread slice of the output buffer.
const diffOutStride = 16

// diffScratchOff is the in-page offset of the page-crossing scratch store:
// a 4-byte STG here spans the first scratch page boundary.
const diffScratchOff = 4094

// diffFeatures selects the optional sections of a generated kernel.
type diffFeatures struct {
	withLocal, withDiverge, withMisalign, withCross, withStride bool
	withUniformBranch, withFault                                bool
	withTempAcross, withTempPred, withTempAcc                   bool
	withBoolRetest, withRepeat                                  bool
	withDivergentMem, withLoop                                  bool
}

// diffUnmapped is an address no differential rig maps.
const diffUnmapped = 0xE000_0000

// genDifferentialProgram builds a random kernel for the differential
// campaign. Uniforms: c0 = &in, c1 = &out, c2 = scalar, c3 = &scratch.
// Every thread works on its own in/out slice (stride 8 and diffOutStride
// bytes), so the kernel is data-race-free and its output
// schedule-independent; the optional page-crossing scratch store writes
// the same constant from every thread, so it too is deterministic.
func genDifferentialProgram(rnd *rand.Rand, nALU int, f diffFeatures) *gpu.Program {
	// Registers: r0..r2 address setup, r3..r5 loaded inputs, r6 local
	// offset, r7 parity, r8..r20 scratch written by the random section,
	// r21 output fold, r22..r25 misaligned/crossing loads.
	src := []uint8{gpu.R(3), gpu.R(4), gpu.R(5), gpu.C(2), gpu.S(gpu.SpecGIDX), gpu.S(gpu.SpecLSZX)}
	operand := func() uint8 {
		if rnd.Intn(8) == 0 {
			return gpu.Imm
		}
		return src[rnd.Intn(len(src))]
	}
	var nextDst = 8
	dst := func() uint8 {
		r := gpu.R(nextDst)
		if nextDst < 20 {
			nextDst++
		}
		return r
	}
	randALU := func() gpu.Instr {
		d := dst()
		var in gpu.Instr
		if rnd.Intn(4) == 0 {
			in = gpu.Instr{Op: diffUnOps[rnd.Intn(len(diffUnOps))], Dst: d, A: operand(), Imm: rnd.Uint32()}
		} else {
			in = gpu.Instr{Op: diffBinOps[rnd.Intn(len(diffBinOps))], Dst: d, A: operand(), B: operand(), Imm: rnd.Uint32()}
		}
		src = append(src, d)
		return in
	}

	setup := gpu.Clause{Instrs: []gpu.Instr{
		{Op: gpu.OpSHL, Dst: gpu.R(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 3},
		{Op: gpu.OpADD64, Dst: gpu.R(1), A: gpu.C(0), B: gpu.R(0)},
		{Op: gpu.OpSHL, Dst: gpu.R(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 4},
		{Op: gpu.OpADD64, Dst: gpu.R(2), A: gpu.C(1), B: gpu.R(0)},
		{Op: gpu.OpLDG64, Dst: gpu.R(3), A: gpu.R(1)},
		{Op: gpu.OpLDG, Dst: gpu.R(4), A: gpu.R(1), Imm: 4},
		{Op: gpu.OpLDGB, Dst: gpu.R(5), A: gpu.R(1), Imm: 3},
		{Op: gpu.OpSHL, Dst: gpu.R(6), A: gpu.S(gpu.SpecLIDX), B: gpu.Imm, Imm: 2},
		{Op: gpu.OpAND, Dst: gpu.R(7), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 1},
	}}
	prog := &gpu.Program{RegCount: 26, Uniforms: 4, Clauses: []gpu.Clause{setup}}

	if f.withMisalign {
		// Misaligned global loads: in-page but not naturally aligned, so
		// the warp engine's fused LDG path must reproduce the walker's
		// unaligned fast-path behaviour exactly. The LDG64 at +3 reads
		// into the next thread's (read-only) input slice.
		prog.Clauses = append(prog.Clauses, gpu.Clause{Instrs: []gpu.Instr{
			{Op: gpu.OpLDG, Dst: gpu.R(22), A: gpu.R(1), Imm: 1},
			{Op: gpu.OpLDG64, Dst: gpu.R(23), A: gpu.R(1), Imm: 3},
		}})
		src = append(src, gpu.R(22), gpu.R(23))
	}

	// Random ALU section, split into clauses of 1..6 slots with the odd
	// NOP thrown in (empty-slot accounting must match too).
	var cur []gpu.Instr
	flush := func() {
		if len(cur) > 0 {
			prog.Clauses = append(prog.Clauses, gpu.Clause{Instrs: cur})
			cur = nil
		}
	}
	for i := 0; i < nALU; i++ {
		if rnd.Intn(10) == 0 {
			cur = append(cur, gpu.Instr{Op: gpu.OpNOP})
		}
		cur = append(cur, randALU())
		if len(cur) >= 1+rnd.Intn(6) {
			flush()
		}
	}
	flush()

	// Temporaries the tape optimiser must not forward out of, folded into
	// r8 through r26 and r27: one read in the next clause, one read by the
	// BRC that ends the chain it is written in, and the FMA and SEL forms,
	// which read their destination (the interpreter runs both).
	if f.withTempAcross {
		prog.Clauses = append(prog.Clauses,
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpIADD, Dst: gpu.T(0), A: gpu.R(4), B: gpu.S(gpu.SpecGIDX)},
				{Op: gpu.OpMOV, Dst: gpu.R(26), A: gpu.T(0)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpIMUL, Dst: gpu.R(8), A: gpu.R(8), B: gpu.T(0)},
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(26)},
			}},
		)
	}
	if f.withTempPred {
		k := len(prog.Clauses)
		prog.Clauses = append(prog.Clauses,
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpICMPLT, Dst: gpu.T(1), A: gpu.R(4), B: gpu.R(3)},
				{Op: gpu.OpMOV, Dst: gpu.R(27), A: gpu.T(1)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpBRC, A: gpu.T(1), Imm: gpu.BranchImm(k+3, k+3)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x55},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(27)},
			}},
		)
	}
	if f.withTempAcc {
		prog.Clauses = append(prog.Clauses, gpu.Clause{Instrs: []gpu.Instr{
			{Op: gpu.OpI2F, Dst: gpu.T(2), A: gpu.S(gpu.SpecGIDX)},
			{Op: gpu.OpFMA, Dst: gpu.T(2), A: gpu.T(2), B: gpu.Imm, Imm: 0x40000000},
			{Op: gpu.OpMOV, Dst: gpu.R(26), A: gpu.T(2)},
			{Op: gpu.OpICMPNE, Dst: gpu.T(3), A: gpu.R(4), B: gpu.R(3)},
			{Op: gpu.OpMOV, Dst: gpu.R(27), A: gpu.T(3)},
			{Op: gpu.OpSEL, Dst: gpu.T(3), A: gpu.R(26), B: gpu.Imm, Imm: 0x99},
			{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.T(3)},
			{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(27)},
		}})
	}

	if f.withBoolRetest {
		// Re-tests of rows the optimiser's rwBool must judge (r28..r31):
		// of a compare, of an OR of one with a row that is not boolean, of
		// a compare a load has overwritten; a BRC on the icmpeq of a
		// compare, its temporary dead after the terminal, and one whose
		// temporary the clause behind the terminal reads.
		k := len(prog.Clauses)
		prog.Clauses = append(prog.Clauses,
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpICMPLT, Dst: gpu.T(0), A: gpu.R(4), B: gpu.R(3)},
				{Op: gpu.OpOR, Dst: gpu.T(1), A: gpu.T(0), B: gpu.R(8)},
				{Op: gpu.OpICMPNE, Dst: gpu.R(28), A: gpu.T(1), B: gpu.S(gpu.SpecZero)},
				{Op: gpu.OpICMPNE, Dst: gpu.R(29), A: gpu.T(0), B: gpu.Imm},
				{Op: gpu.OpFCMPLT, Dst: gpu.T(2), A: gpu.R(3), B: gpu.R(4)},
				{Op: gpu.OpLDG, Dst: gpu.T(2), A: gpu.R(1)},
				{Op: gpu.OpICMPNE, Dst: gpu.R(30), A: gpu.T(2), B: gpu.S(gpu.SpecZero)},
				{Op: gpu.OpICMPEQ, Dst: gpu.T(3), A: gpu.T(0), B: gpu.S(gpu.SpecZero)},
				{Op: gpu.OpBRC, A: gpu.T(3), Imm: gpu.BranchImm(k+2, k+2)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(28)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(29)},
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(30)},
				{Op: gpu.OpICMPLE, Dst: gpu.T(1), A: gpu.R(3), B: gpu.R(4)},
				{Op: gpu.OpICMPEQ, Dst: gpu.R(31), A: gpu.T(1), B: gpu.Imm},
				{Op: gpu.OpICMPEQ, Dst: gpu.T(3), A: gpu.T(1), B: gpu.Imm},
				{Op: gpu.OpBRC, A: gpu.T(3), Imm: gpu.BranchImm(k+4, k+4)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x33},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.T(3)},
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(31)},
			}},
		)
	}

	if f.withRepeat {
		// Subexpressions one chain computes more than once, as clc emits a
		// stencil's neighbour rows (r32..r37, folded into r8): two values
		// each computed again after the literal tape overwrites their
		// temporaries (the optimiser keeps both in spare rows at once),
		// again into a register (which stays), again while a register
		// that is overwritten before the reader holds it, and again over a
		// source redefined between (a new value); and an address computed
		// twice for two loads into temporaries moved into registers
		// (rwLoads). The chain ends in a BRC no lane takes, so its
		// temporaries are dead after it.
		ops := []gpu.Opcode{gpu.OpIADD, gpu.OpISUB, gpu.OpIMUL, gpu.OpXOR, gpu.OpSHL, gpu.OpFADD, gpu.OpICMPLT}
		op1, b1, imm1 := ops[rnd.Intn(len(ops))], operand(), rnd.Uint32()
		op2, b2, imm2 := ops[rnd.Intn(len(ops))], operand(), rnd.Uint32()
		e := func(d uint8) gpu.Instr { return gpu.Instr{Op: op1, Dst: d, A: gpu.R(32), B: b1, Imm: imm1} }
		g := func(d uint8) gpu.Instr { return gpu.Instr{Op: op2, Dst: d, A: gpu.R(32), B: b2, Imm: imm2} }
		addr := []gpu.Instr{
			{Op: gpu.OpSHL, Dst: gpu.T(3), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 3},
			{Op: gpu.OpADD64, Dst: gpu.T(3), A: gpu.C(0), B: gpu.T(3)},
		}
		k := len(prog.Clauses)
		values := []gpu.Instr{
			{Op: gpu.OpMOV, Dst: gpu.R(32), A: src[rnd.Intn(len(src))]},
			e(gpu.T(0)),
			{Op: gpu.OpIADD, Dst: gpu.R(33), A: gpu.T(0), B: gpu.R(4)},
			{Op: gpu.OpXOR, Dst: gpu.T(0), A: gpu.R(33), B: gpu.R(4)},
			e(gpu.T(2)),
			g(gpu.T(1)),
			{Op: gpu.OpIMUL, Dst: gpu.R(34), A: gpu.T(2), B: gpu.T(1)},
			{Op: gpu.OpXOR, Dst: gpu.T(1), A: gpu.R(34), B: gpu.R(33)},
			g(gpu.T(3)),
			{Op: gpu.OpIADD, Dst: gpu.R(33), A: gpu.R(33), B: gpu.T(3)},
			e(gpu.R(35)),
			e(gpu.T(1)),
			{Op: gpu.OpIADD, Dst: gpu.R(35), A: gpu.R(35), B: gpu.R(33)},
			{Op: gpu.OpXOR, Dst: gpu.R(34), A: gpu.R(34), B: gpu.T(1)},
		}
		loads := []gpu.Instr{
			{Op: gpu.OpIADD, Dst: gpu.R(32), A: gpu.R(32), B: gpu.Imm, Imm: 1},
			e(gpu.T(2)),
			{Op: gpu.OpXOR, Dst: gpu.R(34), A: gpu.R(34), B: gpu.T(2)},
		}
		loads = append(loads, addr...)
		loads = append(loads,
			gpu.Instr{Op: gpu.OpLDG, Dst: gpu.T(0), A: gpu.T(3)},
			gpu.Instr{Op: gpu.OpMOV, Dst: gpu.R(36), A: gpu.T(0)})
		loads = append(loads, addr...)
		loads = append(loads,
			gpu.Instr{Op: gpu.OpLDG, Dst: gpu.T(1), A: gpu.T(3), Imm: 4},
			gpu.Instr{Op: gpu.OpMOV, Dst: gpu.R(37), A: gpu.T(1)},
			gpu.Instr{Op: gpu.OpBRC, A: gpu.S(gpu.SpecZero), Imm: gpu.BranchImm(k+2, k+2)})
		var fold []gpu.Instr
		for r := 33; r <= 37; r++ {
			fold = append(fold, gpu.Instr{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(r)})
		}
		prog.Clauses = append(prog.Clauses, gpu.Clause{Instrs: values}, gpu.Clause{Instrs: loads}, gpu.Clause{Instrs: fold})
	}

	if f.withLoop {
		// A counted loop that re-enters its own tape, as clc emits DCT's
		// inner loop: invariant subexpressions over rows the loop never
		// writes, through temporaries the loop writes again later, into a
		// register it writes once, and next to a loop-carried row (r40..r43,
		// folded into r8). Each lane runs 4 + (gid & mask) trips, so with
		// mask 3 the loop's BRC splits on a later trip.
		ops := []gpu.Opcode{gpu.OpIADD, gpu.OpISUB, gpu.OpIMUL, gpu.OpXOR, gpu.OpSHL, gpu.OpFADD, gpu.OpICMPLT}
		op := func() gpu.Opcode { return ops[rnd.Intn(len(ops))] }
		inv := []uint8{gpu.R(3), gpu.R(4), gpu.R(5), gpu.C(2), gpu.S(gpu.SpecGIDX), gpu.Imm}
		pick := func() uint8 { return inv[rnd.Intn(len(inv))] }
		k := len(prog.Clauses)
		prog.Clauses = append(prog.Clauses,
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpMOV, Dst: gpu.R(38), A: gpu.S(gpu.SpecZero)},
				{Op: gpu.OpAND, Dst: gpu.R(39), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: uint32(rnd.Intn(2) * 3)},
				{Op: gpu.OpIADD, Dst: gpu.R(39), A: gpu.R(39), B: gpu.Imm, Imm: 4},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: op(), Dst: gpu.T(0), A: pick(), B: pick(), Imm: rnd.Uint32()},
				{Op: op(), Dst: gpu.T(1), A: gpu.T(0), B: pick(), Imm: rnd.Uint32()},
				{Op: op(), Dst: gpu.T(0), A: gpu.T(1), B: pick(), Imm: rnd.Uint32()},
				{Op: gpu.OpIADD, Dst: gpu.T(1), A: gpu.T(0), B: gpu.R(38)},
				{Op: gpu.OpXOR, Dst: gpu.R(40), A: gpu.R(40), B: gpu.T(1)},
				{Op: op(), Dst: gpu.R(41), A: pick(), B: pick(), Imm: rnd.Uint32()},
				{Op: gpu.OpIADD, Dst: gpu.R(42), A: gpu.R(42), B: gpu.R(41)},
				{Op: op(), Dst: gpu.T(2), A: gpu.R(43), B: pick(), Imm: rnd.Uint32()},
				{Op: gpu.OpIADD, Dst: gpu.R(43), A: gpu.R(38), B: gpu.T(2)},
				{Op: gpu.OpIADD, Dst: gpu.T(0), A: gpu.R(40), B: gpu.R(38)},
				{Op: gpu.OpXOR, Dst: gpu.R(42), A: gpu.R(42), B: gpu.T(0)},
				{Op: gpu.OpIADD, Dst: gpu.R(38), A: gpu.R(38), B: gpu.Imm, Imm: 1},
				{Op: gpu.OpICMPLT, Dst: gpu.T(3), A: gpu.R(38), B: gpu.R(39)},
				{Op: gpu.OpBRC, A: gpu.T(3), Imm: gpu.BranchImm(k+1, k+2)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(40)},
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(42)},
				{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(43)},
			}},
		)
	}

	if f.withStride {
		// Lane-strided global loads through the warp engine's leaf path
		// and off it: stride 68 keeps a whole warp's span well inside one
		// page (served in execLeaf), stride 1020 makes some warps' spans
		// cross a page boundary (the per-lane loop) — data and counters
		// must be identical either way. Addresses stay inside the input
		// allocation's page of slack (bounded by gid and by gid&7).
		d1, d2 := dst(), dst()
		prog.Clauses = append(prog.Clauses, gpu.Clause{Instrs: []gpu.Instr{
			{Op: gpu.OpIMUL, Dst: gpu.T(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 68},
			{Op: gpu.OpADD64, Dst: gpu.T(0), A: gpu.C(0), B: gpu.T(0)},
			{Op: gpu.OpLDG, Dst: d1, A: gpu.T(0)},
			{Op: gpu.OpAND, Dst: gpu.T(1), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 7},
			{Op: gpu.OpIMUL, Dst: gpu.T(1), A: gpu.T(1), B: gpu.Imm, Imm: 1020},
			{Op: gpu.OpADD64, Dst: gpu.T(1), A: gpu.C(0), B: gpu.T(1)},
			{Op: gpu.OpLDG, Dst: d2, A: gpu.T(1)},
		}})
		src = append(src, d1, d2)
	}

	if f.withCross {
		// Page-crossing accesses: the fixed-offset LDG64 straddles the
		// input buffer's first page boundary (every thread loads the same
		// address), and the STG straddles the scratch buffer's — both
		// must fall off the walker's single-page fast path identically
		// under every engine. The store writes the same uniform constant
		// from every thread, so the race is benign and the result
		// deterministic.
		prog.Clauses = append(prog.Clauses, gpu.Clause{Instrs: []gpu.Instr{
			{Op: gpu.OpADD64, Dst: gpu.R(24), A: gpu.C(0), B: gpu.Imm, Imm: 4092},
			{Op: gpu.OpLDG64, Dst: gpu.R(25), A: gpu.R(24)},
			{Op: gpu.OpADD64, Dst: gpu.R(24), A: gpu.C(3), B: gpu.Imm, Imm: diffScratchOff},
			{Op: gpu.OpSTG, A: gpu.R(24), B: gpu.C(2)},
		}})
		src = append(src, gpu.R(25))
	}

	if f.withLocal {
		// Per-thread local slot traffic, with a barrier between store and
		// load (also a guest memory fence).
		prog.Clauses = append(prog.Clauses,
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpSTL, A: gpu.R(6), B: gpu.R(4)},
				{Op: gpu.OpBARRIER},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpLDL, Dst: dst(), A: gpu.R(6)},
			}},
		)
		src = append(src, gpu.R(nextDst-1))
	}

	if f.withUniformBranch {
		// Branches on a warp-uniform predicate, decided once per warp with
		// no lane diverging: a loop back-edge whose condition — an argument
		// the kernel was not given, or the zero special — reads zero, then
		// a forward branch every lane takes, on c2 or on the branch's own
		// immediate, over a clause that must not run.
		k := len(prog.Clauses)
		zero := []uint8{gpu.C(7), gpu.S(gpu.SpecZero)}[rnd.Intn(2)]
		taken := []uint8{gpu.C(2), gpu.Imm}[rnd.Intn(2)]
		prog.Clauses = append(prog.Clauses,
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 1},
				{Op: gpu.OpBRC, A: zero, Imm: gpu.BranchImm(k, k+1)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpBRC, A: taken, Imm: gpu.BranchImm(k+3, k+3)},
			}},
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x7700},
			}},
		)
	}

	if f.withFault {
		// Every thread faults: a load that succeeds, a run of nothing but
		// NOPs, a load from an unmapped address. The job ends in a fault
		// with the NOPs counted and nothing after them.
		prog.Clauses = append(prog.Clauses, gpu.Clause{Instrs: []gpu.Instr{
			{Op: gpu.OpMOV, Dst: gpu.R(23), A: gpu.Imm, Imm: diffUnmapped},
			{Op: gpu.OpLDG, Dst: gpu.R(22), A: gpu.R(1)},
			{Op: gpu.OpNOP},
			{Op: gpu.OpNOP},
			{Op: gpu.OpLDG, Dst: gpu.R(23), A: gpu.R(23)},
			{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(23)},
		}})
	}

	if f.withDiverge {
		// clause d:   brc r7 -> taken, rejoin
		// clause d+1: fall path, br rejoin
		// clause d+2: taken path, falls through
		// clause d+3: rejoin (the final store clause below)
		d := len(prog.Clauses)
		fall := []gpu.Instr{{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x101}}
		taken := []gpu.Instr{{Op: gpu.OpFMUL, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x40490FDB}}
		if f.withDivergentMem {
			// Memory under a mask: each path loads the word at gid&7 × 1172
			// into the input allocation and stores its low byte into the
			// thread's out slice. The even lanes of the second warp of
			// eight load from one page, its odd lanes from two.
			access := []gpu.Instr{
				{Op: gpu.OpAND, Dst: gpu.T(1), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 7},
				{Op: gpu.OpIMUL, Dst: gpu.T(1), A: gpu.T(1), B: gpu.Imm, Imm: 1172},
				{Op: gpu.OpADD64, Dst: gpu.T(1), A: gpu.C(0), B: gpu.T(1)},
				{Op: gpu.OpLDG, Dst: gpu.R(24), A: gpu.T(1)},
				{Op: gpu.OpSTGB, A: gpu.R(2), B: gpu.R(24), Imm: 13},
			}
			fall, taken = append(fall, access...), append(taken, access...)
		}
		prog.Clauses = append(prog.Clauses,
			gpu.Clause{Instrs: []gpu.Instr{
				{Op: gpu.OpBRC, A: gpu.R(7), Imm: gpu.BranchImm(d+2, d+3)},
			}},
			gpu.Clause{Instrs: append(fall, gpu.Instr{Op: gpu.OpBR, Imm: uint32(d + 3)})},
			gpu.Clause{Instrs: taken},
		)
	}

	// Final clause: fold two random live registers into the output slice
	// alongside the raw loads, then terminate. The misaligned variant adds
	// in-slice stores that are not naturally aligned.
	a, b := src[rnd.Intn(len(src))], src[rnd.Intn(len(src))]
	final := []gpu.Instr{
		{Op: gpu.OpXOR, Dst: gpu.R(21), A: a, B: gpu.R(8)},
		{Op: gpu.OpSTG64, A: gpu.R(2), B: gpu.R(21)},
		{Op: gpu.OpSTG, A: gpu.R(2), B: b, Imm: 8},
		{Op: gpu.OpSTGB, A: gpu.R(2), B: gpu.R(5), Imm: 12},
	}
	if f.withMisalign {
		final = append(final,
			gpu.Instr{Op: gpu.OpSTG, A: gpu.R(2), B: gpu.R(22), Imm: 9},
			gpu.Instr{Op: gpu.OpSTGB, A: gpu.R(2), B: gpu.R(23), Imm: 15},
		)
	}
	final = append(final, gpu.Instr{Op: gpu.OpRET})
	prog.Clauses = append(prog.Clauses, gpu.Clause{Instrs: final})
	for i := range prog.Clauses {
		prog.Clauses[i].Addr = uint64(i) * 0x10
	}
	return prog
}

// runDifferentialEngine executes prog on a fresh device with the given
// engine and returns the output buffer plus the stats records.
func runDifferentialEngine(t *testing.T, eng gpu.Engine, prog *gpu.Program, in []byte, global, local [3]uint32, localBytes uint32) ([]byte, any) {
	return runDifferentialEngineAt(t, eng, prog, in, global, local, localBytes, 0, gpu.IRQJobDone)
}

// runDifferentialEngineAt is runDifferentialEngine with the local slots
// starting localOff bytes into their allocation, for a job that ends with
// the interrupt bit want set.
func runDifferentialEngineAt(t *testing.T, eng gpu.Engine, prog *gpu.Program, in []byte, global, local [3]uint32, localBytes uint32, localOff uint64, want uint32) ([]byte, any) {
	t.Helper()
	cfg := gpu.DefaultConfig()
	cfg.Engine = eng
	r := newRig(t, cfg)

	// The input allocation carries a page of slack so the fixed-offset
	// page-crossing load (withCross) and the +3 misaligned LDG64 of the
	// last thread always hit mapped, deterministically zeroed memory.
	inVA := r.allocBuf(len(in) + 8192)
	if err := r.bus.WriteBytes(inVA, in); err != nil {
		t.Fatal(err)
	}
	outLen := int(global[0]) * diffOutStride
	outVA := r.allocBuf(outLen)
	scratchVA := r.allocBuf(8192)
	progVA, progSize := r.loadProgram(prog)

	desc := &gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: global,
		LocalSize:  local,
		ShaderVA:   progVA,
		ShaderSize: progSize,
	}
	if localBytes > 0 {
		desc.LocalMemBytes = localBytes
		desc.LocalMemVA = r.allocBuf(int(localBytes)*cfg.ShaderCores+int(localOff)) + localOff
	}
	raw := r.submit(desc, []uint64{inVA, outVA, 0x1234_5678, scratchVA})
	if raw&want == 0 {
		t.Fatalf("engine %v: rawstat=%#x, want bit %#x", eng, raw, want)
	}
	out := make([]byte, outLen)
	if err := r.bus.ReadBytes(outVA, out); err != nil {
		t.Fatal(err)
	}
	// Fold the crossing-store bytes into the compared output so the
	// scratch page is part of the differential too.
	scr := make([]byte, 8)
	if err := r.bus.ReadBytes(scratchVA+diffScratchOff-2, scr); err != nil {
		t.Fatal(err)
	}
	out = append(out, scr...)
	gs, sys := r.dev.Stats()
	// Control-register traffic counts the harness's own IRQ polling loop,
	// whose iteration count is host-timing dependent — it says nothing
	// about the engines, so it is excluded from the differential.
	sys.CtrlRegReads, sys.CtrlRegWrites = 0, 0
	return out, [2]any{gs, sys}
}

// TestRigRAMIsZeroed holds the rig to the premise the differential trials
// rest on: every guest RAM a rig takes is all zero, although rigs recycle
// it (newRig). Each RAM parked during a few trials is scanned whole.
func TestRigRAMIsZeroed(t *testing.T) {
	var audited, dirty atomic.Int64
	mem.SetRecycleAudit(func(store []byte, _ uint64) {
		audited.Add(1)
		var zero [mem.PageSize]byte
		for off := 0; off < len(store); off += len(zero) {
			if !bytes.Equal(store[off:off+len(zero)], zero[:]) {
				dirty.Add(1)
				return
			}
		}
	})
	defer mem.SetRecycleAudit(nil)
	for _, seed := range []uint64{4, 1<<39 | 6, 1<<40 | 1<<33 | 9} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runDifferential(t, seed, 5, 0x80|3, 20) })
	}
	if audited.Load() == 0 || dirty.Load() != 0 {
		t.Errorf("%d of %d recycled rig RAMs were not zeroed", dirty.Load(), audited.Load())
	}
}

// runDifferential is one differential trial: generate once, run both
// engines, require guest memory and statistics identical to the
// interpreter reference.
func runDifferential(t *testing.T, seed uint64, threadsSel, localSel, nALUSel uint8) {
	rnd := rand.New(rand.NewSource(int64(seed)))
	lsz := uint32(1 + localSel%8)
	gsz := lsz * uint32(1+threadsSel%12)
	nALU := int(nALUSel % 48)
	// The low half of the seed picks the sections the corpus has always
	// had; bits 32 and 33 add the uniform branches and the faulting clause,
	// bits 34 to 36 the temporaries the tape optimiser must leave alone, bit
	// 37 the boolean re-tests, bit 38 the repeated subexpressions, bit 39
	// memory inside the divergent paths, bit 40 the counted loop whose
	// invariants the re-entry variant leaves out.
	f := diffFeatures{
		withLocal:         seed%3 == 0,
		withDiverge:       seed%2 == 0,
		withMisalign:      seed%5 == 0,
		withCross:         seed%4 == 0,
		withStride:        seed%6 == 0,
		withUniformBranch: seed>>32&1 != 0,
		withFault:         seed>>33&1 != 0,
		withTempAcross:    seed>>34&1 != 0,
		withTempPred:      seed>>35&1 != 0,
		withTempAcc:       seed>>36&1 != 0,
		withBoolRetest:    seed>>37&1 != 0,
		withRepeat:        seed>>38&1 != 0,
		withDivergentMem:  seed>>39&1 != 0,
		withLoop:          seed>>40&1 != 0,
	}
	want := uint32(gpu.IRQJobDone)
	if f.withFault {
		want = gpu.IRQJobFault
	}

	prog := genDifferentialProgram(rnd, nALU, f)
	// The top bit of localSel starts the local slots two words before a
	// page boundary: slot 0's first warp then has lanes on both pages (the
	// leaf hands its LDL/STL back), every other warp all of its lanes on one.
	var localBytes uint32
	var localOff uint64
	if f.withLocal {
		localBytes = 4 * lsz
		if localSel&0x80 != 0 {
			localOff = mem.PageSize - 8
		}
	}
	in := make([]byte, int(gsz)*8)
	rnd.Read(in)

	global, local := [3]uint32{gsz, 1, 1}, [3]uint32{lsz, 1, 1}
	outRef, statsRef := runDifferentialEngineAt(t, gpu.EngineInterp, prog, in, global, local, localBytes, localOff, want)
	out, stats := runDifferentialEngineAt(t, gpu.EngineWarp, prog, in, global, local, localBytes, localOff, want)
	if !bytes.Equal(outRef, out) {
		for i := range outRef {
			if outRef[i] != out[i] {
				t.Fatalf("guest memory diverged at out[%d]: interp %#x, warp %#x\nprogram:\n%s",
					i, outRef[i], out[i], prog.Disassemble())
			}
		}
	}
	if statsRef != stats {
		t.Fatalf("stats diverged:\ninterp: %+v\nwarp: %+v\nprogram:\n%s", statsRef, stats, prog.Disassemble())
	}
}

// FuzzDifferentialEngines is the fuzz entry point. The seed corpus doubles
// as the always-on regression suite: plain `go test` replays every seed
// kernel under both engines. Seeds are chosen so every generator
// feature combination — divergence inside warp-fused programs, partial
// tail warps (lsz not a multiple of WarpSize), misaligned and
// page-crossing LDG/STG, and lane-strided spans on both sides of the
// leaf's one-page test — appears in the corpus.
func FuzzDifferentialEngines(f *testing.F) {
	for seed := uint64(0); seed < 40; seed++ {
		f.Add(seed, uint8(seed*7), uint8(seed*3), uint8(16+seed))
	}
	// The tape's masked-commit path: divergent kernels (even seeds) over
	// partial tail warps (local sizes 1, 2, 3, 5, 6, 7), with and without
	// local memory, misaligned, page-crossing and strided accesses, and
	// with enough ALU slots to hit most of the case table under a mask.
	for i, seed := range []uint64{2, 4, 6, 8, 10, 12, 20, 24, 30, 60} {
		localSel := []uint8{0, 1, 2, 4, 5, 6}[i%6]
		f.Add(seed, uint8(3+i), localSel, uint8(47))
	}
	// Local slots that straddle a page, under divergent kernels: full warps
	// (lsz 8) and a one-lane tail warp (lsz 5).
	f.Add(uint64(6), uint8(11), uint8(0x80|7), uint8(20))
	f.Add(uint64(12), uint8(5), uint8(0x80|4), uint8(30))
	// Statistics beside the tape: a BRC back-edge and a forward BRC on
	// uniform predicates, in a divergent kernel over a partial tail warp;
	// and a fault after a run of NOPs, the job ending in a fault under both
	// engines with the same counters.
	f.Add(uint64(1<<32|10), uint8(7), uint8(4), uint8(24))
	f.Add(uint64(1<<33|9), uint8(5), uint8(2), uint8(12))
	// Temporaries the tape optimiser must not forward: read in the next
	// clause, read by a chain's BRC predicate, read by FMA and SEL as the
	// accumulator — in divergent kernels over a partial tail warp and over
	// full warps, and in a kernel that does not diverge.
	f.Add(uint64(1<<34|12), uint8(6), uint8(2), uint8(20))
	f.Add(uint64(1<<35|4), uint8(9), uint8(7), uint8(30))
	f.Add(uint64(1<<36|7), uint8(4), uint8(3), uint8(16))
	// Float arithmetic on two NaNs, whose result payload the host picks by
	// operand order: both engines canonicalise it.
	f.Add(uint64(122), uint8(0xfb), uint8(74), uint8(76))
	f.Add(uint64(122), uint8(0x05), uint8(0x84), uint8(0x1c))
	// Boolean re-tests the optimiser rewrites and ones it must leave
	// alone, in a divergent kernel over a partial tail warp and in a kernel
	// that does not diverge.
	f.Add(uint64(1<<37|8), uint8(5), uint8(6), uint8(18))
	f.Add(uint64(1<<37|7), uint8(3), uint8(3), uint8(22))
	// Repeated subexpressions the optimiser computes once, and the ones it
	// must compute again, in a divergent kernel over a partial tail warp,
	// in one that does not diverge, with the faulting clause and with
	// every optimiser section at once.
	f.Add(uint64(1<<38|4), uint8(5), uint8(6), uint8(18))
	f.Add(uint64(1<<38|7), uint8(3), uint8(7), uint8(30))
	f.Add(uint64(1<<38|1<<33|9), uint8(4), uint8(2), uint8(12))
	f.Add(uint64(0x7f<<32|10), uint8(6), uint8(4), uint8(24))
	// Memory under a mask, which execLeaf serves when the TLB holds the
	// active lanes' pages: divergent kernels whose paths load and store on
	// one page and, in a warp's odd lanes, on two — over full warps, over a
	// partial tail warp, with the page-crossing section and with local
	// slots that straddle a page.
	f.Add(uint64(1<<39|2), uint8(3), uint8(7), uint8(12))
	f.Add(uint64(1<<39|14), uint8(5), uint8(5), uint8(20))
	f.Add(uint64(1<<39|4), uint8(7), uint8(3), uint8(30))
	f.Add(uint64(1<<39|6), uint8(2), uint8(0x80|7), uint8(16))
	// A counted loop the re-entry variant runs, its invariants hoisted: in
	// a kernel that does not diverge, in divergent kernels over a partial
	// tail warp and over full warps, with the faulting clause behind it and
	// with every optimiser section at once.
	f.Add(uint64(1<<40|7), uint8(3), uint8(7), uint8(12))
	f.Add(uint64(1<<40|4), uint8(5), uint8(6), uint8(20))
	f.Add(uint64(1<<40|8), uint8(7), uint8(3), uint8(30))
	f.Add(uint64(1<<40|1<<33|9), uint8(4), uint8(2), uint8(12))
	f.Add(uint64(0xff<<32|10), uint8(6), uint8(4), uint8(24))
	f.Fuzz(func(t *testing.T, seed uint64, threadsSel, localSel, nALUSel uint8) {
		runDifferential(t, seed, threadsSel, localSel, nALUSel)
	})
}
