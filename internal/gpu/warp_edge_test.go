package gpu_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mobilesim/internal/gpu"
	"mobilesim/internal/stats"
)

// Table-driven edge cases for the warp-batched engine's fast/fallback
// boundary: partial tail warps (lanes < WarpSize), warps whose lanes all
// exit while a fused clause chain is still scheduled, pend/join mask
// interaction under nested divergence, and the misaligned/page-crossing
// memory shapes that must leave the fused LDG/STG path. Each case runs
// the same program under both engines and requires bit-identical
// guest memory and statistics; `check` additionally asserts (on the
// interpreter reference) that the case really exercised what its name
// claims.

type warpEdgeCase struct {
	name          string
	global, local [3]uint32
	prog          func() *gpu.Program
	check         func(t *testing.T, gs stats.GPUStats)
}

// edgeSetup is the shared ABI prologue: r1 = &in[gid*8], r2 =
// &out[gid*16], r3 = in word, r7 = gid parity, r9 = gid bit 1.
func edgeSetup() []gpu.Instr {
	return []gpu.Instr{
		{Op: gpu.OpSHL, Dst: gpu.R(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 3},
		{Op: gpu.OpADD64, Dst: gpu.R(1), A: gpu.C(0), B: gpu.R(0)},
		{Op: gpu.OpSHL, Dst: gpu.R(0), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 4},
		{Op: gpu.OpADD64, Dst: gpu.R(2), A: gpu.C(1), B: gpu.R(0)},
		{Op: gpu.OpLDG, Dst: gpu.R(3), A: gpu.R(1)},
		{Op: gpu.OpAND, Dst: gpu.R(7), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 1},
		{Op: gpu.OpAND, Dst: gpu.R(9), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 2},
	}
}

// edgeStore is the shared epilogue clause: spill r8 and the raw input
// into the thread's output slice and terminate. edgeSetup's load and these
// stores are words, which the warp engine lowers to memory micro-ops.
func edgeStore() gpu.Clause {
	return gpu.Clause{Instrs: []gpu.Instr{
		{Op: gpu.OpSTG, A: gpu.R(2), B: gpu.R(8)},
		{Op: gpu.OpSTG, A: gpu.R(2), B: gpu.R(3), Imm: 8},
		{Op: gpu.OpRET},
	}}
}

func edgeProgram(clauses ...gpu.Clause) *gpu.Program {
	p := &gpu.Program{RegCount: 26, Uniforms: 4}
	p.Clauses = append(p.Clauses, gpu.Clause{Instrs: edgeSetup()})
	p.Clauses = append(p.Clauses, clauses...)
	for i := range p.Clauses {
		p.Clauses[i].Addr = uint64(i) * 0x10
	}
	return p
}

var warpEdgeCases = []warpEdgeCase{
	// Fused straight-line ALU over every tail-warp shape: local sizes
	// 1/3/5/7 give warps with 1..3 live lanes next to full quads.
	{
		name: "fused_alu_tail_lsz1", global: [3]uint32{5, 1, 1}, local: [3]uint32{1, 1, 1},
		prog: fusedALUProgram,
	},
	{
		name: "fused_alu_tail_lsz3", global: [3]uint32{9, 1, 1}, local: [3]uint32{3, 1, 1},
		prog: fusedALUProgram,
	},
	{
		name: "fused_alu_tail_lsz5", global: [3]uint32{15, 1, 1}, local: [3]uint32{5, 1, 1},
		prog: fusedALUProgram,
	},
	{
		name: "fused_alu_tail_lsz7", global: [3]uint32{21, 1, 1}, local: [3]uint32{7, 1, 1},
		prog: fusedALUProgram,
		check: func(t *testing.T, gs stats.GPUStats) {
			if gs.Warps != 3*2 { // 3 workgroups x (one quad + 3-lane tail)
				t.Errorf("expected 6 warps, got %d", gs.Warps)
			}
		},
	},
	// Every lane exits at a fused clause's RET terminal while later
	// clauses are still present in the program.
	{
		name: "all_lanes_exit_mid_program", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 0x55},
					{Op: gpu.OpSTG64, A: gpu.R(2), B: gpu.R(8)},
					{Op: gpu.OpRET},
				}},
				// Dead tail: must never execute, under any engine.
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpSTG64, A: gpu.R(2), B: gpu.Imm, Imm: 0xDEAD},
					{Op: gpu.OpRET},
				}},
			)
		},
	},
	// Divergent branch whose taken path RETs: half the lanes exit inside
	// the divergent region, the rest must still rejoin and finish.
	{
		name: "diverge_taken_ret", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpBRC, A: gpu.R(7), Imm: gpu.BranchImm(2, 3)},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // taken: store and exit
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 0x100},
					{Op: gpu.OpSTG64, A: gpu.R(2), B: gpu.R(8)},
					{Op: gpu.OpRET},
				}},
				edgeStore(), // fall path rejoins here
			)
		},
		check: func(t *testing.T, gs stats.GPUStats) {
			if gs.DivergentBranches == 0 {
				t.Error("expected divergent branches")
			}
		},
	},
	// Both divergent paths RET: the warp drains without ever reaching the
	// reconvergence point, so the pend stack must unwind via exits alone.
	{
		name: "both_paths_ret", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpBRC, A: gpu.R(7), Imm: gpu.BranchImm(3, 4)},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // fall path
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 0x200},
					{Op: gpu.OpSTG64, A: gpu.R(2), B: gpu.R(8)},
					{Op: gpu.OpRET},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // taken path
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 0x300},
					{Op: gpu.OpSTG64, A: gpu.R(2), B: gpu.R(8), Imm: 8},
					{Op: gpu.OpRET},
				}},
			)
		},
	},
	// Nested divergence where the inner diamond reconverges at the outer
	// rejoin clause: two pend frames with the same join address exercise
	// the pend/join mask bookkeeping.
	{
		name: "nested_divergence_shared_join", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{ // c1: outer split on bit 0
					{Op: gpu.OpBRC, A: gpu.R(7), Imm: gpu.BranchImm(3, 6)},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // c2: outer fall path
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x1000},
					{Op: gpu.OpBR, Imm: 6},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // c3: outer taken, inner split on bit 1
					{Op: gpu.OpBRC, A: gpu.R(9), Imm: gpu.BranchImm(5, 6)},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // c4: inner fall path
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x100},
					{Op: gpu.OpBR, Imm: 6},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // c5: inner taken, falls through
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x10},
				}},
				edgeStore(), // c6: shared rejoin
			)
		},
		check: func(t *testing.T, gs stats.GPUStats) {
			if gs.DivergentBranches < 2 {
				t.Errorf("expected nested divergence, got %d divergent branches", gs.DivergentBranches)
			}
		},
	},
	// Divergence on a 3-lane tail warp: the active mask never covers a
	// full quad, so fused bodies, branch bookkeeping and rejoin all run
	// with lanes < WarpSize.
	{
		name: "diverge_partial_tail", global: [3]uint32{9, 1, 1}, local: [3]uint32{3, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpBRC, A: gpu.R(7), Imm: gpu.BranchImm(3, 4)},
				}},
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 0x21},
					{Op: gpu.OpBR, Imm: 4},
				}},
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 0x42},
				}},
				edgeStore(),
			)
		},
	},
	// Barrier rendezvous across a partial tail warp.
	{
		name: "barrier_tail", global: [3]uint32{10, 1, 1}, local: [3]uint32{5, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 0x77},
					{Op: gpu.OpBARRIER},
				}},
				edgeStore(),
			)
		},
	},
	// Misaligned (in-page) global loads through the fused LDG path.
	{
		name: "misaligned_ldg", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpLDG, Dst: gpu.R(8), A: gpu.R(1), Imm: 1},
					{Op: gpu.OpLDG64, Dst: gpu.R(10), A: gpu.R(1), Imm: 3},
					{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(10)},
				}},
				edgeStore(),
			)
		},
	},
	// A load that straddles a page boundary: the walker must leave its
	// single-page fast path under every engine, with identical TLB and
	// main-memory accounting.
	{
		name: "page_crossing_ldg64", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpADD64, Dst: gpu.R(10), A: gpu.C(0), B: gpu.Imm, Imm: 4092},
					{Op: gpu.OpLDG64, Dst: gpu.R(8), A: gpu.R(10)},
				}},
				edgeStore(),
			)
		},
	},
	// A page-crossing store, reached by exactly one lane through a
	// divergent skip (so the crossing bytes are written once and the
	// result is deterministic). The differential harness folds the bytes
	// around the scratch page boundary into the compared output.
	{
		name: "page_crossing_stg", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{ // skip the store unless gid == 0
					{Op: gpu.OpICMPNE, Dst: gpu.R(10), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 0},
					{Op: gpu.OpBRC, A: gpu.R(10), Imm: gpu.BranchImm(3, 3)},
				}},
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpADD64, Dst: gpu.R(11), A: gpu.C(3), B: gpu.Imm, Imm: diffScratchOff},
					{Op: gpu.OpSTG, A: gpu.R(11), B: gpu.R(3)},
				}},
				edgeStore(),
			)
		},
	},
	// A BRC whose target is the clause a fallthrough chain would otherwise
	// absorb: taken lanes enter c3 directly with r8 still zero, fall lanes
	// flow through c2 into c3 — fusing c2→c3 would run c2 on taken lanes.
	{
		name: "brc_into_mid_chain", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpBRC, A: gpu.R(7), Imm: gpu.BranchImm(3, 4)},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // c2: fall path, falls through into c3
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 0x11},
				}},
				gpu.Clause{Instrs: []gpu.Instr{ // c3: also the branch target
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x2200},
				}},
				edgeStore(), // c4: rejoin
			)
		},
		check: func(t *testing.T, gs stats.GPUStats) {
			if gs.DivergentBranches == 0 {
				t.Error("expected divergent branches")
			}
		},
	},
	// Fusable ALU chains on both sides of a barrier: the chain before it
	// must end at the BARRIER terminal, the resume clause heads a new one.
	{
		name: "barrier_between_fused_chains", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 1},
				}},
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.Imm, Imm: 0x30},
					{Op: gpu.OpBARRIER},
				}},
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpSHL, Dst: gpu.R(10), A: gpu.R(8), B: gpu.Imm, Imm: 1},
				}},
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(10)},
				}},
				edgeStore(),
			)
		},
	},
	// Lane stride 1020: warp 0's lanes (3064 B apart at most) fit one page
	// and execLeaf serves its LDG, warp 1's cross the page boundary and go
	// to the per-lane loop — identical data and counters either way.
	{
		name: "strided_ldg_page_cross_fallback", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpIMUL, Dst: gpu.R(10), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 1020},
					{Op: gpu.OpADD64, Dst: gpu.R(10), A: gpu.C(0), B: gpu.R(10)},
					{Op: gpu.OpLDG, Dst: gpu.R(11), A: gpu.R(10)},
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(11), B: gpu.R(3)},
				}},
				edgeStore(),
			)
		},
	},
	// Stores with lane-permuted (descending within each quad) addresses,
	// read back by the straight order: non-monotonic lanes must keep their
	// per-lane values exactly (each scratch slot is written by exactly one
	// thread).
	{
		name: "permuted_batched_stg", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpXOR, Dst: gpu.R(10), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 3},
					{Op: gpu.OpSHL, Dst: gpu.R(10), A: gpu.R(10), B: gpu.Imm, Imm: 3},
					{Op: gpu.OpADD64, Dst: gpu.R(10), A: gpu.C(3), B: gpu.R(10)},
					{Op: gpu.OpSTG64, A: gpu.R(10), B: gpu.R(3)},
				}},
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpSHL, Dst: gpu.R(11), A: gpu.S(gpu.SpecGIDX), B: gpu.Imm, Imm: 3},
					{Op: gpu.OpADD64, Dst: gpu.R(11), A: gpu.C(3), B: gpu.R(11)},
					{Op: gpu.OpLDG64, Dst: gpu.R(12), A: gpu.R(11)},
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(12), B: gpu.Imm, Imm: 5},
				}},
				edgeStore(),
			)
		},
	},
	// Clause temporaries threaded through fused ALU closures, plus FMA
	// (it reads its destination) and SEL (it selects on it): clc emits
	// neither, so the interpreter runs both mid-tape and writes r10 and r8.
	{
		name: "clause_temps_and_accumulators", global: [3]uint32{8, 1, 1}, local: [3]uint32{4, 1, 1},
		prog: func() *gpu.Program {
			return edgeProgram(
				gpu.Clause{Instrs: []gpu.Instr{
					{Op: gpu.OpMOV, Dst: gpu.T(0), A: gpu.R(3)},
					{Op: gpu.OpIADD, Dst: gpu.T(1), A: gpu.T(0), B: gpu.Imm, Imm: 9},
					{Op: gpu.OpSHL, Dst: gpu.T(2), A: gpu.T(1), B: gpu.Imm, Imm: 1},
					{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.T(2), B: gpu.T(0)},
					{Op: gpu.OpI2F, Dst: gpu.R(10), A: gpu.R(7)},
					{Op: gpu.OpFMA, Dst: gpu.R(10), A: gpu.R(10), B: gpu.Imm, Imm: 0x40400000},
					{Op: gpu.OpSEL, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(10)},
				}},
				edgeStore(),
			)
		},
	},
}

// fusedALUProgram is a straight-line, all-fusable kernel shared by the
// tail-warp cases.
func fusedALUProgram() *gpu.Program {
	return edgeProgram(
		gpu.Clause{Instrs: []gpu.Instr{
			{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(3), B: gpu.Imm, Imm: 13},
			{Op: gpu.OpIMUL, Dst: gpu.R(8), A: gpu.R(8), B: gpu.S(gpu.SpecGIDX)},
			{Op: gpu.OpXOR, Dst: gpu.R(8), A: gpu.R(8), B: gpu.S(gpu.SpecLIDX)},
		}},
		gpu.Clause{Instrs: []gpu.Instr{
			{Op: gpu.OpSAR, Dst: gpu.R(10), A: gpu.R(8), B: gpu.Imm, Imm: 3},
			{Op: gpu.OpIADD, Dst: gpu.R(8), A: gpu.R(8), B: gpu.R(10)},
		}},
		edgeStore(),
	)
}

// TestWarpEngineEdgeCases runs each edge program under both engines
// and requires interpreter-identical guest memory and statistics.
func TestWarpEngineEdgeCases(t *testing.T) {
	for _, tc := range warpEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog()
			in := make([]byte, int(tc.global[0])*8)
			rand.New(rand.NewSource(42)).Read(in)

			outRef, statsRef := runDifferentialEngine(t, gpu.EngineInterp, prog, in, tc.global, tc.local, 0)
			out, st := runDifferentialEngine(t, gpu.EngineWarp, prog, in, tc.global, tc.local, 0)
			if !bytes.Equal(outRef, out) {
				t.Fatalf("guest memory diverged under warp\nprogram:\n%s", prog.Disassemble())
			}
			if statsRef != st {
				t.Fatalf("stats diverged:\ninterp: %+v\nwarp: %+v\nprogram:\n%s",
					statsRef, st, prog.Disassemble())
			}
			if tc.check != nil {
				gs := statsRef.([2]any)[0].(stats.GPUStats)
				tc.check(t, gs)
			}
		})
	}
}
