package gpu

import (
	"fmt"
	"slices"
	"testing"
)

// Pins for the tape optimiser's guards (DESIGN.md §9). Each program below
// is shaped so that one guard — of a rewrite, or of a leaf case the
// rewrites lean on — is all that keeps the warp engine from computing
// something else; the golden table in optimise_golden_test.go pins that the
// rewrites fire on real kernels.

// optimiserCase is a hand-built program and what its tapes must look like.
type optimiserCase struct {
	name  string
	prog  *Program
	shape func(t *testing.T, wp *warpProgram)
}

func progOf(cs ...[]Instr) *Program {
	p := &Program{RegCount: 16}
	for _, in := range cs {
		p.Clauses = append(p.Clauses, Clause{Instrs: in})
	}
	return p
}

// endChain ends a chain with a BRC that no lane takes, into a clause that
// returns: the temporaries a chain that ends the program leaves are
// those written, so the values rewrites need a chain that does not.
var endChain = Instr{Op: OpBRC, A: S(SpecZero), Imm: BranchImm(1, 1)}

var optimiserCases = []optimiserCase{
	{
		// The boundary between the chain's clauses runs inside the leaf
		// loop and commits no result: under a mask, the sum left in the
		// scratch row before it must not reach r0, its d field's row.
		name: "chain_boundary_commits_nothing",
		prog: progOf(
			[]Instr{{Op: OpIADD, Dst: R(9), A: R(1), B: R(2)}},
			[]Instr{{Op: OpIADD, Dst: R(10), A: R(9), B: R(1)}, {Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if wp.heads()[0].n != 2 {
				t.Errorf("the two clauses did not form one chain")
			}
		},
	},
	{
		// t0 is read in the next clause, so the move out of it stays.
		name: "temp_read_in_next_clause",
		prog: progOf(
			[]Instr{{Op: OpIADD, Dst: T(0), A: R(1), B: R(2)}, {Op: OpMOV, Dst: R(9), A: T(0)}},
			[]Instr{{Op: OpIADD, Dst: R(10), A: T(0), B: R(1)}, {Op: OpRET}},
		),
	},
	{
		// t1 is the predicate of the BRC that ends c0's chain.
		name: "temp_read_by_chain_brc_predicate",
		prog: progOf(
			[]Instr{{Op: OpICMPLT, Dst: T(1), A: R(1), B: R(2)}, {Op: OpMOV, Dst: R(9), A: T(1)}},
			[]Instr{{Op: OpBRC, A: T(1), Imm: BranchImm(3, 3)}},
			[]Instr{{Op: OpIADD, Dst: R(10), A: R(1), B: Imm, Imm: 5}},
			[]Instr{{Op: OpIADD, Dst: R(11), A: R(10), B: R(2)}, {Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if wp.heads()[0].n != 2 || wp.heads()[0].tk != tkBRC {
				t.Errorf("c0 and the BRC did not form one chain")
			}
		},
	},
	{
		// clc emits no FMA or SEL, so the interpreter runs both
		// (kLaneInterp) and writes their temporaries: the move out of t2
		// is not forwarded into the FMA (forward stops at a kLaneInterp),
		// and t3's value from the FADD, which the SEL reads as its
		// predicate, is live after the move into r10 (temps: a kLaneInterp
		// reads every temporary).
		name: "interpreter_writes_temporaries",
		prog: progOf(
			[]Instr{
				{Op: OpI2F, Dst: T(2), A: S(SpecGIDX)},
				{Op: OpFMA, Dst: T(2), A: R(8), B: Imm, Imm: 0x40000000}, // t2 += r8 * 2.0
				{Op: OpMOV, Dst: R(9), A: T(2)},
				{Op: OpFADD, Dst: T(3), A: R(8), B: Imm, Imm: 0x3f800000}, // t3 = r8 + 1.0
				{Op: OpMOV, Dst: R(10), A: T(3)},
				{Op: OpSEL, Dst: T(3), A: R(1), B: R(2)},
				{Op: OpMOV, Dst: R(11), A: T(3)},
				{Op: OpRET},
			},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if ops := wp.clauses[0].ops; len(ops) != 7 || ops[1].kind() != kLaneInterp || ops[5].kind() != kLaneInterp {
				t.Errorf("want I2F, FMA by the interpreter, three moves, FADD and SEL by the interpreter: %d micro-ops", len(ops))
			}
		},
	},
	{
		// A fused address under every mask, loaded from and stored through.
		name: "fused_address",
		prog: progOf(
			[]Instr{
				{Op: OpIMUL, Dst: T(0), A: S(SpecLIDY), B: C(0)},
				{Op: OpIADD, Dst: T(1), A: T(0), B: S(SpecGIDX)},
				{Op: OpMUL64, Dst: T(2), A: T(1), B: Imm, Imm: 4},
				{Op: OpADD64, Dst: R(10), A: C(2), B: T(2)},
				{Op: OpLDG, Dst: R(11), A: R(10)},
				{Op: OpSTG, A: R(10), B: R(1), Imm: 8},
				{Op: OpRET},
			},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if ops := wp.clauses[0].ops; len(ops) != 3 || ops[0].kind() != kAddr {
				t.Errorf("the address idiom did not fuse into one micro-op: %d micro-ops", len(ops))
			}
		},
	},
	{
		// The address of a sum, DCT's inner-loop shape once the product
		// before it is hoisted: iadd → mul64 → add64 fuses into a kAddr
		// with an s1 of 1. r1 + gid.x wraps at 32 bits on lane 3 and sets
		// bit 31 on lane 1, so the sum must be zero-extended before the
		// 64-bit multiply, as the iadd leaves it.
		name: "fused_address_of_a_sum",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: T(1), A: R(1), B: S(SpecGIDX)},
				{Op: OpMUL64, Dst: T(2), A: T(1), B: Imm, Imm: 4},
				{Op: OpADD64, Dst: R(10), A: C(2), B: T(2)},
				{Op: OpRET},
			},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if ops := wp.clauses[0].ops; len(ops) != 1 || ops[0].kind() != kAddr {
				t.Errorf("iadd → mul64 → add64 did not fuse into one micro-op: %d micro-ops", len(ops))
			}
		},
	},
	{
		// rwBool: the icmpne of a compare's AND becomes a move forwarded
		// into the AND across a leaf op that touches neither row, and the
		// BRC reads t0 negated in place of the icmpeq of it.
		name: "boolean_retests",
		prog: progOf(
			[]Instr{
				{Op: OpICMPLT, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpFCMPLT, Dst: T(1), A: R(2), B: R(8)},
				{Op: OpAND, Dst: T(2), A: T(0), B: T(1)},
				{Op: OpIADD, Dst: R(12), A: R(1), B: R(2)},
				{Op: OpICMPNE, Dst: R(9), A: T(2), B: S(SpecZero)},
				{Op: OpICMPEQ, Dst: T(3), A: T(0), B: Imm},
				{Op: OpBRC, A: T(3), Imm: BranchImm(2, 2)},
			},
			[]Instr{{Op: OpIADD, Dst: R(10), A: R(1), B: Imm, Imm: 0x100}},
			[]Instr{{Op: OpIADD, Dst: R(11), A: R(9), B: R(2)}, {Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			c := &wp.clauses[0]
			if len(c.ops) != 4 || c.ops[2].kind() != kVV+uopKind(OpAND) || c.ops[2].d() != R(9) {
				t.Errorf("the re-test of the AND did not become the AND into r9: %d micro-ops", len(c.ops))
			}
			if c.pred.row != T(0) || c.pred.neg != 1 {
				t.Errorf("the BRC reads row %d negated %d, want t0 negated", c.pred.row, c.pred.neg)
			}
		},
	},
	{
		// A move that forwarding may not reach back across: a micro-op
		// between reads the move's destination r9, or the temporary t1.
		name: "forward_blocked_between",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpIADD, Dst: R(10), A: R(9), B: R(1)},
				{Op: OpMOV, Dst: R(9), A: T(0)},
				{Op: OpIADD, Dst: T(1), A: R(1), B: Imm, Imm: 3},
				{Op: OpIADD, Dst: R(11), A: T(1), B: R(2)},
				{Op: OpMOV, Dst: R(12), A: T(1)},
				{Op: OpRET},
			},
		),
	},
	{
		// A load between the producer and the move faults: the abort must
		// find r9 as the interpreter left it, unwritten.
		name: "forward_not_across_a_fault",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpLDG, Dst: R(13), A: Imm, Imm: 0xdead_0000},
				{Op: OpMOV, Dst: R(9), A: T(0)},
				{Op: OpRET},
			},
		),
	},
	{
		// Neither an OR of a compare with r8 nor a sum is boolean: both
		// re-tests stay.
		name: "retest_of_a_row_that_is_not_boolean",
		prog: progOf(
			[]Instr{
				{Op: OpICMPLT, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpOR, Dst: T(1), A: T(0), B: R(8)},
				{Op: OpICMPNE, Dst: R(9), A: T(1), B: S(SpecZero)},
				{Op: OpIADD, Dst: T(2), A: R(1), B: R(2)},
				{Op: OpICMPNE, Dst: R(10), A: T(2), B: Imm},
				{Op: OpRET},
			},
		),
	},
	{
		// A compare's result overwritten by a load and by a slow op before
		// its re-test is no longer boolean.
		name: "boolean_row_overwritten",
		prog: progOf(
			[]Instr{
				{Op: OpICMPLT, Dst: R(12), A: R(1), B: R(2)},
				{Op: OpLDG, Dst: R(12), A: R(4)},
				{Op: OpICMPNE, Dst: R(9), A: R(12), B: S(SpecZero)},
				{Op: OpFCMPLT, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpFMIN, Dst: T(0), A: R(1), B: R(8)},
				{Op: OpICMPNE, Dst: R(10), A: T(0), B: Imm},
				{Op: OpRET},
			},
		),
	},
	{
		// The BRC's icmpeq writes t1, which c2 reads after the terminal:
		// the icmpeq stays.
		name: "brc_retest_read_after_the_terminal",
		prog: progOf(
			[]Instr{
				{Op: OpICMPLT, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpICMPEQ, Dst: T(1), A: T(0), B: S(SpecZero)},
				{Op: OpBRC, A: T(1), Imm: BranchImm(2, 2)},
			},
			[]Instr{{Op: OpIADD, Dst: R(9), A: R(1), B: Imm, Imm: 0x100}},
			[]Instr{{Op: OpIADD, Dst: R(10), A: T(1), B: R(2)}, {Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if c := &wp.clauses[0]; len(c.ops) != 2 || c.pred.neg != 0 {
				t.Errorf("the icmpeq feeding the BRC went although c2 reads its result")
			}
		},
	},
	{
		// rwValues: clc's address of in[(y-1)*w + x] computed twice, for
		// two loads at different offsets. The second y-1 and the second
		// fused address go: t0 and t3 still hold them.
		name: "repeated_address",
		prog: progOf(
			[]Instr{
				{Op: OpISUB, Dst: T(0), A: S(SpecGIDX), B: Imm, Imm: 8},
				{Op: OpIMUL, Dst: T(1), A: T(0), B: C(0)},
				{Op: OpIADD, Dst: T(2), A: T(1), B: S(SpecLIDY)},
				{Op: OpMUL64, Dst: T(3), A: T(2), B: Imm, Imm: 4},
				{Op: OpADD64, Dst: T(3), A: C(2), B: T(3)},
				{Op: OpLDG, Dst: R(9), A: T(3)},
				{Op: OpISUB, Dst: T(0), A: S(SpecGIDX), B: Imm, Imm: 8},
				{Op: OpIMUL, Dst: T(1), A: T(0), B: C(0)},
				{Op: OpIADD, Dst: T(2), A: T(1), B: S(SpecLIDY)},
				{Op: OpMUL64, Dst: T(3), A: T(2), B: Imm, Imm: 4},
				{Op: OpADD64, Dst: T(3), A: C(2), B: T(3)},
				{Op: OpLDG, Dst: R(10), A: T(3), Imm: 4},
				endChain,
			},
			[]Instr{{Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if n := len(wp.heads()[0].ops); n != 4 {
				t.Errorf("the second address was computed again: %d micro-ops, want 4", n)
			}
		},
	},
	{
		// A value computed again after the literal tape overwrites its
		// temporary: the first computation keeps it in a spare row, and
		// the second goes.
		name: "repeated_value_kept_in_a_spare_row",
		prog: progOf(
			[]Instr{
				{Op: OpISUB, Dst: T(0), A: R(1), B: C(0)},
				{Op: OpIADD, Dst: R(9), A: T(0), B: R(8)},
				{Op: OpIMUL, Dst: T(0), A: R(9), B: R(1)},
				{Op: OpIADD, Dst: R(10), A: T(0), B: R(2)},
				{Op: OpISUB, Dst: T(0), A: R(1), B: C(0)},
				{Op: OpXOR, Dst: R(11), A: T(0), B: R(10)},
				endChain,
			},
			[]Instr{{Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if ops := wp.heads()[0].ops; len(ops) != 5 || ops[0].d() < rowSpare {
				t.Errorf("the value computed again was not kept in a spare row: %d micro-ops", len(ops))
			}
		},
	},
	{
		// r1 is redefined between two isubs of the same text: the second
		// computes another value and stays.
		name: "source_redefined_between",
		prog: progOf(
			[]Instr{
				{Op: OpISUB, Dst: T(0), A: R(1), B: C(0)},
				{Op: OpIADD, Dst: R(9), A: T(0), B: R(8)},
				{Op: OpIADD, Dst: R(1), A: R(1), B: Imm, Imm: 1},
				{Op: OpISUB, Dst: T(0), A: R(1), B: C(0)},
				{Op: OpIADD, Dst: R(10), A: T(0), B: R(8)},
				{Op: OpRET},
			},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if n := len(wp.heads()[0].ops); n != 5 {
				t.Errorf("%d micro-ops, want all 5", n)
			}
		},
	},
	{
		// r9 holds the sum t0 is computed again into, but is overwritten
		// before t0's reader: the computation stays.
		name: "holder_overwritten_before_the_reader",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: R(9), A: R(1), B: R(2)},
				{Op: OpIADD, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpIADD, Dst: R(9), A: R(9), B: R(8)},
				{Op: OpIADD, Dst: R(10), A: T(0), B: R(8)},
				endChain,
			},
			[]Instr{{Op: OpRET}},
		),
	},
	{
		// r9's first sum is overwritten in the same chain before anything
		// reads it, but the load between faults: the interpreter leaves
		// that sum in r9, so its micro-op stays.
		name: "register_overwritten_after_a_fault",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: R(9), A: R(1), B: R(2)},
				{Op: OpLDG, Dst: R(13), A: Imm, Imm: 0xdead_0000},
				{Op: OpIADD, Dst: R(9), A: R(8), B: R(8)},
				endChain,
			},
			[]Instr{{Op: OpRET}},
		),
	},
	{
		// SobelFilter's unfused address of a row whose fused address a row
		// still holds: the tail goes, and the iadd only it read with it.
		name: "unfused_address_of_a_fused_one",
		prog: progOf(
			[]Instr{
				{Op: OpIMUL, Dst: T(0), A: S(SpecLIDY), B: C(0)},
				{Op: OpIADD, Dst: T(1), A: T(0), B: S(SpecGIDX)},
				{Op: OpMUL64, Dst: T(2), A: T(1), B: Imm, Imm: 4},
				{Op: OpADD64, Dst: T(3), A: C(2), B: T(2)},
				{Op: OpLDG, Dst: R(9), A: T(3)},
				{Op: OpIMUL, Dst: R(10), A: S(SpecLIDY), B: C(0)},
				{Op: OpIADD, Dst: T(0), A: R(10), B: S(SpecGIDX)},
				{Op: OpMUL64, Dst: T(0), A: T(0), B: Imm, Imm: 4},
				{Op: OpADD64, Dst: T(0), A: C(2), B: T(0)},
				{Op: OpLDG, Dst: R(11), A: T(0), Imm: 4},
				endChain,
			},
			[]Instr{{Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if n := len(wp.heads()[0].ops); n != 4 {
				t.Errorf("%d micro-ops, want 4: the address, two loads and the imul into r10", n)
			}
		},
	},
	{
		// An equal computation into a register is the register's write:
		// it stays.
		name: "equal_computation_into_a_register",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpIMUL, Dst: R(9), A: T(0), B: R(8)},
				{Op: OpIADD, Dst: R(10), A: R(2), B: R(1)},
				{Op: OpRET},
			},
		),
	},
	{
		// t1 is computed again before the BRC that ends c0's chain, and c1
		// reads it: the second computation stays, so t1 holds it when the
		// chain ends, not only the spare row the first could have kept it
		// in.
		name: "value_live_out_of_the_chain",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: T(1), A: R(1), B: R(2)},
				{Op: OpIADD, Dst: R(9), A: T(1), B: R(8)},
				{Op: OpIADD, Dst: T(1), A: R(9), B: R(8)},
				{Op: OpIADD, Dst: R(10), A: T(1), B: R(1)},
				{Op: OpIADD, Dst: T(1), A: R(1), B: R(2)},
				{Op: OpIADD, Dst: R(12), A: T(1), B: R(9)},
				{Op: OpBRC, A: S(SpecZero), Imm: BranchImm(2, 2)},
			},
			[]Instr{{Op: OpIADD, Dst: R(11), A: T(1), B: R(2)}},
			[]Instr{{Op: OpRET}},
		),
	},
	{
		// Values computed twice on both paths of a branch that diverges
		// per lane, each path a chain under its own mask, read after the
		// paths rejoin.
		name: "divergent_paths",
		prog: progOf(
			[]Instr{
				{Op: OpICMPLT, Dst: T(0), A: R(1), B: R(8)},
				{Op: OpBRC, A: T(0), Imm: BranchImm(2, 3)},
			},
			[]Instr{
				{Op: OpISUB, Dst: T(1), A: R(8), B: R(1)},
				{Op: OpIMUL, Dst: R(9), A: T(1), B: R(2)},
				{Op: OpIADD, Dst: T(1), A: R(9), B: R(1)},
				{Op: OpIADD, Dst: R(10), A: T(1), B: R(2)},
				{Op: OpISUB, Dst: T(1), A: R(8), B: R(1)},
				{Op: OpIADD, Dst: R(11), A: T(1), B: R(9)},
				{Op: OpBR, Imm: 3},
			},
			[]Instr{
				{Op: OpMOV, Dst: T(2), A: C(0)},
				{Op: OpIADD, Dst: R(9), A: T(2), B: R(8)},
				{Op: OpXOR, Dst: T(2), A: R(9), B: R(1)},
				{Op: OpIADD, Dst: R(10), A: T(2), B: R(8)},
				{Op: OpMOV, Dst: T(2), A: C(0)},
				{Op: OpIADD, Dst: R(11), A: T(2), B: R(10)},
			},
			[]Instr{{Op: OpIADD, Dst: R(12), A: R(9), B: R(11)}, {Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			if n, m := len(wp.heads()[1].ops), len(wp.heads()[2].ops); n != 5 || m != 5 {
				t.Errorf("the paths run %d and %d micro-ops, want 5 each", n, m)
			}
		},
	},
	{
		// t0 is computed again while t1 holds the value, and an FMA then
		// a SEL, run by the interpreter, read t0 in place: values leaves a
		// chain with a kLaneInterp alone, so t0's computation stays.
		name: "interpreter_reads_a_value_computed_again",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: T(1), A: R(1), B: R(2)},
				{Op: OpIADD, Dst: R(9), A: T(1), B: R(8)},
				{Op: OpIADD, Dst: T(0), A: R(1), B: R(2)},
				{Op: OpFMA, Dst: T(0), A: R(8), B: R(2)},
				{Op: OpMOV, Dst: R(10), A: T(0)},
				{Op: OpIADD, Dst: T(0), A: R(2), B: R(1)},
				{Op: OpSEL, Dst: T(0), A: R(8), B: R(9)},
				{Op: OpMOV, Dst: R(11), A: T(0)},
				endChain,
			},
			[]Instr{{Op: OpRET}},
		),
	},
	{
		// rwLoads: the load into t1 is forwarded into r9. Lane 2's address
		// is unmapped, so the load faults there: r9 must be as the
		// interpreter left it, lanes 0 and 1 not loaded into it.
		name: "forwarded_load_faults_on_lane_2",
		prog: progOf(
			[]Instr{
				{Op: OpIADD, Dst: R(9), A: R(1), B: R(2)},
				{Op: OpICMPEQ, Dst: T(2), A: T(0), B: Imm, Imm: 2},
				{Op: OpIMUL, Dst: T(2), A: T(2), B: Imm, Imm: 0x10_0000},
				{Op: OpADD64, Dst: T(3), A: R(4), B: T(2)},
				{Op: OpLDG, Dst: T(1), A: T(3)},
				{Op: OpMOV, Dst: R(9), A: T(1)},
				{Op: OpRET},
			},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			ops := wp.clauses[0].ops
			if u := ops[len(ops)-1]; len(ops) != 5 || u.kind() != kLoad || u.d() != R(9) {
				t.Errorf("the load was not forwarded into r9: %d micro-ops", len(ops))
			}
		},
	},
}

// loopOf is a counted loop: c0 zeroes the counter r12 and sets the trip
// count r13 (bound), c1 is body, the counter step and a BRC back to c1
// while r12 < r13, rejoining at c2, and then runs tail. c0 and c1 form one
// chain, so the loop's own tape runs from the second trip and its
// re-entry variant from the third.
func loopOf(bound []Instr, body []Instr, tail ...[]Instr) *Program {
	init := append([]Instr{{Op: OpMOV, Dst: R(12), A: S(SpecZero)}}, bound...)
	body = append(body,
		Instr{Op: OpIADD, Dst: R(12), A: R(12), B: Imm, Imm: 1},
		Instr{Op: OpICMPLT, Dst: T(3), A: R(12), B: R(13)},
		Instr{Op: OpBRC, A: T(3), Imm: BranchImm(1, 1+len(tail)+1)})
	return progOf(append([][]Instr{init, body}, append(tail, []Instr{{Op: OpRET}})...)...)
}

// trips is a loop bound of n trips on every lane.
func trips(n uint32) []Instr { return []Instr{{Op: OpMOV, Dst: R(13), A: Imm, Imm: n}} }

// loopVariant checks that c1's tape in both tables has a re-entry variant
// want micro-ops shorter than itself, or none when want is 0.
func loopVariant(want int) func(t *testing.T, wp *warpProgram) {
	return func(t *testing.T, wp *warpProgram) {
		for _, table := range [][]tape{wp.heads(), wp.flat()} {
			full := &table[1]
			switch {
			case want == 0 && full.again != 0:
				t.Errorf("the loop has a re-entry variant of %d micro-ops, want none", len(wp.chains[full.again].ops))
			case want == 0:
			case full.again == 0:
				t.Errorf("the loop has no re-entry variant")
			case len(full.ops)-len(wp.chains[full.again].ops) != want:
				t.Errorf("the re-entry variant leaves out %d micro-ops, want %d", len(full.ops)-len(wp.chains[full.again].ops), want)
			}
		}
	}
}

// hoistCases pin the loop-invariant hoisting of a chain that re-enters its
// own head (hoist, reentry).
var hoistCases = []optimiserCase{
	{
		// DCT's inner loop: (r1 + r8) * c0 + r2 is invariant, computed
		// through t0, t1 and t0 again, and the loop writes both again
		// later. The last sum is read by a micro-op the variant keeps, so
		// it goes to a hoist row; the first two are read by hoisted
		// micro-ops only.
		name: "invariant_temporary_written_again",
		prog: loopOf(trips(6), []Instr{
			{Op: OpIADD, Dst: T(0), A: R(1), B: R(8)},
			{Op: OpIMUL, Dst: T(1), A: T(0), B: C(0)},
			{Op: OpIADD, Dst: T(0), A: T(1), B: R(2)},
			{Op: OpIADD, Dst: T(1), A: T(0), B: R(12)},
			{Op: OpXOR, Dst: R(20), A: R(20), B: T(1)},
			{Op: OpIADD, Dst: T(0), A: R(20), B: Imm, Imm: 1},
			{Op: OpXOR, Dst: R(21), A: R(21), B: T(0)},
		}),
		shape: loopVariant(3),
	},
	{
		// r14 is written once in the loop, from rows it never writes:
		// later trips find it in r14, as the interpreter leaves it.
		name: "invariant_register_written_once",
		prog: loopOf(trips(5), []Instr{
			{Op: OpIMUL, Dst: R(14), A: R(1), B: C(0)},
			{Op: OpIADD, Dst: R(20), A: R(20), B: R(14)},
		}),
		shape: loopVariant(1),
	},
	{
		// r14 is written twice, both times with an invariant value: an
		// abort between the two must find the first, so neither goes.
		name: "register_written_twice",
		prog: loopOf(trips(5), []Instr{
			{Op: OpIMUL, Dst: R(14), A: R(1), B: C(0)},
			{Op: OpIADD, Dst: R(20), A: R(20), B: R(14)},
			{Op: OpIADD, Dst: R(14), A: R(2), B: C(0)},
			{Op: OpXOR, Dst: R(21), A: R(21), B: R(14)},
		}),
		shape: loopVariant(0),
	},
	{
		// r15 is written late in the loop and read earlier: the sum read
		// from it changes from trip to trip.
		name: "loop_carried_row",
		prog: loopOf(trips(5), []Instr{
			{Op: OpIADD, Dst: T(1), A: R(15), B: C(0)},
			{Op: OpXOR, Dst: R(20), A: R(20), B: T(1)},
			{Op: OpIADD, Dst: R(15), A: R(12), B: R(1)},
		}),
		shape: loopVariant(0),
	},
	{
		// A load from an address the loop never changes is not invariant:
		// memory may change, and a load counts.
		name: "load_fed_value",
		prog: loopOf(trips(5), []Instr{
			{Op: OpLDG, Dst: T(2), A: R(4)},
			{Op: OpIADD, Dst: T(1), A: T(2), B: C(0)},
			{Op: OpXOR, Dst: R(20), A: R(20), B: T(1)},
		}),
		shape: loopVariant(0),
	},
	{
		// numHoist+2 invariant products through t0, each read by a kept
		// micro-op before the next overwrites it: the last numHoist get
		// the hoist rows, the first two stay.
		name: "more_invariants_than_hoist_rows",
		prog: loopOf(trips(5), func() (body []Instr) {
			for i := 0; i < numHoist+2; i++ {
				body = append(body,
					Instr{Op: OpIMUL, Dst: T(0), A: R(1), B: Imm, Imm: uint32(3 + i)},
					Instr{Op: OpXOR, Dst: R(20 + i), A: R(20 + i), B: T(0)})
			}
			return append(body, Instr{Op: OpIADD, Dst: T(0), A: R(12), B: R(1)}, Instr{Op: OpXOR, Dst: R(19), A: R(19), B: T(0)})
		}()),
		shape: loopVariant(numHoist),
	},
	{
		// The loop's fifth trip, in the variant, faults on a load: the
		// invariant sum before the first load and the product after it are
		// hoisted, so every mark behind them moves, and the abort commits
		// the marks it reached — the iadd behind the second load's among
		// them — with the interpreter's counters and registers.
		name: "fault_on_a_later_trip",
		prog: loopOf(trips(8), []Instr{
			{Op: OpIADD, Dst: T(0), A: R(1), B: C(0)},
			{Op: OpLDG, Dst: R(15), A: R(4)},
			{Op: OpIMUL, Dst: T(1), A: R(2), B: C(0)},
			{Op: OpSHL, Dst: T(2), A: R(12), B: Imm, Imm: 11},
			{Op: OpADD64, Dst: T(2), A: T(2), B: R(4)},
			{Op: OpLDG, Dst: R(19), A: R(5)},
			{Op: OpIADD, Dst: R(16), A: R(16), B: T(1)},
			{Op: OpLDG, Dst: R(17), A: T(2)},
			{Op: OpIADD, Dst: R(18), A: R(18), B: T(0)},
			{Op: OpIADD, Dst: T(0), A: R(12), B: R(18)},
			{Op: OpXOR, Dst: R(19), A: R(19), B: T(0)},
		}),
		shape: loopVariant(2),
	},
	{
		// Lane 0 leaves the loop after two trips, the others after six:
		// the BRC splits, and lane 0 runs a second loop, whose hoisted
		// value takes the same hoist row, before the other lanes re-enter
		// the first. That entry looks the tape up and runs it in full.
		name: "split_on_a_later_trip",
		prog: loopOf([]Instr{
			{Op: OpSHL, Dst: R(13), A: T(0), B: Imm, Imm: 3},
			{Op: OpIMIN, Dst: R(13), A: R(13), B: Imm, Imm: 6},
			{Op: OpIMAX, Dst: R(13), A: R(13), B: Imm, Imm: 2},
			{Op: OpMOV, Dst: R(14), A: S(SpecZero)},
		}, []Instr{
			{Op: OpIMUL, Dst: T(0), A: R(1), B: C(0)},
			{Op: OpIADD, Dst: R(20), A: R(20), B: T(0)},
			{Op: OpIADD, Dst: T(0), A: R(12), B: R(20)},
			{Op: OpXOR, Dst: R(22), A: R(22), B: T(0)},
		}, []Instr{
			{Op: OpIMUL, Dst: T(0), A: R(2), B: C(2)},
			{Op: OpIADD, Dst: R(21), A: R(21), B: T(0)},
			{Op: OpIADD, Dst: T(0), A: R(14), B: R(21)},
			{Op: OpXOR, Dst: R(23), A: R(23), B: T(0)},
			{Op: OpIADD, Dst: R(14), A: R(14), B: Imm, Imm: 1},
			{Op: OpICMPLT, Dst: T(3), A: R(14), B: Imm, Imm: 4},
			{Op: OpBRC, A: T(3), Imm: BranchImm(2, 3)},
		}),
		shape: func(t *testing.T, wp *warpProgram) {
			loopVariant(1)(t, wp)
			if wp.heads()[1].ops[0].d() != rowHoist || wp.heads()[2].ops[0].d() != rowHoist || wp.heads()[2].again == 0 {
				t.Errorf("the two loops do not both hoist into the first hoist row")
			}
		},
	},
}

// brcCompare checks the BRC that ends the tape heads[ci] in both tables:
// that it evaluates an icmplt of kind k itself, or reads its predicate row
// when k is 0.
func brcCompare(ci int, k uopKind) func(t *testing.T, wp *warpProgram) {
	return func(t *testing.T, wp *warpProgram) {
		for _, table := range [][]tape{wp.heads(), wp.flat()} {
			tp := &table[ci]
			switch {
			case k == 0 && tp.cmp != 0:
				t.Errorf("c%d's BRC evaluates its compare itself, want it to read the row", ci)
			case k != 0 && tp.cmp.kind() != k:
				t.Errorf("c%d's BRC evaluates kind %d, want %d", ci, tp.cmp.kind(), k)
			case k != 0 && len(tp.ops) > 0 && tp.ops[len(tp.ops)-1].kind() == k:
				t.Errorf("c%d's tape still ends in the compare its BRC evaluates", ci)
			}
		}
	}
}

// branchCases pin the compares a loop's BRC evaluates itself
// (branchCompares). Each loop's trip count differs by lane, so the BRC
// splits and the compare decides under every mask.
var branchCases = []optimiserCase{
	{
		// i < n over two rows: bounds 1, 2, 4 and 6 by lane.
		name: "loop_test_in_the_brc",
		prog: loopOf([]Instr{
			{Op: OpSHL, Dst: R(13), A: T(0), B: Imm, Imm: 1},
			{Op: OpIMAX, Dst: R(13), A: R(13), B: Imm, Imm: 1},
		}, []Instr{{Op: OpIADD, Dst: R(20), A: R(20), B: R(12)}}),
		shape: brcCompare(1, kVV+uopKind(OpICMPLT)),
	},
	{
		// clc's loop: the header tests i < 5 against an immediate and
		// leaves the loop when the test is 0, so the BRC negates it; the
		// body's chain runs through the header and re-enters the body on
		// its fallthrough. i starts at the lane number.
		name: "negated_test_in_the_brc",
		prog: progOf(
			[]Instr{{Op: OpMOV, Dst: R(12), A: T(0)}},
			[]Instr{
				{Op: OpICMPLT, Dst: T(0), A: R(12), B: Imm, Imm: 5},
				{Op: OpICMPEQ, Dst: T(1), A: T(0), B: S(SpecZero)},
				{Op: OpBRC, A: T(1), Imm: BranchImm(4, 4)},
			},
			[]Instr{{Op: OpIADD, Dst: R(20), A: R(20), B: R(12)}},
			[]Instr{{Op: OpIADD, Dst: R(12), A: R(12), B: Imm, Imm: 1}, {Op: OpBR, Imm: 1}},
			[]Instr{{Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			brcCompare(2, kVU+uopKind(OpICMPLT))(t, wp)
			if wp.heads()[2].pred.neg != 1 {
				t.Errorf("the body's BRC does not negate its test")
			}
		},
	},
	{
		// 0 < i, a uniform against a row, counting i down from 2·lane.
		name: "reversed_test_in_the_brc",
		prog: progOf(
			[]Instr{{Op: OpSHL, Dst: R(12), A: T(0), B: Imm, Imm: 1}},
			[]Instr{
				{Op: OpISUB, Dst: R(12), A: R(12), B: Imm, Imm: 1},
				{Op: OpIADD, Dst: R(20), A: R(20), B: R(12)},
				{Op: OpICMPLT, Dst: T(3), A: S(SpecZero), B: R(12)},
				{Op: OpBRC, A: T(3), Imm: BranchImm(1, 2)},
			},
			[]Instr{{Op: OpRET}},
		),
		shape: brcCompare(1, kUV+uopKind(OpICMPLT)),
	},
	{
		// The loop leaves when n < i, and the clause after it reads the
		// test's temporary: the compare stays, and t3 holds 1 there.
		name: "test_read_after_the_loop",
		prog: progOf(
			[]Instr{{Op: OpMOV, Dst: R(12), A: T(0)}, {Op: OpMOV, Dst: R(13), A: Imm, Imm: 4}},
			[]Instr{
				{Op: OpIADD, Dst: R(12), A: R(12), B: Imm, Imm: 1},
				{Op: OpICMPLT, Dst: T(3), A: R(13), B: R(12)},
				{Op: OpBRC, A: T(3), Imm: BranchImm(3, 3)},
			},
			[]Instr{{Op: OpBR, Imm: 1}},
			[]Instr{{Op: OpIADD, Dst: R(21), A: T(3), B: R(1)}, {Op: OpRET}},
		),
		shape: func(t *testing.T, wp *warpProgram) {
			brcCompare(1, 0)(t, wp)
			brcCompare(2, 0)(t, wp)
		},
	},
}

// TestHoistedTestStaysInItsTape: a loop whose test is invariant has a
// re-entry variant without the compare, whose BRC reads the row the tape's
// compare wrote, so the tape keeps it. The loop never ends on lanes 0, 1
// and 3 (r1 < r2), and both engines stop at the clause budget with the
// same registers and counters.
func TestHoistedTestStaysInItsTape(t *testing.T) {
	prog := loopOf(trips(1), []Instr{
		{Op: OpIADD, Dst: R(20), A: R(20), B: R(1)},
		{Op: OpICMPLT, Dst: T(2), A: R(1), B: R(2)},
		{Op: OpBRC, A: T(2), Imm: BranchImm(1, 2)},
	})
	prog.compile(EngineWarp)
	brcCompare(1, 0)(t, prog.warp)
	if prog.warp.heads()[1].again == 0 {
		t.Fatalf("the loop has no re-entry variant")
	}
	defer SetClauseBudget(64)()
	r := newTapeRig(t)
	for _, sh := range warpShapes {
		regsI, gsI, _, errI := r.run(t, prog, EngineInterp, sh.shape)
		regsW, gsW, _, errW := r.run(t, prog, EngineWarp, sh.shape)
		if errI == nil || fmt.Sprint(errI) != fmt.Sprint(errW) || gsI != gsW || [NumGRF]soaRow(regsI[:NumGRF]) != [NumGRF]soaRow(regsW[:NumGRF]) {
			t.Errorf("[%s]: interp %v, warp %v; stats equal %v; r20 interp %x, warp %x", sh.name, errI, errW, gsI == gsW, regsI[20], regsW[20])
		}
	}
}

// TestOptimisedTapeMatchesInterp runs every optimiserCase under both
// engines and every warp shape. A dead temporary may hold anything after
// a rewrite, so the temporaries are not compared; the GRF, the statistics,
// guest memory and the error are.
func TestOptimisedTapeMatchesInterp(t *testing.T) {
	r := newTapeRig(t)
	for _, c := range append(append(slices.Clip(optimiserCases), hoistCases...), branchCases...) {
		c.prog.compile(EngineWarp)
		if c.shape != nil {
			c.shape(t, c.prog.warp)
		}
		for _, sh := range warpShapes {
			regsI, gsI, memI, errI := r.run(t, c.prog, EngineInterp, sh.shape)
			regsW, gsW, memW, errW := r.run(t, c.prog, EngineWarp, sh.shape)
			switch {
			case fmt.Sprint(errI) != fmt.Sprint(errW):
				t.Errorf("%s [%s]: error: interp %v, warp %v", c.name, sh.name, errI, errW)
			case [NumGRF]soaRow(regsI[:NumGRF]) != [NumGRF]soaRow(regsW[:NumGRF]):
				t.Errorf("%s [%s]: registers diverge\ninterp r9..r11 %x\nwarp   r9..r11 %x", c.name, sh.name, regsI[9:12], regsW[9:12])
			case gsI != gsW:
				t.Errorf("%s [%s]: stats diverge\ninterp %+v\nwarp   %+v", c.name, sh.name, gsI, gsW)
			case string(memI) != string(memW):
				t.Errorf("%s [%s]: guest memory diverges", c.name, sh.name)
			}
		}
	}
}
