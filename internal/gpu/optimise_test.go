package gpu

import (
	"fmt"
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

// TestOptimisedTapeMatchesInterp runs every optimiserCase under both
// engines and every warp shape. A dead temporary may hold anything after
// a rewrite, so the temporaries are not compared; the GRF, the statistics,
// guest memory and the error are.
func TestOptimisedTapeMatchesInterp(t *testing.T) {
	r := newTapeRig(t)
	for _, c := range optimiserCases {
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
