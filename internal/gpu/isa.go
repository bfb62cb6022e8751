// Package gpu implements the simulated Bifrost-style GPU: a clause-based
// shader ISA, quad (4-lane) warps executed in lockstep with mask-stack
// divergence, shader cores grouped under a Job Manager, a full GPU MMU,
// and the memory-mapped register interface the kernel driver programs.
//
// The instruction encoding is a clean-room design with the structural
// properties of Arm's Bifrost architecture as published ([18] in the
// paper): instructions are bundled into clauses of up to 8 tuples (16
// instruction slots) that execute unconditionally; clause-temporary
// registers relieve pressure on the global register file; control flow
// happens only at clause boundaries.
//
// On hardware a clause temporary does not outlive its clause. This model
// keeps it: both engines leave t0..t3 as the last clause wrote them, and a
// workgroup starts with them zero, so a program that reads a temporary in
// a later clause is well defined here. Compiled code never relies on it —
// clc promotes a value to a temporary only when it is written first and
// used only in one clause — but hand-written and generated kernels can, and
// the tape optimiser's liveness (optimise.go) is computed over the whole
// program for that reason.
package gpu

import "fmt"

// Opcode enumerates shader instructions.
type Opcode uint8

// Shader opcodes. Arithmetic opcodes execute in the arithmetic pipeline;
// LD*/ST* in the load/store unit; BR*/RET at clause boundaries.
const (
	OpNOP Opcode = iota

	// Moves and conversions.
	OpMOV // dst = a
	OpI2F // dst = float(int(a))
	OpF2I // dst = int(float(a)) (truncating)

	// Integer arithmetic (32-bit semantics on the low word; address maths
	// uses the ADD64 variant).
	OpIADD
	OpISUB
	OpIMUL
	OpIDIV // signed; x/0 = 0
	OpIMOD // signed; x%0 = 0
	OpSHL
	OpSHR // logical
	OpSAR // arithmetic
	OpAND
	OpOR
	OpXOR
	OpIMIN
	OpIMAX
	OpADD64 // 64-bit add for address computation
	OpMUL64 // 64-bit multiply for address computation

	// Float arithmetic (float32).
	OpFADD
	OpFSUB
	OpFMUL
	OpFDIV
	OpFMA // dst = dst + a*b (accumulator form)
	OpFMIN
	OpFMAX
	OpFABS
	OpFNEG
	OpFSQRT
	OpFEXP
	OpFLOG
	OpFSIN
	OpFCOS
	OpFFLOOR

	// Comparisons produce 0 or 1 in dst.
	OpICMPEQ
	OpICMPNE
	OpICMPLT // signed
	OpICMPLE
	OpUCMPLT // unsigned
	OpFCMPEQ
	OpFCMPLT
	OpFCMPLE

	// SEL: dst = (dst != 0) ? a : b. The predicate is the accumulator,
	// mirroring the FMA convention.
	OpSEL

	// Memory. Addresses are full 64-bit virtual addresses translated by
	// the GPU MMU. The immediate field is a signed byte offset.
	OpLDG   // 32-bit global load
	OpLDG64 // 64-bit global load
	OpLDGB  // 8-bit global load (zero-extended)
	OpSTG   // 32-bit global store
	OpSTG64 // 64-bit global store
	OpSTGB  // 8-bit global store
	OpLDL   // 32-bit workgroup-local load
	OpSTL   // 32-bit workgroup-local store

	// Synchronisation.
	OpBARRIER // workgroup barrier (clause-terminal)

	// Control flow (clause-terminal only; targets are clause indices).
	OpBR  // unconditional: imm low 16 bits = target clause
	OpBRC // conditional on a != 0: imm low 16 = target, high 16 = reconvergence clause
	OpRET // thread terminates

	// NumOpcodes is the number of defined opcodes.
	NumOpcodes
)

var opNames = [...]string{
	"nop", "mov", "i2f", "f2i",
	"iadd", "isub", "imul", "idiv", "imod", "shl", "shr", "sar",
	"and", "or", "xor", "imin", "imax", "add64", "mul64",
	"fadd", "fsub", "fmul", "fdiv", "fma", "fmin", "fmax",
	"fabs", "fneg", "fsqrt", "fexp", "flog", "fsin", "fcos", "ffloor",
	"icmpeq", "icmpne", "icmplt", "icmple", "ucmplt",
	"fcmpeq", "fcmplt", "fcmple", "sel",
	"ldg", "ldg64", "ldgb", "stg", "stg64", "stgb", "ldl", "stl",
	"barrier", "br", "brc", "ret",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("gop%d", uint8(op))
}

// Class buckets opcodes into the paper's instruction-mix categories.
type Class int

// Instruction classes for the Fig 11 mix.
const (
	ClassArith Class = iota
	ClassLS
	ClassCF
	ClassNop
)

// Classify returns the mix category of an opcode.
func Classify(op Opcode) Class {
	switch op {
	case OpNOP:
		return ClassNop
	case OpLDG, OpLDG64, OpLDGB, OpSTG, OpSTG64, OpSTGB, OpLDL, OpSTL:
		return ClassLS
	case OpBR, OpBRC, OpRET, OpBARRIER:
		return ClassCF
	default:
		return ClassArith
	}
}

// IsClauseTerminal reports whether the opcode must end its clause.
func IsClauseTerminal(op Opcode) bool {
	switch op {
	case OpBR, OpBRC, OpRET, OpBARRIER:
		return true
	}
	return false
}

// --- Operands -------------------------------------------------------------

// Operand kinds, packed into the top 2 bits of an operand byte. The low 6
// bits are the index within the kind.
const (
	OperGRF     uint8 = 0 // r0..r63: global register file
	OperTemp    uint8 = 1 // t0..t3: clause-temporary registers
	OperUniform uint8 = 2 // c0..c63: constant port (kernel arguments)
	OperSpecial uint8 = 3 // lane/group identifiers, ROM, immediate
)

// Special operand indices (kind OperSpecial).
const (
	SpecZero    uint8 = 0
	SpecGIDX    uint8 = 1 // get_global_id(0)
	SpecGIDY    uint8 = 2
	SpecGIDZ    uint8 = 3
	SpecLIDX    uint8 = 4 // get_local_id(0)
	SpecLIDY    uint8 = 5
	SpecLIDZ    uint8 = 6
	SpecWGIDX   uint8 = 7 // get_group_id(0)
	SpecWGIDY   uint8 = 8
	SpecWGIDZ   uint8 = 9
	SpecGSZX    uint8 = 10 // get_global_size(0)
	SpecGSZY    uint8 = 11
	SpecGSZZ    uint8 = 12
	SpecLSZX    uint8 = 13 // get_local_size(0)
	SpecLSZY    uint8 = 14
	SpecLSZZ    uint8 = 15
	SpecROM     uint8 = 62 // read ROM entry imm (embedded constant table)
	SpecImm     uint8 = 63 // read the instruction's imm32 field
	numSpecials       = 16 // dense specials; SpecROM/SpecImm are sentinels
)

// NumGRF is the global register file size per thread.
const NumGRF = 64

// NumTemp is the number of clause-temporary registers per thread.
const NumTemp = 4

// NumUniforms is the size of the uniform file: the most kernel arguments a
// program can declare.
const NumUniforms = 64

// Operand constructors.

// R returns a GRF register operand.
func R(i int) uint8 {
	if i < 0 || i >= NumGRF {
		panic(fmt.Sprintf("gpu: bad GRF index %d", i))
	}
	return OperGRF<<6 | uint8(i)
}

// T returns a clause-temporary register operand.
func T(i int) uint8 {
	if i < 0 || i >= NumTemp {
		panic(fmt.Sprintf("gpu: bad temp index %d", i))
	}
	return OperTemp<<6 | uint8(i)
}

// C returns a uniform (constant port) operand.
func C(i int) uint8 {
	if i < 0 || i >= NumUniforms {
		panic(fmt.Sprintf("gpu: bad uniform index %d", i))
	}
	return OperUniform<<6 | uint8(i)
}

// S returns a special operand.
func S(i uint8) uint8 { return OperSpecial<<6 | (i & 0x3F) }

// Imm is the operand byte selecting the instruction's 32-bit immediate.
var Imm = S(SpecImm)

// Rom is the operand byte reading ROM[imm32].
var Rom = S(SpecROM)

// OperKind splits an operand byte into kind and index.
func OperKind(o uint8) (kind, index uint8) { return o >> 6, o & 0x3F }

// OperString renders an operand byte for disassembly.
func OperString(o uint8) string {
	kind, idx := OperKind(o)
	switch kind {
	case OperGRF:
		return fmt.Sprintf("r%d", idx)
	case OperTemp:
		return fmt.Sprintf("t%d", idx)
	case OperUniform:
		return fmt.Sprintf("c%d", idx)
	default:
		switch idx {
		case SpecImm:
			return "#imm"
		case SpecROM:
			return "rom[imm]"
		default:
			names := [...]string{"zero", "gid.x", "gid.y", "gid.z",
				"lid.x", "lid.y", "lid.z", "wg.x", "wg.y", "wg.z",
				"gsz.x", "gsz.y", "gsz.z", "lsz.x", "lsz.y", "lsz.z"}
			if int(idx) < len(names) {
				return names[idx]
			}
			return fmt.Sprintf("spec%d", idx)
		}
	}
}

// --- Instruction words ----------------------------------------------------

// Instr is one decoded shader instruction.
//
//	bits [63:56] opcode
//	bits [55:48] dst operand
//	bits [47:40] srcA operand
//	bits [39:32] srcB operand
//	bits [31:0]  imm32 (integer/float bits, branch targets, offsets)
type Instr struct {
	Op  Opcode
	Dst uint8
	A   uint8
	B   uint8
	Imm uint32
}

// Pack serialises the instruction into its 64-bit word.
func (in Instr) Pack() uint64 {
	return uint64(in.Op)<<56 | uint64(in.Dst)<<48 | uint64(in.A)<<40 |
		uint64(in.B)<<32 | uint64(in.Imm)
}

// Unpack decodes a 64-bit instruction word.
func Unpack(w uint64) Instr {
	return Instr{
		Op:  Opcode(w >> 56),
		Dst: uint8(w >> 48),
		A:   uint8(w >> 40),
		B:   uint8(w >> 32),
		Imm: uint32(w),
	}
}

// BranchTarget returns the target clause index of BR/BRC.
func (in Instr) BranchTarget() int { return int(in.Imm & 0xFFFF) }

// Reconverge returns the reconvergence clause index of BRC, encoded by the
// compiler as the immediate post-dominator of the branch.
func (in Instr) Reconverge() int { return int(in.Imm >> 16) }

// BranchImm encodes a BRC immediate from target and reconvergence clause
// indices.
func BranchImm(target, reconverge int) uint32 {
	return uint32(target&0xFFFF) | uint32(reconverge&0xFFFF)<<16
}

func (in Instr) String() string {
	switch in.Op {
	case OpNOP, OpRET, OpBARRIER:
		return in.Op.String()
	case OpBR:
		return fmt.Sprintf("br c%d", in.BranchTarget())
	case OpBRC:
		return fmt.Sprintf("brc %s, c%d, rejoin c%d", OperString(in.A), in.BranchTarget(), in.Reconverge())
	case OpSTG, OpSTG64, OpSTGB, OpSTL:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, OperString(in.A), int32(in.Imm), OperString(in.B))
	case OpLDG, OpLDG64, OpLDGB, OpLDL:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, OperString(in.Dst), OperString(in.A), int32(in.Imm))
	default:
		s := fmt.Sprintf("%s %s, %s, %s", in.Op, OperString(in.Dst), OperString(in.A), OperString(in.B))
		if in.A == Imm || in.B == Imm {
			s += fmt.Sprintf(" (imm=%#x)", in.Imm)
		}
		return s
	}
}
