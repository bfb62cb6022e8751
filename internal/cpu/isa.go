// Package cpu implements the VA64 guest CPU: an AArch64-flavoured 64-bit
// RISC ISA with fixed 32-bit instruction words, a full-system execution
// model (MMU, exceptions, interrupts, system registers), and two execution
// engines. The interpreter (exec.go) decodes and executes one instruction
// at a time and is the specification. The dynamic binary translation (DBT)
// engine, in the style the paper borrows from QEMU, lowers each basic
// block once to a tape of pre-decoded micro-ops run by one dense switch,
// with a closing compare-and-branch fused into one micro-op, and runs a
// block that loops to itself by re-entering its tape (tape.go); it chains
// blocks to their successors so other loops bypass the code cache too,
// indexes that cache by code page and invalidates it per page
// (engine.go), and serves guest loads and stores from cached host views
// of RAM pages (Core.hostView). FuzzCPUEngines holds it to the
// interpreter.
package cpu

import "fmt"

// Opcode enumerates VA64 instructions. Values are the 7-bit field in
// instruction bits [31:25].
type Opcode uint8

// VA64 opcodes.
const (
	OpNOP Opcode = iota
	OpHLT
	OpSVC
	OpERET
	OpWFI
	OpMRS
	OpMSR

	// Register-register ALU (R-format).
	OpADD
	OpSUB
	OpAND
	OpORR
	OpEOR
	OpMUL
	OpSDIV
	OpUDIV
	OpLSL
	OpLSR
	OpASR
	OpADDS
	OpSUBS
	OpCSEL

	// Register-immediate ALU (I-format, signed 15-bit immediate).
	OpADDI
	OpSUBI
	OpANDI
	OpORRI
	OpEORI
	OpLSLI
	OpLSRI
	OpASRI
	OpSUBSI

	// Wide moves (MOV-format: 16-bit immediate, 2-bit halfword selector).
	OpMOVZ
	OpMOVK

	// Loads and stores (I-format: base register + signed byte offset).
	OpLDRB
	OpLDRH
	OpLDRW
	OpLDRX
	OpSTRB
	OpSTRH
	OpSTRW
	OpSTRX

	// Control flow.
	OpB     // B-format: signed 25-bit word offset
	OpBL    // B-format
	OpBR    // R-format: target in Rn
	OpBLR   // R-format
	OpBCOND // C-format: condition + signed 21-bit word offset

	// NumOpcodes is the number of defined opcodes.
	NumOpcodes
)

var opNames = map[Opcode]string{
	OpNOP: "nop", OpHLT: "hlt", OpSVC: "svc", OpERET: "eret", OpWFI: "wfi",
	OpMRS: "mrs", OpMSR: "msr",
	OpADD: "add", OpSUB: "sub", OpAND: "and", OpORR: "orr", OpEOR: "eor",
	OpMUL: "mul", OpSDIV: "sdiv", OpUDIV: "udiv",
	OpLSL: "lsl", OpLSR: "lsr", OpASR: "asr",
	OpADDS: "adds", OpSUBS: "subs", OpCSEL: "csel",
	OpADDI: "addi", OpSUBI: "subi", OpANDI: "andi", OpORRI: "orri",
	OpEORI: "eori", OpLSLI: "lsli", OpLSRI: "lsri", OpASRI: "asri",
	OpSUBSI: "subsi",
	OpMOVZ:  "movz", OpMOVK: "movk",
	OpLDRB: "ldrb", OpLDRH: "ldrh", OpLDRW: "ldrw", OpLDRX: "ldrx",
	OpSTRB: "strb", OpSTRH: "strh", OpSTRW: "strw", OpSTRX: "strx",
	OpB: "b", OpBL: "bl", OpBR: "br", OpBLR: "blr", OpBCOND: "b.",
}

func (op Opcode) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// Cond is a branch/select condition, evaluated against the NZCV flags.
type Cond uint8

// Branch conditions (AArch64 numbering for the familiar ones).
const (
	CondEQ Cond = iota
	CondNE
	CondHS
	CondLO
	CondMI
	CondPL
	CondVS
	CondVC
	CondHI
	CondLS
	CondGE
	CondLT
	CondGT
	CondLE
	CondAL
)

var condNames = [...]string{
	"eq", "ne", "hs", "lo", "mi", "pl", "vs", "vc",
	"hi", "ls", "ge", "lt", "gt", "le", "al",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond%d", uint8(c))
}

// SysReg identifies a system register accessed via MRS/MSR.
type SysReg uint8

// System registers.
const (
	SysTTBR0    SysReg = iota // translation table base
	SysVBAR                   // exception vector base
	SysSCTLR                  // system control: bit 0 = MMU enable
	SysESR                    // exception syndrome
	SysFAR                    // fault address
	SysELR                    // exception link register
	SysSPSR                   // saved program status (bit 0 = IE)
	SysCPUID                  // core number, read-only
	SysIE                     // interrupt enable: bit 0
	SysSCRATCH0               // scratch, free for guest use
	SysSCRATCH1
	NumSysRegs
)

// Exception syndrome causes, written to ESR on exception entry. The SVC
// immediate is placed in ESR bits [31:16].
const (
	ExcNone      uint64 = 0
	ExcSVC       uint64 = 1
	ExcAbortRead uint64 = 2
	ExcAbortWrit uint64 = 3
	ExcAbortExec uint64 = 4
	ExcUndefined uint64 = 5
)

// Exception vector offsets from VBAR.
const (
	VecSync uint64 = 0x000
	VecIRQ  uint64 = 0x080
)

// ZR is the zero-register index: reads as zero, writes are discarded.
const ZR = 31

// LR is the link register used by BL/BLR.
const LR = 30

// Inst is one decoded VA64 instruction. The interpreter executes it as is;
// the DBT engine lowers it to a micro-op (tape.go).
type Inst struct {
	Op   Opcode
	Rd   uint8
	Rn   uint8
	Rm   uint8
	Cond Cond
	Imm  int64 // immediate / shift amount / halfword selector, per format
}

// IsBranch reports whether the instruction (potentially) redirects control
// flow, ending a DBT basic block.
func (in Inst) IsBranch() bool {
	switch in.Op {
	case OpB, OpBL, OpBR, OpBLR, OpBCOND, OpSVC, OpERET, OpHLT, OpWFI:
		return true
	}
	return false
}

// Field layout shared by Encode and Decode.
const (
	shiftOp = 25
	shiftRd = 20
	shiftRn = 15
	shiftRm = 10

	maskReg   = 0x1F
	mask15    = 0x7FFF
	mask16    = 0xFFFF
	mask21    = 0x1FFFFF
	mask25    = 0x1FFFFFF
	signBit15 = 1 << 14
	signBit21 = 1 << 20
	signBit25 = 1 << 24
)

// Encode packs a decoded instruction into its 32-bit word. It is the
// inverse of Decode and is used by the assembler.
func Encode(in Inst) uint32 {
	w := uint32(in.Op) << shiftOp
	switch in.Op {
	case OpNOP, OpHLT, OpERET, OpWFI:
		// no operands
	case OpSVC:
		w |= uint32(in.Imm) & mask16
	case OpMRS, OpMSR:
		w |= uint32(in.Rd&maskReg) << shiftRd
		w |= uint32(in.Imm) & 0xFF
	case OpADD, OpSUB, OpAND, OpORR, OpEOR, OpMUL, OpSDIV, OpUDIV,
		OpLSL, OpLSR, OpASR, OpADDS, OpSUBS:
		w |= uint32(in.Rd&maskReg) << shiftRd
		w |= uint32(in.Rn&maskReg) << shiftRn
		w |= uint32(in.Rm&maskReg) << shiftRm
	case OpCSEL:
		w |= uint32(in.Rd&maskReg) << shiftRd
		w |= uint32(in.Rn&maskReg) << shiftRn
		w |= uint32(in.Rm&maskReg) << shiftRm
		w |= uint32(in.Cond) & 0xF
	case OpADDI, OpSUBI, OpANDI, OpORRI, OpEORI, OpLSLI, OpLSRI, OpASRI, OpSUBSI,
		OpLDRB, OpLDRH, OpLDRW, OpLDRX, OpSTRB, OpSTRH, OpSTRW, OpSTRX:
		w |= uint32(in.Rd&maskReg) << shiftRd
		w |= uint32(in.Rn&maskReg) << shiftRn
		w |= uint32(in.Imm) & mask15
	case OpMOVZ, OpMOVK:
		w |= uint32(in.Rd&maskReg) << shiftRd
		w |= (uint32(in.Rm) & 0x3) << 16 // halfword selector
		w |= uint32(in.Imm) & mask16
	case OpB, OpBL:
		w |= uint32(in.Imm) & mask25
	case OpBR, OpBLR:
		w |= uint32(in.Rn&maskReg) << shiftRn
	case OpBCOND:
		w |= (uint32(in.Cond) & 0xF) << 21
		w |= uint32(in.Imm) & mask21
	default:
		panic(fmt.Sprintf("cpu: Encode: unknown opcode %v", in.Op))
	}
	return w
}

// Decode unpacks a 32-bit instruction word. Unknown opcodes decode to an
// Inst with Op >= NumOpcodes; executing one raises an undefined-instruction
// exception.
func Decode(w uint32) Inst {
	op := Opcode(w >> shiftOp)
	in := Inst{Op: op}
	switch op {
	case OpNOP, OpHLT, OpERET, OpWFI:
	case OpSVC:
		in.Imm = int64(w & mask16)
	case OpMRS, OpMSR:
		in.Rd = uint8((w >> shiftRd) & maskReg)
		in.Imm = int64(w & 0xFF)
	case OpADD, OpSUB, OpAND, OpORR, OpEOR, OpMUL, OpSDIV, OpUDIV,
		OpLSL, OpLSR, OpASR, OpADDS, OpSUBS:
		in.Rd = uint8((w >> shiftRd) & maskReg)
		in.Rn = uint8((w >> shiftRn) & maskReg)
		in.Rm = uint8((w >> shiftRm) & maskReg)
	case OpCSEL:
		in.Rd = uint8((w >> shiftRd) & maskReg)
		in.Rn = uint8((w >> shiftRn) & maskReg)
		in.Rm = uint8((w >> shiftRm) & maskReg)
		in.Cond = Cond(w & 0xF)
	case OpADDI, OpSUBI, OpANDI, OpORRI, OpEORI, OpLSLI, OpLSRI, OpASRI, OpSUBSI,
		OpLDRB, OpLDRH, OpLDRW, OpLDRX, OpSTRB, OpSTRH, OpSTRW, OpSTRX:
		in.Rd = uint8((w >> shiftRd) & maskReg)
		in.Rn = uint8((w >> shiftRn) & maskReg)
		in.Imm = signExtend(uint64(w&mask15), signBit15)
	case OpMOVZ, OpMOVK:
		in.Rd = uint8((w >> shiftRd) & maskReg)
		in.Rm = uint8((w >> 16) & 0x3)
		in.Imm = int64(w & mask16)
	case OpB, OpBL:
		in.Imm = signExtend(uint64(w&mask25), signBit25)
	case OpBR, OpBLR:
		in.Rn = uint8((w >> shiftRn) & maskReg)
	case OpBCOND:
		in.Cond = Cond((w >> 21) & 0xF)
		in.Imm = signExtend(uint64(w&mask21), signBit21)
	}
	return in
}

func signExtend(v uint64, signBit uint64) int64 {
	if v&signBit != 0 {
		v |= ^(signBit*2 - 1)
	}
	return int64(v)
}
