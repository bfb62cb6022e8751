package cpu

import (
	"encoding/binary"

	"mobilesim/internal/mem"
)

// The DBT's translated form: one micro-op per guest instruction, with
// register indices, immediates and branch targets extracted at translation
// time. The hot subset of the ISA keeps its opcode and is executed by
// execTape's single dense switch; everything else becomes opExec, which
// hands the instruction word back to the interpreter's exec — the
// specification both engines are held to by FuzzCPUEngines.

// uop is one tape entry (16 bytes).
type uop struct {
	op         Opcode
	rd, rn, rm uint8
	cond       Cond
	imm        uint64
}

// opExec marks a micro-op the interpreter executes; imm is the instruction
// word. Decode never produces it: the opcode field is 7 bits wide.
const opExec Opcode = 0xFF

// lower translates the instruction word w at pc, already decoded as in.
// Register fields are at most 31 by construction of Decode.
func lower(in Inst, w uint32, pc uint64) uop {
	u := uop{op: in.Op, rd: in.Rd, rn: in.Rn, rm: in.Rm, cond: in.Cond, imm: uint64(in.Imm)}
	switch in.Op {
	case OpNOP, OpADDS, OpSUBS, OpSUBSI, OpSTRB, OpSTRH, OpSTRW, OpSTRX, OpBR, OpBLR:
		// No register result, or one besides it that a zero-register
		// destination must not suppress (flags, the link register).
	case OpB, OpBL, OpBCOND:
		u.imm = pc + uint64(in.Imm)*4
	case OpADD, OpSUB, OpAND, OpORR, OpEOR, OpMUL, OpLSL, OpLSR, OpASR, OpCSEL,
		OpADDI, OpSUBI, OpANDI, OpORRI, OpEORI, OpLSLI, OpLSRI, OpASRI, OpMOVZ, OpMOVK:
		// Pure register results, executed with an unconditional write: a
		// zero-register destination makes them no-ops here.
		if in.Rd == ZR {
			return uop{op: OpNOP}
		}
		switch in.Op {
		case OpSUBI:
			u.op, u.imm = OpADDI, -u.imm
		case OpLSLI, OpLSRI, OpASRI:
			u.imm &= 63
		case OpMOVZ, OpMOVK: // rm becomes the shift, imm the shifted halfword
			u.rm = 16 * in.Rm
			u.imm <<= u.rm
		}
	case OpLDRB, OpLDRH, OpLDRW, OpLDRX:
		if in.Rd == ZR { // keep the access and its fault
			return uop{op: opExec, imm: uint64(w)}
		}
	default: // the rare (SVC, ERET, WFI, MRS, MSR, SDIV, UDIV, HLT) and the undefined
		return uop{op: opExec, imm: uint64(w)}
	}
	return u
}

// execTape runs b's tape from the top and returns how many guest
// instructions it retired (already added to c.Instret). It leaves c.PC at
// the next instruction to execute. The tape is left early when a branch is
// taken, an exception vectors, the core halts, or the instruction just
// retired invalidated translated code (a store into a code page, an MSR
// that reprogrammed the MMU): the rest of this tape may be stale then, and
// the run loop re-dispatches at the following instruction.
func (c *Core) execTape(b *block) uint64 {
	ops := b.ops
	epoch := c.btc.stats.Flushes
	i := 0            // micro-ops retired, this one included once fetched
	done := uint64(0) // of which exec has already counted in c.Instret
	for i < len(ops) {
		u := &ops[i]
		i++
		rd, rn, rm := u.rd&31, u.rn&31, u.rm&31
		switch u.op {
		default: // opExec
			pc := b.start + uint64(i-1)*4
			c.Instret += uint64(i-1) - done
			done = uint64(i)
			c.PC = pc
			c.exec(Decode(uint32(u.imm)), pc)
			if c.PC != pc+4 || c.btc.stats.Flushes != epoch {
				goto out
			}
		case OpNOP:
		case OpADD:
			c.X[rd] = c.X[rn] + c.X[rm]
		case OpSUB:
			c.X[rd] = c.X[rn] - c.X[rm]
		case OpAND:
			c.X[rd] = c.X[rn] & c.X[rm]
		case OpORR:
			c.X[rd] = c.X[rn] | c.X[rm]
		case OpEOR:
			c.X[rd] = c.X[rn] ^ c.X[rm]
		case OpMUL:
			c.X[rd] = c.X[rn] * c.X[rm]
		case OpLSL:
			c.X[rd] = c.X[rn] << (c.X[rm] & 63)
		case OpLSR:
			c.X[rd] = c.X[rn] >> (c.X[rm] & 63)
		case OpASR:
			c.X[rd] = uint64(int64(c.X[rn]) >> (c.X[rm] & 63))
		case OpADDS:
			c.setReg(rd, c.addFlags(c.X[rn], c.X[rm]))
		case OpSUBS:
			c.setReg(rd, c.subFlags(c.X[rn], c.X[rm]))
		case OpSUBSI:
			c.setReg(rd, c.subFlags(c.X[rn], u.imm))
		case OpCSEL:
			if c.condHolds(u.cond) {
				c.X[rd] = c.X[rn]
			} else {
				c.X[rd] = c.X[rm]
			}
		case OpADDI:
			c.X[rd] = c.X[rn] + u.imm
		case OpANDI:
			c.X[rd] = c.X[rn] & u.imm
		case OpORRI:
			c.X[rd] = c.X[rn] | u.imm
		case OpEORI:
			c.X[rd] = c.X[rn] ^ u.imm
		case OpLSLI:
			c.X[rd] = c.X[rn] << u.imm
		case OpLSRI:
			c.X[rd] = c.X[rn] >> u.imm
		case OpASRI:
			c.X[rd] = uint64(int64(c.X[rn]) >> u.imm)
		case OpMOVZ:
			c.X[rd] = u.imm
		case OpMOVK:
			c.X[rd] = c.X[rd]&^(0xFFFF<<u.rm) | u.imm

		case OpLDRB, OpLDRH, OpLDRW, OpLDRX: // consecutive opcodes, log2(size) apart
			va := c.X[rn] + u.imm
			size := uint64(1) << (u.op - OpLDRB)
			if off := va - c.ldv.base; off <= mem.PageSize-size && c.ldv.page != nil {
				switch p := c.ldv.page[off:]; u.op {
				case OpLDRX:
					c.X[rd] = binary.LittleEndian.Uint64(p)
				case OpLDRW:
					c.X[rd] = uint64(binary.LittleEndian.Uint32(p))
				case OpLDRH:
					c.X[rd] = uint64(binary.LittleEndian.Uint16(p))
				default:
					c.X[rd] = uint64(p[0])
				}
				continue
			}
			c.PC = b.start + uint64(i-1)*4 // the abort's return address
			v, ok := c.load(va, int(size))
			if !ok {
				goto out
			}
			c.X[rd] = v
		case OpSTRB, OpSTRH, OpSTRW, OpSTRX:
			va := c.X[rn] + u.imm
			size := uint64(1) << (u.op - OpSTRB)
			if off := va - c.stv.base; off <= mem.PageSize-size && c.stv.page != nil {
				switch p := c.stv.page[off:]; u.op {
				case OpSTRX:
					binary.LittleEndian.PutUint64(p, c.X[rd])
				case OpSTRW:
					binary.LittleEndian.PutUint32(p, uint32(c.X[rd]))
				case OpSTRH:
					binary.LittleEndian.PutUint16(p, uint16(c.X[rd]))
				default:
					p[0] = byte(c.X[rd])
				}
				continue
			}
			c.PC = b.start + uint64(i-1)*4
			if !c.store(va, int(size), c.X[rd]) {
				goto out
			}
			if c.btc.stats.Flushes != epoch {
				c.PC += 4
				goto out
			}

		case OpB:
			c.PC = u.imm
			goto out
		case OpBL:
			c.X[LR] = b.start + uint64(i)*4
			c.PC = u.imm
			goto out
		case OpBR:
			c.PC = c.X[rn]
			goto out
		case OpBLR:
			c.PC = c.X[rn] // read before the link write: BLR x30 is legal
			c.X[LR] = b.start + uint64(i)*4
			goto out
		case OpBCOND:
			if c.condHolds(u.cond) {
				c.PC = u.imm
				goto out
			}
		}
	}
	c.PC = b.start + uint64(i)*4 // ran off the end, or B.cond not taken
out:
	c.Instret += uint64(i) - done
	return uint64(i)
}
