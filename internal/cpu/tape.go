package cpu

import (
	"encoding/binary"
	"math/bits"

	"mobilesim/internal/mem"
)

// The DBT's translated form: one micro-op per guest instruction, with
// register indices, immediates and branch targets extracted at translation
// time. The instructions the platform firmware contains — all the guest
// code the driver runs — keep their opcode and are executed by execTape's
// single dense switch; everything else becomes opExec, which hands the
// instruction word back to the interpreter's exec — the specification both
// engines are held to by FuzzCPUEngines.

// uop is one tape entry (16 bytes).
type uop struct {
	op         Opcode
	rd, rn, rm uint8
	cond       Cond
	imm        uint64
}

// Micro-ops of the tape's own, which lower never emits for a decoded
// opcode: it turns every undefined one, NumOpcodes included, into opExec.
const (
	// opExec marks a micro-op the interpreter executes; imm is the
	// instruction word. Decode never produces it: the opcode field is 7
	// bits wide.
	opExec Opcode = 0xFF
	// opCmpBranch is a block's closing SUBSI fused with the B.cond after
	// it (fuse): it writes the flags, resolves the branch from them and
	// retires both. cond is the B.cond's; the B.cond keeps its slot, and
	// the target in it, so a tape still holds one micro-op per guest
	// instruction. Its value keeps execTape's case values dense, which
	// compiles the switch to a jump table.
	opCmpBranch = NumOpcodes
)

// lower translates the instruction word w at pc, already decoded as in.
// Register fields are at most 31 by construction of Decode.
func lower(in Inst, w uint32, pc uint64) uop {
	u := uop{op: in.Op, rd: in.Rd, rn: in.Rn, rm: in.Rm, cond: in.Cond, imm: uint64(in.Imm)}
	switch in.Op {
	case OpNOP, OpSUBSI, OpSTRB, OpSTRW, OpSTRX, OpBR:
		// No register result, or one besides it that a zero-register
		// destination must not suppress (the flags).
	case OpBCOND:
		u.imm = pc + uint64(in.Imm)*4
	case OpORR, OpADDI, OpSUBI, OpMOVZ:
		// Pure register results, executed with an unconditional write: a
		// zero-register destination makes them no-ops here.
		if in.Rd == ZR {
			return uop{op: OpNOP}
		}
		switch in.Op {
		case OpSUBI:
			u.op, u.imm = OpADDI, -u.imm
		case OpMOVZ: // imm becomes the shifted halfword
			u.imm <<= 16 * in.Rm
		}
	case OpLDRB, OpLDRW, OpLDRX:
		if in.Rd == ZR { // keep the access and its fault
			return uop{op: opExec, imm: uint64(w)}
		}
	default: // what the firmware does not contain, and the undefined
		return uop{op: opExec, imm: uint64(w)}
	}
	return u
}

// fuse turns a tape that ends SUBSI; B.cond — a compare-and-branch loop
// such as the firmware's mc_loop8 — into one that ends opCmpBranch; B.cond.
func fuse(ops []uop) {
	if n := len(ops); n >= 2 && ops[n-1].op == OpBCOND && ops[n-2].op == OpSUBSI {
		ops[n-2].op, ops[n-2].cond = opCmpBranch, ops[n-1].cond
	}
}

// copyLoop describes a block that is a counted copy loop: each pass loads
// t from [s], stores it to [d], steps s and d up by size and n down by it,
// and re-enters while CMPI n, #c leaves cond (HS or NE) holding. size 0:
// the block is no copy loop.
type copyLoop struct {
	size, c    uint64
	t, s, d, n uint8
	cond       Cond
}

// matchCopy recognises a fused self-loop tape LDR t, [s]; STR t, [d] of one
// size; ADDI s, s, #size, ADDI d, d, #size and SUBI n, n, #size in any
// order; CMPI n, #c; B.HS or B.NE back to start, with t, s, d and n
// distinct and none the zero register: the firmware's mc_loop8 and
// mc_tloop. Anything else is no copy loop.
func matchCopy(ops []uop, start uint64) copyLoop {
	if len(ops) != 7 {
		return copyLoop{}
	}
	ld, st, cmp, br := ops[0], ops[1], ops[5], ops[6]
	if ld.op < OpLDRB || ld.op > OpLDRX || st.op != ld.op+OpSTRB-OpLDRB ||
		ld.imm != 0 || st.imm != 0 || ld.rd != st.rd ||
		cmp.op != opCmpBranch || cmp.rd != ZR || cmp.cond != CondHS && cmp.cond != CondNE ||
		br.imm != start {
		return copyLoop{}
	}
	size := uint64(1) << (ld.op - OpLDRB)
	cl := copyLoop{size: size, c: cmp.imm, t: ld.rd, s: ld.rn, d: st.rn, n: cmp.rn, cond: cmp.cond}
	seen := 0 // bit 0: s stepped, 1: d, 2: n
	for _, u := range ops[2:5] {
		switch {
		case u.op != OpADDI || u.rd != u.rn:
			return copyLoop{}
		case u.rd == cl.s && u.imm == size:
			seen |= 1
		case u.rd == cl.d && u.imm == size:
			seen |= 2
		case u.rd == cl.n && u.imm == -size:
			seen |= 4
		}
	}
	regs := uint32(1)<<cl.t | 1<<cl.s | 1<<cl.d | 1<<cl.n
	if seen != 7 || regs&(1<<ZR) != 0 || bits.OnesCount32(regs) != 4 {
		return copyLoop{}
	}
	return cl
}

// execTape runs b's tape from the top and returns how many guest
// instructions it retired (already added to c.Instret). It leaves c.PC at
// the next instruction to execute. A taken B.cond back to b's own start
// re-enters the tape wherever the run loop would have chained b to itself;
// that is a block boundary, so the budget and pending interrupts are
// checked and the dispatch counted there exactly as runDBT and next do, and
// the tape overshoots budget by less than one pass. The tape is left when
// any other branch is taken, an exception vectors, the core halts, or the
// instruction just retired invalidated translated code (a store into a code
// page, an MSR that reprogrammed the MMU): the rest of this tape may be
// stale then, and the run loop re-dispatches at the following instruction.
func (c *Core) execTape(b *block, budget uint64) uint64 {
	ops := b.ops
	epoch := c.btc.stats.Flushes
	ran := uint64(0)  // retired by the passes before this one
	i := 0            // micro-ops retired, this one included once fetched
	done := uint64(0) // of which exec has already counted in c.Instret
	if b.cp.size != 0 {
		ran = c.copyStep(b, 0, budget)
	}
pass:
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
		case OpORR:
			c.X[rd] = c.X[rn] | c.X[rm]
		case OpADDI:
			c.X[rd] = c.X[rn] + u.imm
		case OpSUBSI:
			c.setReg(rd, c.subFlags(c.X[rn], u.imm))
		case OpMOVZ:
			c.X[rd] = u.imm

		case OpLDRX:
			va := c.X[rn] + u.imm
			if off := va - c.ldv.base; off <= mem.PageSize-8 && c.ldv.page != nil {
				c.X[rd] = binary.LittleEndian.Uint64(c.ldv.page[off:])
				continue
			}
			c.PC = b.start + uint64(i-1)*4 // the abort's return address
			v, ok := c.load(va, 8)
			if !ok {
				goto out
			}
			c.X[rd] = v
		case OpSTRX:
			va := c.X[rn] + u.imm
			if off := va - c.stv.base; off <= mem.PageSize-8 && c.stv.page != nil {
				binary.LittleEndian.PutUint64(c.stv.page[off:], c.X[rd])
				continue
			}
			c.PC = b.start + uint64(i-1)*4
			if !c.store(va, 8, c.X[rd]) {
				goto out
			}
			if c.btc.stats.Flushes != epoch {
				c.PC += 4
				goto out
			}
		case OpLDRB, OpLDRW: // opcodes log2(size) apart
			va := c.X[rn] + u.imm
			size := uint64(1) << (u.op - OpLDRB)
			if off := va - c.ldv.base; off <= mem.PageSize-size && c.ldv.page != nil {
				if p := c.ldv.page[off:]; u.op == OpLDRW {
					c.X[rd] = uint64(binary.LittleEndian.Uint32(p))
				} else {
					c.X[rd] = uint64(p[0])
				}
				continue
			}
			c.PC = b.start + uint64(i-1)*4
			v, ok := c.load(va, int(size))
			if !ok {
				goto out
			}
			c.X[rd] = v
		case OpSTRB, OpSTRW:
			va := c.X[rn] + u.imm
			size := uint64(1) << (u.op - OpSTRB)
			if off := va - c.stv.base; off <= mem.PageSize-size && c.stv.page != nil {
				if p := c.stv.page[off:]; u.op == OpSTRW {
					binary.LittleEndian.PutUint32(p, uint32(c.X[rd]))
				} else {
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

		case OpBR:
			c.PC = c.X[rn]
			goto out
		case OpBCOND:
			if c.condHolds(u.cond) {
				c.PC = u.imm
				goto taken
			}
		case opCmpBranch:
			c.setReg(rd, c.subFlags(c.X[rn], u.imm))
			if i++; c.condHolds(u.cond) { // the B.cond retires with it
				c.PC = ops[i-1].imm
				goto taken
			}
		}
	}
	c.PC = b.start + uint64(i)*4 // ran off the end, or B.cond not taken
	goto out
taken:
	// Back at b's start, where next would follow b's link to itself: the
	// block boundary runDBT would reach, taken here.
	if c.PC == b.start && b.epoch == c.btc.stats.Flushes && (b.succ[0] == b || b.succ[1] == b) {
		c.Instret += uint64(i) - done
		ran += uint64(i)
		i, done = 0, 0
		if ran < budget && !c.pendingIRQ() {
			c.btc.stats.Executions++
			c.btc.stats.Chained++
			if b.cp.size != 0 {
				ran += c.copyStep(b, ran, budget)
			}
			goto pass
		}
	}
out:
	c.Instret += uint64(i) - done
	return ran + uint64(i)
}

// copyStep runs in one step the passes of copy loop b that the tape, at
// the top of a pass ran instructions into a run of budget, would run
// through its one-page fast paths and then re-enter. It returns the
// instructions they retire, already added to c.Instret; 0 leaves the pass
// to the tape. A step needs what a re-entry needs (b's link to itself, no
// pending interrupt) and both page views, so translation is off and
// neither access is MMIO. The pass whose branch falls through, the pass
// whose element leaves a view and the pass after which the budget ends the
// run stay the tape's. The elements are copied one at a time, in ascending
// order, as the tape copies them, so an overlapping copy reads what the
// tape would; registers, flags and dispatch counts end as the passes
// leave them.
func (c *Core) copyStep(b *block, ran, budget uint64) uint64 {
	cl := &b.cp
	if b.epoch != c.btc.stats.Flushes || b.succ[0] != b && b.succ[1] != b ||
		c.ldv.page == nil || c.stv.page == nil {
		return 0
	}
	size, n := cl.size, c.X[cl.n]
	if n < cl.c {
		return 0 // B.HS falls through; B.NE: n would wrap
	}
	k := (n - cl.c) / size // B.HS is taken after passes 1..k
	if cl.cond == CondNE {
		if n == cl.c || (n-cl.c)%size != 0 {
			return 0 // n would wrap before it reaches c
		}
		k-- // B.NE falls through after pass k+1
	}
	src, dst := c.X[cl.s]-c.ldv.base, c.X[cl.d]-c.stv.base
	if src > mem.PageSize-size || dst > mem.PageSize-size {
		return 0
	}
	pass := uint64(len(b.ops))
	k = min(k, (mem.PageSize-size-src)/size+1, (mem.PageSize-size-dst)/size+1, (budget-ran-1)/pass)
	if k == 0 || c.pendingIRQ() {
		return 0
	}
	from, to := c.ldv.page[src:src+k*size], c.stv.page[dst:dst+k*size]
	var v uint64
	if size == 8 { // mc_loop8: all but a byte tail of every memcpy
		for j := 0; j < len(from); j += 8 {
			v = binary.LittleEndian.Uint64(from[j:])
			binary.LittleEndian.PutUint64(to[j:], v)
		}
	} else {
		for j := uint64(0); j < k*size; j += size {
			v = mem.LoadLE(from[j : j+size])
			mem.StoreLE(to[j:j+size], int(size), v)
		}
	}
	n -= k * size
	c.X[cl.t], c.X[cl.n] = v, n
	c.X[cl.s] += k * size
	c.X[cl.d] += k * size
	c.subFlags(n, cl.c)
	c.Instret += k * pass
	c.btc.stats.Executions += k
	c.btc.stats.Chained += k
	if countCopySteps != nil {
		countCopySteps(k)
	}
	return k * pass
}

// countCopySteps, when set, is told the passes of every copyStep: a
// counting seam for the tests, which no statistic carries — the
// interpreter has no steps to count.
var countCopySteps func(passes uint64)
