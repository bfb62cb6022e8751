package cpu

// exec executes one decoded instruction located at pc. It updates all
// architectural state including c.PC (branches redirect, faults vector,
// everything else falls through to pc+4). It is the interpreter, the DBT's
// fallback for every instruction without a micro-op of its own, and the
// specification the tape executor is fuzzed against. c.PC must equal pc.
func (c *Core) exec(in Inst, pc uint64) {
	c.Instret++
	next := pc + 4

	// Read sources before any write: Rd may alias Rn/Rm.
	rn := c.X[in.Rn]
	rm := c.X[in.Rm]

	switch in.Op {
	case OpNOP:

	case OpHLT:
		c.halted = true
		c.PC = pc
		return

	case OpSVC:
		if c.sys[SysVBAR] != 0 {
			c.raiseSync(ExcSVC|uint64(in.Imm)<<16, 0, next)
			return
		}
		if c.OnSVC != nil {
			if !c.OnSVC(c, uint16(in.Imm)) {
				c.halted = true
				c.PC = pc
				return
			}
		} else {
			c.halted = true
			c.stopErr = errNoSVC(pc, uint16(in.Imm))
			c.PC = pc
			return
		}

	case OpERET:
		c.eret()
		return

	case OpWFI:
		if c.intc != nil && !c.intc.Pending() {
			// Park until any line is asserted; delivery happens at the top
			// of the run loop.
			<-c.intc.WaitChan()
		}

	case OpMRS:
		c.setReg(in.Rd, c.sys[SysReg(in.Imm)%NumSysRegs])

	case OpMSR:
		c.SetSys(SysReg(in.Imm)%NumSysRegs, c.X[in.Rd])

	case OpADD:
		c.setReg(in.Rd, rn+rm)
	case OpSUB:
		c.setReg(in.Rd, rn-rm)
	case OpAND:
		c.setReg(in.Rd, rn&rm)
	case OpORR:
		c.setReg(in.Rd, rn|rm)
	case OpEOR:
		c.setReg(in.Rd, rn^rm)
	case OpMUL:
		c.setReg(in.Rd, rn*rm)
	case OpSDIV:
		if rm == 0 {
			c.setReg(in.Rd, 0)
		} else if int64(rn) == -1<<63 && int64(rm) == -1 {
			c.setReg(in.Rd, rn) // overflow wraps, as on AArch64
		} else {
			c.setReg(in.Rd, uint64(int64(rn)/int64(rm)))
		}
	case OpUDIV:
		if rm == 0 {
			c.setReg(in.Rd, 0)
		} else {
			c.setReg(in.Rd, rn/rm)
		}
	case OpLSL:
		c.setReg(in.Rd, rn<<(rm&63))
	case OpLSR:
		c.setReg(in.Rd, rn>>(rm&63))
	case OpASR:
		c.setReg(in.Rd, uint64(int64(rn)>>(rm&63)))

	case OpADDS:
		c.setReg(in.Rd, c.addFlags(rn, rm))
	case OpSUBS:
		c.setReg(in.Rd, c.subFlags(rn, rm))
	case OpSUBSI:
		c.setReg(in.Rd, c.subFlags(rn, uint64(in.Imm)))

	case OpCSEL:
		if c.condHolds(in.Cond) {
			c.setReg(in.Rd, rn)
		} else {
			c.setReg(in.Rd, rm)
		}

	case OpADDI:
		c.setReg(in.Rd, rn+uint64(in.Imm))
	case OpSUBI:
		c.setReg(in.Rd, rn-uint64(in.Imm))
	case OpANDI:
		c.setReg(in.Rd, rn&uint64(in.Imm))
	case OpORRI:
		c.setReg(in.Rd, rn|uint64(in.Imm))
	case OpEORI:
		c.setReg(in.Rd, rn^uint64(in.Imm))
	case OpLSLI:
		c.setReg(in.Rd, rn<<(uint64(in.Imm)&63))
	case OpLSRI:
		c.setReg(in.Rd, rn>>(uint64(in.Imm)&63))
	case OpASRI:
		c.setReg(in.Rd, uint64(int64(rn)>>(uint64(in.Imm)&63)))

	case OpMOVZ:
		c.setReg(in.Rd, uint64(in.Imm)<<(16*uint(in.Rm)))
	case OpMOVK:
		shift := 16 * uint(in.Rm)
		v := c.X[in.Rd] &^ (uint64(0xFFFF) << shift)
		c.setReg(in.Rd, v|uint64(in.Imm)<<shift)

	case OpLDRB, OpLDRH, OpLDRW, OpLDRX:
		size := loadStoreSize(in.Op)
		v, ok := c.load(rn+uint64(in.Imm), size)
		if !ok {
			return
		}
		c.setReg(in.Rd, v)

	case OpSTRB, OpSTRH, OpSTRW, OpSTRX:
		size := loadStoreSize(in.Op)
		if !c.store(rn+uint64(in.Imm), size, c.X[in.Rd]) {
			return
		}

	case OpB:
		c.PC = pc + uint64(in.Imm)*4
		return
	case OpBL:
		c.setReg(LR, next)
		c.PC = pc + uint64(in.Imm)*4
		return
	case OpBR:
		c.PC = rn
		return
	case OpBLR:
		c.setReg(LR, next)
		c.PC = rn
		return
	case OpBCOND:
		if c.condHolds(in.Cond) {
			c.PC = pc + uint64(in.Imm)*4
			return
		}

	default:
		c.raiseSync(ExcUndefined, 0, pc)
		return
	}

	c.PC = next
}

func loadStoreSize(op Opcode) int {
	switch op {
	case OpLDRB, OpSTRB:
		return 1
	case OpLDRH, OpSTRH:
		return 2
	case OpLDRW, OpSTRW:
		return 4
	default:
		return 8
	}
}

func (c *Core) setReg(r uint8, v uint64) {
	if r != ZR {
		c.X[r] = v
	}
}

func (c *Core) addFlags(a, b uint64) uint64 {
	r := a + b
	c.FlagN = int64(r) < 0
	c.FlagZ = r == 0
	c.FlagC = r < a
	c.FlagV = (int64(a) >= 0) == (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0)
	return r
}

func (c *Core) subFlags(a, b uint64) uint64 {
	r := a - b
	c.FlagN = int64(r) < 0
	c.FlagZ = r == 0
	c.FlagC = a >= b
	c.FlagV = (int64(a) >= 0) != (int64(b) >= 0) && (int64(r) >= 0) != (int64(a) >= 0)
	return r
}

// condHolds reports whether cond holds for the current flags: a lookup in
// condTable, small enough to inline into the tape's compare-and-branch.
func (c *Core) condHolds(cond Cond) bool {
	f := 0
	if c.FlagN {
		f |= 8
	}
	if c.FlagZ {
		f |= 4
	}
	if c.FlagC {
		f |= 2
	}
	if c.FlagV {
		f |= 1
	}
	return condTable[cond&15]>>f&1 != 0
}

// condTable holds, per condition, the NZCV values it holds for: bit
// N<<3|Z<<2|C<<1|V.
var condTable = func() (t [16]uint16) {
	for f := 0; f < 16; f++ {
		n, z, c, v := f&8 != 0, f&4 != 0, f&2 != 0, f&1 != 0
		holds := [...]bool{
			CondEQ: z, CondNE: !z, CondHS: c, CondLO: !c, CondMI: n, CondPL: !n,
			CondVS: v, CondVC: !v, CondHI: c && !z, CondLS: !c || z,
			CondGE: n == v, CondLT: n != v, CondGT: !z && n == v, CondLE: z || n != v,
			CondAL: true,
		}
		for cond, h := range holds {
			if h {
				t[cond] |= 1 << f
			}
		}
	}
	return t
}()

type svcError struct {
	pc  uint64
	imm uint16
}

func (e *svcError) Error() string {
	return "cpu: SVC with no handler installed"
}

func errNoSVC(pc uint64, imm uint16) error { return &svcError{pc: pc, imm: imm} }
