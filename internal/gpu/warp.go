package gpu

import (
	"math"
	"slices"

	"mobilesim/internal/stats"
)

// Warp-batched shader execution — the default engine tier (DESIGN.md §9).
// warpCompile lowers every clause of a program to a flat tape of
// pre-decoded micro-ops over the warp's unified SoA register file,
// optimises those tapes (optimise.go), then concatenates each clause and
// its fallthrough and BR successors into a chain tape, which the optimiser
// value-numbers; the executor and the micro-op format live in tape.go.
// Every operand shape lowers to the tape —
// uniform operands of ops without a vector∘uniform case are first broadcast
// into a scratch row — so the only instructions left to the per-lane
// interpreter are listed in tapeFallbackReason.

// Row indices of warp.rows beyond the operand-addressable registers.
// OperGRF = 0 and OperTemp = 1 make the operand bytes of r0..r63 and
// t0..t3 the row indices 0..67 themselves.
const (
	rowGID      = NumGRF + NumTemp // gid.x/y/z, one row per dimension
	rowLID      = rowGID + 3       // lid.x/y/z
	rowScratchA = rowLID + 3       // broadcast of a uniform A operand
	rowScratchB = rowScratchA + 1  // broadcast of a uniform B operand
	rowStage    = rowScratchB + 1  // a per-lane load's lanes, before they reach its destination
	rowSpare    = rowStage + 1     // numSpare rows where value numbering keeps a value a temporary loses
	numSpare    = 2
	rowHoist    = rowSpare + numSpare // numHoist rows where a loop's re-entry variant finds a hoisted value
	numHoist    = 4
	numRows     = rowHoist + numHoist
)

// Slots of execContext.uvals, the table warp-uniform operands are read
// from: the kernel arguments c0..c63, the workgroup-level specials, a zero,
// a one (the s1 of a fused address of a sum), then the program's
// immediates and ROM words (warpProgram.consts).
const (
	uvWGID   = 64
	uvGSZ    = uvWGID + 3
	uvLSZ    = uvGSZ + 3
	uvZero   = uvLSZ + 3
	uvOne    = uvZero + 1
	uvConsts = uvOne + 1
)

// termKind is a tape's terminal, decoded when the tape is built.
type termKind uint8

const (
	tkFall termKind = iota // no terminal instruction: on to next
	tkBR
	tkBRC
	tkRET
	tkBARRIER
)

// tape is one executable unit of the warp engine: the micro-ops of a
// clause's straight-line prefix — or of a whole chain of clauses — with
// the statistics of their fault-free runs beside them (marks), plus the
// clause-terminal control flow that ends it. Slots after the first
// terminal are dead in every engine.
type tape struct {
	ops   []uop
	marks []mark
	next  int // (final) clause index + 1: the terminal's "next"
	n     int // clauses covered; ≥ 2 for a chain

	// The terminal as runWarp applies it: a branch's target (next for a
	// fallthrough) and reconvergence clause, a BRC's predicate (a row, XORed
	// with pred.neg, when pred.vec, else a uvals slot) and what the terminal
	// counts per active lane — CFInstr and the predicate's operand counter.
	tk          termKind
	tgt, rejoin int
	pred        operand
	termSt      tapeStats

	// head is the clause the tape starts at, wset the registers and
	// temporaries its ALU micro-ops write (what restoreInactive puts back for
	// a divergent warp), again the chains index of its re-entry variant
	// (hoist), 0 when it has none (a variant's is its own), and cmp the
	// icmplt a BRC evaluates in place of reading pred.row (branchCompares),
	// 0 when it reads the row.
	head  int
	wset  []uint8
	again int
	cmp   uop
}

// warpProgram is the compiled form of a Program. chains holds the two
// chain tables buildChains builds, one tape per clause each: chains[ci],
// the heads table, is what a warp inside a divergent region runs when it
// enters clause ci, and chains[n+ci], the flat table, what a warp with an
// empty divergence stack runs there (n clauses). clauses[ci] is always the
// clause alone: the optimiser rewrites it, buildChains chains it and
// cfgCommit walks a chain's clauses through it; nothing runs it. The side
// tables are indexed by uop.imm.
type warpProgram struct {
	clauses []tape
	chains  []tape
	mems    []memOp
	slow    []slowOp
	addrs   [][3]uint32 // a fused address's uvals slots s1, s2, s3
	consts  []uint64
}

// slowOp is the payload of a micro-op that leaves the executor's switch.
type slowOp struct {
	in  *Instr
	un  func(a uint64) uint64
	bin func(a, b uint64) uint64
}

// operand is a source operand resolved at compile time: a row of the
// register file, or a slot of the uniform table. A BRC predicate row has
// neg 1 when the optimiser has it read a boolean row negated (bools).
type operand struct {
	vec bool
	row uint8
	uv  uint32
	ctr ctrKind
	neg uint64
}

// tapeBuilder lowers instructions onto one clause tape.
type tapeBuilder struct {
	p      *Program
	wp     *warpProgram
	ops    []uop
	marks  []mark
	start  int               // index in ops where the tape being built starts: marks count from it
	run    int               // index in marks of the open fault-free run; -1 after a uop that can fault
	consts map[uint64]uint32 // value → uvals slot
}

// warpCompile lowers every clause of a program, optimises the clause tapes,
// builds both chain tables, numbers the values of every chain, builds the
// loops' re-entry variants and hands the loops' tests to their BRCs.
func warpCompile(p *Program) *warpProgram {
	wp := &warpProgram{clauses: make([]tape, len(p.Clauses))}
	b := &tapeBuilder{p: p, wp: wp, consts: map[uint64]uint32{}}
	for ci := range p.Clauses {
		c := &p.Clauses[ci]
		t := &wp.clauses[ci]
		t.next, t.tgt, t.n, t.head = ci+1, ci+1, 1, ci
		firstMark := len(b.marks)
		b.start, b.run = len(b.ops), -1
		// Unfilled issue slots: a clause of N slots issues in ceil(N/2)
		// tuples; the odd slot is an architecturally empty issue slot
		// (Fig 11's "empty slots"), accounted with the clause entry.
		b.alu().nop += uint32(c.Tuples()*2 - c.Slots())
		b.marks[b.run].slot = int32(min(c.Slots(), stats.MaxClauseSlots))
		for ii := range c.Instrs {
			in := &c.Instrs[ii]
			if IsClauseTerminal(in.Op) {
				b.terminal(t, in)
				break
			}
			b.lower(in)
		}
		t.ops = b.ops[b.start:len(b.ops):len(b.ops)]
		t.marks = b.marks[firstMark:len(b.marks):len(b.marks)]
	}
	wp.optimise()
	n := len(wp.clauses)
	wp.chains = make([]tape, 2*n)
	buildChains(wp, wp.chains[:n], true)
	buildChains(wp, wp.chains[n:], false)
	out := liveOut(wp.clauses)
	sc := scratchPool.Get().(*valueScratch)
	wp.numberValues(out, sc)
	wp.hoist(sc)
	scratchPool.Put(sc)
	wp.branchCompares(out)
	wp.writeSets()
	return wp
}

// writeSets records every chain tape's write set: the registers and
// temporaries it writes other than through a load, which like a store and
// a kLaneInterp writes only active lanes. One array backs them all.
func (wp *warpProgram) writeSets() {
	size := 0
	for k := range wp.chains {
		size += min(len(wp.chains[k].ops), rowGID)
	}
	buf := make([]uint8, 0, size)
	for k := range wp.chains {
		t := &wp.chains[k]
		var in [rowGID]bool
		start := len(buf)
		for _, u := range t.ops {
			if d := u.d(); u.writes() && u.kind() != kLoad && d < rowGID && !in[d] {
				in[d] = true
				buf = append(buf, d)
			}
		}
		t.wset = buf[start:len(buf):len(buf)]
	}
}

// terminal decodes a clause's terminal instruction into its tape.
func (b *tapeBuilder) terminal(t *tape, in *Instr) {
	t.termSt.cf = 1
	switch in.Op {
	case OpBR:
		t.tk, t.tgt = tkBR, in.BranchTarget()
	case OpRET:
		t.tk = tkRET
	case OpBARRIER:
		t.tk = tkBARRIER
	case OpBRC:
		t.tk, t.tgt, t.rejoin = tkBRC, in.BranchTarget(), in.Reconverge()
		t.pred = b.operand(in.A, in.Imm)
		t.termSt.count(t.pred.ctr)
	}
}

// tapeFallbackReason names why an instruction runs through kLaneInterp
// instead of lowered micro-ops, or returns "" when it lowers. It is the
// explicit fallback list the tape coverage test checks opcodes against.
// The tape lowers what clc emits; every other instruction stays executable
// through the interpreter, the specification the tape is fuzzed against.
func tapeFallbackReason(in *Instr) string {
	switch in.Op {
	case OpNOP, OpSTG, OpSTGB, OpSTL:
		return ""
	case OpSHR, OpUCMPLT, OpFMA, OpSEL, OpLDG64, OpSTG64:
		return "clc emits none: the interpreter executes it"
	}
	if Classify(in.Op) != ClassLS && aluArity[in.Op] == 0 {
		return "no ALU lowering: the interpreter executes it or reports the error"
	}
	if in.Dst >= NumGRF+NumTemp {
		return "destination is not a register: the interpreter discards the result"
	}
	return ""
}

// operand resolves a source operand byte. A clause temporary's index is
// below NumTemp: ParseBinary rejects any other.
func (b *tapeBuilder) operand(o uint8, imm uint32) operand {
	kind, idx := OperKind(o)
	switch kind {
	case OperGRF:
		return operand{vec: true, row: o, ctr: ctrGRFRead}
	case OperTemp:
		return operand{vec: true, row: o, ctr: ctrTempAcc}
	case OperUniform:
		return operand{uv: uint32(idx), ctr: ctrConstRead}
	}
	switch {
	case idx == SpecImm:
		return operand{uv: b.constSlot(uint64(imm)), ctr: ctrROMRead}
	case idx == SpecROM:
		var v uint64
		if int(imm) < len(b.p.ROM) {
			v = b.p.ROM[imm]
		}
		return operand{uv: b.constSlot(v), ctr: ctrROMRead}
	case idx >= SpecGIDX && idx <= SpecLIDZ:
		return operand{vec: true, row: rowGID + idx - SpecGIDX}
	case idx >= SpecWGIDX && idx <= SpecLSZZ:
		return operand{uv: uvWGID + uint32(idx-SpecWGIDX)}
	}
	// SpecZero and the undefined dense specials read as zero with no
	// counter, as read() does.
	return operand{uv: uvZero}
}

func (b *tapeBuilder) constSlot(v uint64) uint32 {
	slot, ok := b.consts[v]
	if !ok {
		slot = uint32(uvConsts + len(b.wp.consts))
		b.consts[v] = slot
		b.wp.consts = append(b.wp.consts, v)
	}
	return slot
}

// alu returns the stats aggregate of the open fault-free run, opening one
// at the next micro-op when the previous one could fault.
func (b *tapeBuilder) alu() *tapeStats {
	if b.run < 0 {
		b.run = len(b.marks)
		b.marks = append(b.marks, mark{pos: int32(len(b.ops) - b.start), slot: -1})
	}
	return &b.marks[b.run].st
}

// row returns o as a row index, broadcasting a uniform into scratch first.
func (b *tapeBuilder) row(o operand, scratch uint8) uint8 {
	if o.vec {
		return o.row
	}
	b.ops = append(b.ops, mkUop(kSplat, scratch, 0, 0, o.uv))
	return scratch
}

func (b *tapeBuilder) slowIdx(s slowOp) uint32 {
	b.wp.slow = append(b.wp.slow, s)
	return uint32(len(b.wp.slow) - 1)
}

// slowBin and slowUn hold the value functions of the ALU opcodes without a
// leaf case in fastVV: kSlow runs them on the tape, execLane in the
// interpreter.
var slowBin = [NumOpcodes]func(a, b uint64) uint64{
	OpIDIV: func(a, b uint64) uint64 {
		if int32(b) == 0 {
			return 0
		}
		if int32(a) == math.MinInt32 && int32(b) == -1 {
			return uint64(uint32(a))
		}
		return uint64(uint32(int32(a) / int32(b)))
	},
	OpIMOD: func(a, b uint64) uint64 {
		if int32(b) == 0 || (int32(a) == math.MinInt32 && int32(b) == -1) {
			return 0
		}
		return uint64(uint32(int32(a) % int32(b)))
	},
	OpFMIN: func(a, b uint64) uint64 {
		return fbits(float32(math.Min(float64(f32(a)), float64(f32(b)))))
	},
	OpFMAX: func(a, b uint64) uint64 {
		return fbits(float32(math.Max(float64(f32(a)), float64(f32(b)))))
	},
}

var slowUn = [NumOpcodes]func(a uint64) uint64{
	OpFEXP: func(a uint64) uint64 { return fbits(float32(math.Exp(float64(f32(a))))) },
	OpFLOG: func(a uint64) uint64 { return fbits(float32(math.Log(float64(f32(a))))) },
	OpFSIN: func(a uint64) uint64 { return fbits(float32(math.Sin(float64(f32(a))))) },
	OpFCOS: func(a uint64) uint64 { return fbits(float32(math.Cos(float64(f32(a))))) },
}

// aluArity is the source-operand count of every opcode with an ALU lowering
// and 0 for every other opcode byte, defined or not. fastVV, fastUV mark
// the opcodes with a leaf case in the executor's kVV (and kVU) block and in
// its kUV block; the others run through kSlow. Commutative ops need no kUV
// case — their operands swap into kVU bit-exactly. That includes FADD and
// FMUL: IEEE add and mul commute, and a NaN result is canonical (fres).
var aluArity, fastVV, fastUV = func() (arity [256]uint8, vv, uv [NumOpcodes]bool) {
	for _, op := range []Opcode{OpISUB, OpSHL, OpSAR, OpFSUB, OpFDIV,
		OpICMPLT, OpICMPLE, OpFCMPLT, OpFCMPLE} {
		arity[op], vv[op], uv[op] = 2, true, true
	}
	for _, op := range []Opcode{OpIADD, OpIMUL, OpIMIN, OpIMAX, OpAND, OpOR, OpXOR, OpADD64, OpMUL64,
		OpICMPEQ, OpICMPNE, OpFCMPEQ, OpFADD, OpFMUL} {
		arity[op], vv[op] = 2, true
	}
	for _, op := range []Opcode{OpMOV, OpI2F, OpF2I, OpFABS, OpFNEG, OpFSQRT, OpFFLOOR} {
		arity[op], vv[op] = 1, true
	}
	for op := range slowBin {
		if slowBin[op] != nil {
			arity[op] = 2
		}
		if slowUn[op] != nil {
			arity[op] = 1
		}
	}
	return
}()

// lower appends the micro-ops of one non-terminal instruction.
func (b *tapeBuilder) lower(in *Instr) {
	if Classify(in.Op) == ClassNop {
		b.alu().nop++
		return
	}
	if tapeFallbackReason(in) != "" {
		b.ops = append(b.ops, mkUop(kLaneInterp, 0, 0, 0, b.slowIdx(slowOp{in: in})))
		b.run = -1
		return
	}
	A, B := b.operand(in.A, in.Imm), b.operand(in.B, in.Imm)
	if Classify(in.Op) == ClassLS {
		b.lowerMem(in, A, B)
		return
	}
	d := in.Dst // GRF/temp operand bytes are row indices
	dWrite := ctrGRFWrite
	if d >= NumGRF {
		dWrite = ctrTempAcc
	}
	st := b.alu()
	st.arith++
	st.count(A.ctr)
	st.count(dWrite)
	op := uopKind(in.Op)

	if aluArity[in.Op] == 1 {
		switch {
		case !A.vec && in.Op == OpMOV:
			b.ops = append(b.ops, mkUop(kSplat, d, 0, 0, A.uv))
		case fastVV[in.Op]:
			b.ops = append(b.ops, mkUop(kVV+op, d, b.row(A, rowScratchA), 0, 0))
		default:
			b.ops = append(b.ops, mkUop(kSlow, d, b.row(A, rowScratchA), 0, b.slowIdx(slowOp{un: slowUn[in.Op]})))
		}
		return
	}

	st.count(B.ctr)
	if !fastVV[in.Op] {
		b.ops = append(b.ops, mkUop(kSlow, d, b.row(A, rowScratchA), b.row(B, rowScratchB),
			b.slowIdx(slowOp{bin: slowBin[in.Op]})))
		return
	}
	switch {
	case B.vec:
		if A.vec {
			b.ops = append(b.ops, mkUop(kVV+op, d, A.row, B.row, 0))
		} else if fastUV[in.Op] {
			b.ops = append(b.ops, mkUop(kUV+op, d, 0, B.row, A.uv))
		} else {
			b.ops = append(b.ops, mkUop(kVU+op, d, B.row, 0, A.uv))
		}
	default:
		b.ops = append(b.ops, mkUop(kVU+op, d, b.row(A, rowScratchA), 0, B.uv))
	}
}

// lowerMem appends a load/store micro-op; uniform address or value
// operands are broadcast first and keep their own operand counter.
func (b *tapeBuilder) lowerMem(in *Instr, A, B operand) {
	size, local, store := accessOf(in.Op)
	m := memOp{off: uint64(int64(int32(in.Imm))), size: size, local: local, store: store, aCtr: A.ctr}
	kind, d, a, v := kLoad, in.Dst, b.row(A, rowScratchA), uint8(0)
	if store {
		kind, d, v, m.vCtr = kStore, 0, b.row(B, rowScratchB), B.ctr
	} else {
		m.vCtr = ctrGRFWrite
		if d >= NumGRF {
			m.vCtr = ctrTempAcc
		}
	}
	m.dst = d
	b.ops = append(b.ops, mkUop(kind, d, a, v, uint32(len(b.wp.mems))))
	b.wp.mems = append(b.wp.mems, m)
	b.run = -1
}

// maxChainOps bounds the micro-ops of a chain: a clause joins a chain only
// while the chain stays within it. The chain's head always runs.
const maxChainOps = 64

// buildChains fills one chain table, chains: for every clause ci, the tape
// a warp entering ci runs. That is ci and its fallthrough and BR
// successors, up to the first BRC, RET or BARRIER terminal, a clause
// already in the chain (so a loop body's chain ends where the loop
// header's BRC does, and no clause runs twice in one tape) or maxChainOps
// micro-ops. The active mask is
// constant through a chain: masks change only at BRC and RET terminals,
// which end one. With stopAtRejoin a chain also ends before any BRC's
// reconvergence clause, for a warp inside a divergent region: runWarp
// checks reconvergence only where a warp enters a tape, and a warp reaching
// a rejoin clause mid-tape would run it before the other path had. A warp
// with an empty divergence stack has no frame to rejoin, so its table runs
// through them.
//
// A chain tape is the clause tapes back to back, their marks re-based. An
// unconditional BR folded away between two clauses disappears as a jump,
// but the interpreter counts it as a control-flow instruction: its terminal
// counts become a mark at the next clause's first micro-op, ahead of that
// clause's own, so a fault there commits the BR as the interpreter did.
func buildChains(wp *warpProgram, chains []tape, stopAtRejoin bool) {
	n := len(wp.clauses)
	rejoin := make([]bool, n)
	for _, t := range wp.clauses {
		if stopAtRejoin && t.tk == tkBRC && t.rejoin < n {
			rejoin[t.rejoin] = true
		}
	}
	var chain []int
	for head := range chains {
		chain = append(chain[:0], head)
		size := len(wp.clauses[head].ops)
		for t := &wp.clauses[head]; t.tk == tkFall || t.tk == tkBR; t = &wp.clauses[t.tgt] {
			if t.tgt >= n || rejoin[t.tgt] || slices.Contains(chain, t.tgt) || size+len(wp.clauses[t.tgt].ops) > maxChainOps {
				break
			}
			chain = append(chain, t.tgt)
			size += len(wp.clauses[t.tgt].ops)
		}
		if len(chain) == 1 {
			chains[head] = wp.clauses[head]
			continue
		}
		nm := len(chain) - 1 // a mark per BR folded away, at most
		for _, ci := range chain {
			nm += len(wp.clauses[ci].marks)
		}
		ops, marks := make([]uop, 0, size), make([]mark, 0, nm)
		for i, ci := range chain {
			if i > 0 && wp.clauses[chain[i-1]].tk != tkFall {
				marks = append(marks, mark{pos: int32(len(ops)), slot: -1, st: wp.clauses[chain[i-1]].termSt})
			}
			for _, m := range wp.clauses[ci].marks {
				m.pos += int32(len(ops))
				marks = append(marks, m)
			}
			ops = append(ops, wp.clauses[ci].ops...)
		}
		t := wp.clauses[chain[len(chain)-1]]
		t.ops, t.marks, t.n, t.head = ops, marks, len(chain), head
		chains[head] = t
	}
}
