package gpu

import (
	"math"
	"math/bits"

	"mobilesim/internal/mem"
	"mobilesim/internal/stats"
)

// The warp engine's executor (DESIGN.md §9): warpCompile lowers every
// clause — and every chain of clauses — to a flat tape of pre-decoded
// micro-ops, and runWarp runs a tape for one whole warp with a single
// dense switch. ALU cases are leaf code, the four lanes written out in the
// case over rows of the warp's unified register file. A warp's word and
// byte loads and stores are served from the switch too, through one call
// (leafMem), when every page its active lanes touch is RAM the TLB holds
// — or one page a walk reaches, on a miss. The memory accesses it hands
// back run through memLanes, the interpreter's per-lane access (access)
// over the active lanes; they, the rare slow ALU ops and the per-lane
// interpreter fallback leave the switch for runWarp. The switch has cases
// for what clc emits only: every other instruction runs through the
// interpreter (tapeFallbackReason). The switch has no masked mode: a
// divergent warp runs the tape at full width, and runWarp saves the
// registers and temporaries the tape writes as it enters and puts their
// inactive lanes back before the terminal or an abort (restoreInactive). A
// chain whose BRC re-enters its own head has a re-entry variant without
// its loop-invariant micro-ops (optimise.go: hoist), which runWarp runs on
// every trip after the first, and a BRC evaluates the icmplt that ends its
// tape itself when no clause reads the result (branchCompares).
//
// Counter contract: the interpreter bumps the class counter once per
// instruction (scaled by the clause's active-lane count) before touching
// lanes, and operand counters per lane access. ALU instructions cannot
// fault, so the bumps of a run of them are summed at compile time into a
// mark beside the tape; a core tallies how many warps and lanes entered
// each tape and commitTallies multiplies the two when its share of the job
// ends — a core's shard is private until execJob merges it, so nothing
// can observe when the counts are added. A tape that stops early commits
// the marks it reached (abortTape), the interpreter's totals at that
// point. The CFG under collection is derived from the same tallies
// (cfgCommit), so it lacks a faulting tape's entry; a faulted run renders
// no CFG. Memory instructions CAN fault and abort the warp mid-instruction,
// so memLanes counts live, interleaved with the walker calls exactly as
// the interpreter interleaves them: each lane goes through the
// interpreter's own access. An access execLeaf serves cannot fault once
// its TLB probe succeeds, so its counters are a fixed amount per lane:
// leafMem tallies the lanes per memory site (served) and commitTallies
// multiplies them out with the tape tallies.

// The leaf cases spell out the lanes of a row: in a function the size of
// execLeaf the compiler neither unrolls a WarpSize loop nor keeps its
// counter in a register.
var _ [0]struct{} = [WarpSize - 4]struct{}{}

// uopKind selects the executor case of a micro-op.
type uopKind uint8

const (
	kSplat uopKind = iota // d = broadcast(uvals[imm])
	kSlow                 // d = slow[imm]'s value function of a (and b), per lane
	// The memory micro-ops, mems[imm] their offset, size, space and
	// counters. execLeaf serves the accesses it can (see leafMem).
	kLoad       // d = mem[a + off]: a word, or a zero-extended byte
	kStore      // mem[a + off] = b
	kLaneInterp // slow[imm].in through the interpreter, lane by lane
	// The fused address idiom (optimise.go), uniforms from the uvals slots
	// addrs[imm]: imul → iadd → mul64 → add64 (iadd → mul64 → add64 with
	// an s1 of 1), and the mul64 → add64 tail.
	kAddr     // d = uint64(uint32(a)*s1 + uint32(b))*s2 + s3
	kAddrTail // d = a*s2 + s3

	// The ALU blocks: kind = block + Opcode. Unary ops live in the same
	// blocks. No case reads its destination.
	kVV                             // d = op(a, b) over rows
	kVU = kVV + uopKind(NumOpcodes) // d = op(a, uvals[imm])
	kUV = kVU + uopKind(NumOpcodes) // d = op(uvals[imm], b)
)

// uop is one pre-decoded micro-op, packed into a word the executor loads
// once: an executor case (bits 0..7), three row indices into warp.rows (d,
// a, b: bits 8..31) and one 32-bit payload (a uvals/mems/slow index).
type uop uint64

func mkUop(kind uopKind, d, a, b uint8, imm uint32) uop {
	return uop(kind) | uop(d)<<8 | uop(a)<<16 | uop(b)<<24 | uop(imm)<<32
}

func (u uop) kind() uopKind { return uopKind(u) }
func (u uop) d() uint8      { return uint8(u >> 8) }
func (u uop) a() uint8      { return uint8(u >> 16) }
func (u uop) b() uint8      { return uint8(u >> 24) }
func (u uop) imm() uint32   { return uint32(u >> 32) }

// tapeStats is the compile-time aggregate of the statistics a run of
// fault-free instructions bumps per active lane: the instruction-class
// counters plus the operand-access breakdown.
type tapeStats struct {
	arith, nop, cf, grfRead, grfWrite, tempAcc, constRead, romRead uint32
}

// commit adds the aggregate to the shard for lanes active lanes.
//
//simlint:commit -- the designated bulk commit of a tape's pre-summed counters
func (s *tapeStats) commit(gs *stats.GPUStats, lanes uint64) {
	gs.ArithInstr += uint64(s.arith) * lanes
	gs.NopInstr += uint64(s.nop) * lanes
	gs.CFInstr += uint64(s.cf) * lanes
	gs.GRFRead += uint64(s.grfRead) * lanes
	gs.GRFWrite += uint64(s.grfWrite) * lanes
	gs.TempAcc += uint64(s.tempAcc) * lanes
	gs.ConstRead += uint64(s.constRead) * lanes
	gs.ROMRead += uint64(s.romRead) * lanes
}

// mark carries the statistics of one fault-free run of a tape: the run
// starts at ops[pos] (len(ops) for a run of NOPs that closes the tape), and
// slot is the size-histogram slot of the clause that starts there with it,
// -1 when none does. A tape's marks are in tape order.
type mark struct {
	pos  int32
	slot int32
	st   tapeStats
}

// commitMarks adds what entries warps, lanes active lanes between them,
// count over marks.
//
//simlint:commit -- commits clause entries with the marks' pre-summed counters
func commitMarks(gs *stats.GPUStats, marks []mark, entries, lanes uint64) {
	for i := range marks {
		m := &marks[i]
		if m.slot >= 0 {
			gs.ClausesExec += entries
			gs.ClauseSizeHist[m.slot] += entries
		}
		m.st.commit(gs, lanes)
	}
}

// tally counts the warps that ran a tape to its end and their active
// lanes; for a BRC terminal also the lanes that took the branch and the
// entries that split.
type tally struct{ entries, lanes, taken, div uint64 }

// abortTape accounts a tape that stopped at ops[pc] — a fault or an
// interpreter-fallback error: its entry leaves the tally and exactly the
// runs it reached are committed, so the counters at every abort are the
// interpreter's.
func (e *execContext) abortTape(t *tape, ty *tally, pc int, act uint64) {
	ty.entries--
	ty.lanes -= act
	n := 0
	for n < len(t.marks) && int(t.marks[n].pos) <= pc {
		n++
	}
	commitMarks(e.gs, t.marks[:n], 1, act)
}

// commitTallies adds every completed tape's statistics, in both chain
// tables, to the core's shard, and to the CFG being collected, and zeroes
// the tallies: runWorkgroups calls it on every path out.
//
//simlint:commit -- commits the tallied tapes' pre-summed counters
func (e *execContext) commitTallies() {
	for k := range e.tallies {
		ty := &e.tallies[k]
		if ty.entries == 0 {
			continue
		}
		t := &e.tape.chains[k]
		commitMarks(e.gs, t.marks, ty.entries, ty.lanes)
		t.termSt.commit(e.gs, ty.lanes)
		if t.tk == tkBRC {
			e.gs.Branches += ty.entries
			e.gs.DivergentBranches += ty.div
		}
		if e.cfg != nil {
			e.cfgCommit(t, ty)
		}
		if countTapes != nil {
			countTapes(t, ty.entries)
		}
		*ty = tally{}
	}
	gs := e.gs
	for k, n := range e.served {
		if n == 0 {
			continue
		}
		m := &e.tape.mems[k]
		gs.LSInstr += n
		m.aCtr.bump(gs, n)
		if m.local {
			gs.LocalLS += n
			gs.LocalAcc += n
		} else {
			gs.GlobalLS += n
			gs.MainMemAcc += n
		}
		m.vCtr.bump(gs, n)
		e.served[k] = 0
	}
}

// countTapes, when set, is told every tape commitTallies commits with its
// entries, and countHandBack every micro-op execLeaf hands back to runWarp:
// counting seams for the tests, which the statistics must not carry — the
// interpreter has no tapes to count.
var countTapes func(t *tape, entries uint64)
var countHandBack func(u uop)

// termNames are the CFG's terminator strings, execTerminal's.
var termNames = [...]string{tkFall: "fallthrough", tkBR: "br", tkBRC: "brc", tkRET: "ret", tkBARRIER: "barrier"}

// cfgCommit adds what ty tallied of the tape t, headed at clause t.head,
// to the CFG, as execClause adds it clause by clause: each of the tape's
// clauses was entered by every one of its warps with the same lanes, each
// interior clause left them all to its fallthrough or BR target, and the
// terminal's edges follow from the tally. Not inlined, so that a new
// block's or edge's allocations are not attributed to commitTallies, which
// the hotalloc gate pins at zero.
//
//go:noinline
func (e *execContext) cfgCommit(t *tape, ty *tally) {
	for i, ci := 0, t.head; i < t.n; i, ci = i+1, e.tape.clauses[ci].tgt {
		c := &e.tape.clauses[ci]
		blk := e.cfg.Block(e.prog.Clauses[ci].Addr)
		blk.WarpsIn += ty.entries
		blk.ThreadsIn += ty.lanes
		blk.Terminator = termNames[c.tk]
		switch c.tk {
		case tkFall, tkBR: // every interior clause's
			blk.Out[e.clauseAddr(c.tgt)] += ty.lanes
		case tkBARRIER:
			blk.Out[e.clauseAddr(c.next)] += ty.lanes
		case tkRET:
			blk.ExitCount += ty.lanes
		case tkBRC:
			if ty.taken > 0 {
				blk.Out[e.clauseAddr(c.tgt)] += ty.taken
			}
			if fall := ty.lanes - ty.taken; fall > 0 {
				blk.Out[e.clauseAddr(c.next)] += fall
			}
			blk.Diverged += ty.div
		}
	}
}

// ctrKind names the operand counter an operand access bumps.
type ctrKind uint8

const (
	ctrNone ctrKind = iota
	ctrGRFRead
	ctrGRFWrite
	ctrTempAcc
	ctrConstRead
	ctrROMRead
)

// count adds one access of counter kind c to the aggregate.
func (s *tapeStats) count(c ctrKind) {
	switch c {
	case ctrGRFRead:
		s.grfRead++
	case ctrGRFWrite:
		s.grfWrite++
	case ctrTempAcc:
		s.tempAcc++
	case ctrConstRead:
		s.constRead++
	case ctrROMRead:
		s.romRead++
	}
}

// bump adds n accesses to the live counter: the memory uops' per-lane
// accounting, which must stay in fault order.
//
//simlint:commit -- designated operand-counter bump helper
func (c ctrKind) bump(gs *stats.GPUStats, n uint64) {
	switch c {
	case ctrGRFRead:
		gs.GRFRead += n
	case ctrGRFWrite:
		gs.GRFWrite += n
	case ctrTempAcc:
		gs.TempAcc += n
	case ctrConstRead:
		gs.ConstRead += n
	case ctrROMRead:
		gs.ROMRead += n
	}
}

// execLeaf is the executor's hot loop: one dense switch whose cases are
// leaf code. It runs ops from pc and returns the index of the first
// micro-op it has no case for (len(ops) at the end of the tape) or of a
// memory micro-op it hands back (see leafMem). Operand rows are resolved
// inside each case, and everything else is reached through e, so that
// little more than the tape position is live across the switch's jump.
// Every ALU case writes every slot of its row, whatever the mask: a
// divergent warp's inactive lanes are put back by runWarp when the tape
// ends (restoreInactive), and lanes beyond w.lanes are architecturally dead
// (never active, never stored back), so what they hold is never observed.
func (e *execContext) execLeaf(w *warp, ops []uop, pc int) int {
	rows := &w.rows
	for ; pc < len(ops); pc++ {
		u := ops[pc]
		switch u.kind() {
		default:
			return pc
		case kSplat:
			d, s := &rows[u.d()], e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = s, s, s, s
		case kAddr:
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			f := &e.tape.addrs[u.imm()]
			s1, s2, s3 := uint32(e.uvals[f[0]]), e.uvals[f[1]], e.uvals[f[2]]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])*s1+uint32(b[0]))*s2+s3, uint64(uint32(a[1])*s1+uint32(b[1]))*s2+s3, uint64(uint32(a[2])*s1+uint32(b[2]))*s2+s3, uint64(uint32(a[3])*s1+uint32(b[3]))*s2+s3
		case kAddrTail:
			d, a := &rows[u.d()], &rows[u.a()]
			f := &e.tape.addrs[u.imm()]
			s2, s3 := e.uvals[f[1]], e.uvals[f[2]]
			d[0], d[1], d[2], d[3] = a[0]*s2+s3, a[1]*s2+s3, a[2]*s2+s3, a[3]*s2+s3
		case kLoad, kStore:
			if !e.leafMem(w, u) {
				return pc
			}

		// --- vector ∘ vector
		case kVV + uopKind(OpMOV):
			// Word by word: the source row is most often the previous
			// micro-op's result, stored as four words, and a wider load
			// over two of those stores cannot be store-forwarded.
			d, a := &rows[u.d()], &rows[u.a()]
			d[0], d[1], d[2], d[3] = a[0], a[1], a[2], a[3]
		case kVV + uopKind(OpI2F):
			d, a := &rows[u.d()], &rows[u.a()]
			d[0], d[1], d[2], d[3] = fbits(float32(int32(a[0]))), fbits(float32(int32(a[1]))), fbits(float32(int32(a[2]))), fbits(float32(int32(a[3])))
		case kVV + uopKind(OpF2I):
			d, a := &rows[u.d()], &rows[u.a()]
			d[0], d[1], d[2], d[3] = uint64(uint32(int32(f32(a[0])))), uint64(uint32(int32(f32(a[1])))), uint64(uint32(int32(f32(a[2])))), uint64(uint32(int32(f32(a[3]))))
		case kVV + uopKind(OpFABS):
			d, a := &rows[u.d()], &rows[u.a()]
			d[0], d[1], d[2], d[3] = fbits(float32(math.Abs(float64(f32(a[0]))))), fbits(float32(math.Abs(float64(f32(a[1]))))), fbits(float32(math.Abs(float64(f32(a[2]))))), fbits(float32(math.Abs(float64(f32(a[3])))))
		case kVV + uopKind(OpFNEG):
			d, a := &rows[u.d()], &rows[u.a()]
			d[0], d[1], d[2], d[3] = fbits(-f32(a[0])), fbits(-f32(a[1])), fbits(-f32(a[2])), fbits(-f32(a[3]))
		case kVV + uopKind(OpFSQRT):
			d, a := &rows[u.d()], &rows[u.a()]
			d[0], d[1], d[2], d[3] = fbits(float32(math.Sqrt(float64(f32(a[0]))))), fbits(float32(math.Sqrt(float64(f32(a[1]))))), fbits(float32(math.Sqrt(float64(f32(a[2]))))), fbits(float32(math.Sqrt(float64(f32(a[3])))))
		case kVV + uopKind(OpFFLOOR):
			d, a := &rows[u.d()], &rows[u.a()]
			d[0], d[1], d[2], d[3] = fbits(float32(math.Floor(float64(f32(a[0]))))), fbits(float32(math.Floor(float64(f32(a[1]))))), fbits(float32(math.Floor(float64(f32(a[2]))))), fbits(float32(math.Floor(float64(f32(a[3])))))
		case kVV + uopKind(OpIADD):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])+uint32(b[0])), uint64(uint32(a[1])+uint32(b[1])), uint64(uint32(a[2])+uint32(b[2])), uint64(uint32(a[3])+uint32(b[3]))
		case kVV + uopKind(OpISUB):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])-uint32(b[0])), uint64(uint32(a[1])-uint32(b[1])), uint64(uint32(a[2])-uint32(b[2])), uint64(uint32(a[3])-uint32(b[3]))
		case kVV + uopKind(OpIMUL):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])*uint32(b[0])), uint64(uint32(a[1])*uint32(b[1])), uint64(uint32(a[2])*uint32(b[2])), uint64(uint32(a[3])*uint32(b[3]))
		case kVV + uopKind(OpIMIN):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = uint64(uint32(min(int32(a[0]), int32(b[0])))), uint64(uint32(min(int32(a[1]), int32(b[1])))), uint64(uint32(min(int32(a[2]), int32(b[2])))), uint64(uint32(min(int32(a[3]), int32(b[3]))))
		case kVV + uopKind(OpIMAX):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = uint64(uint32(max(int32(a[0]), int32(b[0])))), uint64(uint32(max(int32(a[1]), int32(b[1])))), uint64(uint32(max(int32(a[2]), int32(b[2])))), uint64(uint32(max(int32(a[3]), int32(b[3]))))
		case kVV + uopKind(OpSHL):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])<<(uint32(b[0])&31)), uint64(uint32(a[1])<<(uint32(b[1])&31)), uint64(uint32(a[2])<<(uint32(b[2])&31)), uint64(uint32(a[3])<<(uint32(b[3])&31))
		case kVV + uopKind(OpSAR):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = uint64(uint32(int32(a[0])>>(uint32(b[0])&31))), uint64(uint32(int32(a[1])>>(uint32(b[1])&31))), uint64(uint32(int32(a[2])>>(uint32(b[2])&31))), uint64(uint32(int32(a[3])>>(uint32(b[3])&31)))
		case kVV + uopKind(OpAND):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
		case kVV + uopKind(OpOR):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
		case kVV + uopKind(OpXOR):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
		case kVV + uopKind(OpADD64):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = a[0]+b[0], a[1]+b[1], a[2]+b[2], a[3]+b[3]
		case kVV + uopKind(OpMUL64):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = a[0]*b[0], a[1]*b[1], a[2]*b[2], a[3]*b[3]
		case kVV + uopKind(OpFADD):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = fres(f32(a[0])+f32(b[0])), fres(f32(a[1])+f32(b[1])), fres(f32(a[2])+f32(b[2])), fres(f32(a[3])+f32(b[3]))
		case kVV + uopKind(OpFSUB):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = fres(f32(a[0])-f32(b[0])), fres(f32(a[1])-f32(b[1])), fres(f32(a[2])-f32(b[2])), fres(f32(a[3])-f32(b[3]))
		case kVV + uopKind(OpFMUL):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = fres(f32(a[0])*f32(b[0])), fres(f32(a[1])*f32(b[1])), fres(f32(a[2])*f32(b[2])), fres(f32(a[3])*f32(b[3]))
		case kVV + uopKind(OpFDIV):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = fres(f32(a[0])/f32(b[0])), fres(f32(a[1])/f32(b[1])), fres(f32(a[2])/f32(b[2])), fres(f32(a[3])/f32(b[3]))
		case kVV + uopKind(OpICMPEQ):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = b2u(uint32(a[0]) == uint32(b[0])), b2u(uint32(a[1]) == uint32(b[1])), b2u(uint32(a[2]) == uint32(b[2])), b2u(uint32(a[3]) == uint32(b[3]))
		case kVV + uopKind(OpICMPNE):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = b2u(uint32(a[0]) != uint32(b[0])), b2u(uint32(a[1]) != uint32(b[1])), b2u(uint32(a[2]) != uint32(b[2])), b2u(uint32(a[3]) != uint32(b[3]))
		case kVV + uopKind(OpICMPLT):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = b2u(int32(a[0]) < int32(b[0])), b2u(int32(a[1]) < int32(b[1])), b2u(int32(a[2]) < int32(b[2])), b2u(int32(a[3]) < int32(b[3]))
		case kVV + uopKind(OpICMPLE):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = b2u(int32(a[0]) <= int32(b[0])), b2u(int32(a[1]) <= int32(b[1])), b2u(int32(a[2]) <= int32(b[2])), b2u(int32(a[3]) <= int32(b[3]))
		case kVV + uopKind(OpFCMPEQ):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = b2u(f32(a[0]) == f32(b[0])), b2u(f32(a[1]) == f32(b[1])), b2u(f32(a[2]) == f32(b[2])), b2u(f32(a[3]) == f32(b[3]))
		case kVV + uopKind(OpFCMPLT):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = b2u(f32(a[0]) < f32(b[0])), b2u(f32(a[1]) < f32(b[1])), b2u(f32(a[2]) < f32(b[2])), b2u(f32(a[3]) < f32(b[3]))
		case kVV + uopKind(OpFCMPLE):
			d, a, b := &rows[u.d()], &rows[u.a()], &rows[u.b()]
			d[0], d[1], d[2], d[3] = b2u(f32(a[0]) <= f32(b[0])), b2u(f32(a[1]) <= f32(b[1])), b2u(f32(a[2]) <= f32(b[2])), b2u(f32(a[3]) <= f32(b[3]))
		// --- vector ∘ uniform
		case kVU + uopKind(OpIADD):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])+uint32(s)), uint64(uint32(a[1])+uint32(s)), uint64(uint32(a[2])+uint32(s)), uint64(uint32(a[3])+uint32(s))
		case kVU + uopKind(OpISUB):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])-uint32(s)), uint64(uint32(a[1])-uint32(s)), uint64(uint32(a[2])-uint32(s)), uint64(uint32(a[3])-uint32(s))
		case kVU + uopKind(OpIMUL):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])*uint32(s)), uint64(uint32(a[1])*uint32(s)), uint64(uint32(a[2])*uint32(s)), uint64(uint32(a[3])*uint32(s))
		case kVU + uopKind(OpIMIN):
			d, a := &rows[u.d()], &rows[u.a()]
			s := int32(e.uvals[u.imm()])
			d[0], d[1], d[2], d[3] = uint64(uint32(min(int32(a[0]), s))), uint64(uint32(min(int32(a[1]), s))), uint64(uint32(min(int32(a[2]), s))), uint64(uint32(min(int32(a[3]), s)))
		case kVU + uopKind(OpIMAX):
			d, a := &rows[u.d()], &rows[u.a()]
			s := int32(e.uvals[u.imm()])
			d[0], d[1], d[2], d[3] = uint64(uint32(max(int32(a[0]), s))), uint64(uint32(max(int32(a[1]), s))), uint64(uint32(max(int32(a[2]), s))), uint64(uint32(max(int32(a[3]), s)))
		case kVU + uopKind(OpSHL):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = uint64(uint32(a[0])<<(uint32(s)&31)), uint64(uint32(a[1])<<(uint32(s)&31)), uint64(uint32(a[2])<<(uint32(s)&31)), uint64(uint32(a[3])<<(uint32(s)&31))
		case kVU + uopKind(OpSAR):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = uint64(uint32(int32(a[0])>>(uint32(s)&31))), uint64(uint32(int32(a[1])>>(uint32(s)&31))), uint64(uint32(int32(a[2])>>(uint32(s)&31))), uint64(uint32(int32(a[3])>>(uint32(s)&31)))
		case kVU + uopKind(OpAND):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = a[0]&s, a[1]&s, a[2]&s, a[3]&s
		case kVU + uopKind(OpOR):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = a[0]|s, a[1]|s, a[2]|s, a[3]|s
		case kVU + uopKind(OpXOR):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = a[0]^s, a[1]^s, a[2]^s, a[3]^s
		case kVU + uopKind(OpADD64):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = a[0]+s, a[1]+s, a[2]+s, a[3]+s
		case kVU + uopKind(OpMUL64):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = a[0]*s, a[1]*s, a[2]*s, a[3]*s
		case kVU + uopKind(OpFADD):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = fres(f32(a[0])+f32(s)), fres(f32(a[1])+f32(s)), fres(f32(a[2])+f32(s)), fres(f32(a[3])+f32(s))
		case kVU + uopKind(OpFSUB):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = fres(f32(a[0])-f32(s)), fres(f32(a[1])-f32(s)), fres(f32(a[2])-f32(s)), fres(f32(a[3])-f32(s))
		case kVU + uopKind(OpFMUL):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = fres(f32(a[0])*f32(s)), fres(f32(a[1])*f32(s)), fres(f32(a[2])*f32(s)), fres(f32(a[3])*f32(s))
		case kVU + uopKind(OpFDIV):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = fres(f32(a[0])/f32(s)), fres(f32(a[1])/f32(s)), fres(f32(a[2])/f32(s)), fres(f32(a[3])/f32(s))
		case kVU + uopKind(OpICMPEQ):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(uint32(a[0]) == uint32(s)), b2u(uint32(a[1]) == uint32(s)), b2u(uint32(a[2]) == uint32(s)), b2u(uint32(a[3]) == uint32(s))
		case kVU + uopKind(OpICMPNE):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(uint32(a[0]) != uint32(s)), b2u(uint32(a[1]) != uint32(s)), b2u(uint32(a[2]) != uint32(s)), b2u(uint32(a[3]) != uint32(s))
		case kVU + uopKind(OpICMPLT):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(int32(a[0]) < int32(s)), b2u(int32(a[1]) < int32(s)), b2u(int32(a[2]) < int32(s)), b2u(int32(a[3]) < int32(s))
		case kVU + uopKind(OpICMPLE):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(int32(a[0]) <= int32(s)), b2u(int32(a[1]) <= int32(s)), b2u(int32(a[2]) <= int32(s)), b2u(int32(a[3]) <= int32(s))
		case kVU + uopKind(OpFCMPEQ):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(f32(a[0]) == f32(s)), b2u(f32(a[1]) == f32(s)), b2u(f32(a[2]) == f32(s)), b2u(f32(a[3]) == f32(s))
		case kVU + uopKind(OpFCMPLT):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(f32(a[0]) < f32(s)), b2u(f32(a[1]) < f32(s)), b2u(f32(a[2]) < f32(s)), b2u(f32(a[3]) < f32(s))
		case kVU + uopKind(OpFCMPLE):
			d, a := &rows[u.d()], &rows[u.a()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(f32(a[0]) <= f32(s)), b2u(f32(a[1]) <= f32(s)), b2u(f32(a[2]) <= f32(s)), b2u(f32(a[3]) <= f32(s))
		// --- uniform ∘ vector (non-commutative ops; commutative ones swap into vector ∘ uniform)
		case kUV + uopKind(OpISUB):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = uint64(uint32(s)-uint32(b[0])), uint64(uint32(s)-uint32(b[1])), uint64(uint32(s)-uint32(b[2])), uint64(uint32(s)-uint32(b[3]))
		case kUV + uopKind(OpSHL):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = uint64(uint32(s)<<(uint32(b[0])&31)), uint64(uint32(s)<<(uint32(b[1])&31)), uint64(uint32(s)<<(uint32(b[2])&31)), uint64(uint32(s)<<(uint32(b[3])&31))
		case kUV + uopKind(OpSAR):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = uint64(uint32(int32(s)>>(uint32(b[0])&31))), uint64(uint32(int32(s)>>(uint32(b[1])&31))), uint64(uint32(int32(s)>>(uint32(b[2])&31))), uint64(uint32(int32(s)>>(uint32(b[3])&31)))
		case kUV + uopKind(OpFSUB):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = fres(f32(s)-f32(b[0])), fres(f32(s)-f32(b[1])), fres(f32(s)-f32(b[2])), fres(f32(s)-f32(b[3]))
		case kUV + uopKind(OpFDIV):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = fres(f32(s)/f32(b[0])), fres(f32(s)/f32(b[1])), fres(f32(s)/f32(b[2])), fres(f32(s)/f32(b[3]))
		case kUV + uopKind(OpICMPLT):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(int32(s) < int32(b[0])), b2u(int32(s) < int32(b[1])), b2u(int32(s) < int32(b[2])), b2u(int32(s) < int32(b[3]))
		case kUV + uopKind(OpICMPLE):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(int32(s) <= int32(b[0])), b2u(int32(s) <= int32(b[1])), b2u(int32(s) <= int32(b[2])), b2u(int32(s) <= int32(b[3]))
		case kUV + uopKind(OpFCMPLT):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(f32(s) < f32(b[0])), b2u(f32(s) < f32(b[1])), b2u(f32(s) < f32(b[2])), b2u(f32(s) < f32(b[3]))
		case kUV + uopKind(OpFCMPLE):
			d, b := &rows[u.d()], &rows[u.b()]
			s := e.uvals[u.imm()]
			d[0], d[1], d[2], d[3] = b2u(f32(s) <= f32(b[0])), b2u(f32(s) <= f32(b[1])), b2u(f32(s) <= f32(b[2])), b2u(f32(s) <= f32(b[3]))
		}
	}
	return pc
}

// run executes an ALU op without a leaf case (transcendentals, IDIV/IMOD,
// FMIN/FMAX) through its value function.
func (s *slowOp) run(d, a, b *soaRow) {
	for l := range d {
		if s.un != nil {
			d[l] = s.un(a[l])
		} else {
			d[l] = s.bin(a[l], b[l])
		}
	}
}

// --- Memory -----------------------------------------------------------------

// memOp is the decoded form of a load/store the memory uops share: the
// sign-extended byte offset, the access size, whether it is local and
// whether it stores, and the operand counters of the address row and of
// the value row (a load's destination write, a store's value read). dst is
// a load's destination as written, which the optimiser may forward into a
// register (forward): a fault leaves the lanes loaded before it there, as
// the interpreter does.
type memOp struct {
	off          uint64
	size         int
	local, store bool
	aCtr, vCtr   ctrKind
	dst          uint8
}

// leafMem is execLeaf's LDG, LDGB, STG, STGB, LDL and STL. It serves
// micro-op u of warp w when every active lane's access is naturally
// aligned, inside the slot for a local access, and on a RAM page whose
// entry permits it — one the core's TLB holds or, when the active lanes
// share one page, one a walk reaches (FillPage) — and reports whether it
// did; otherwise nothing is counted and memLanes takes the micro-op. A
// served access cannot fault: its probe counts the active lanes' TLB hits
// and walk, and served tallies its lanes for commitTallies. A full warp on
// one page is served here, its word stores paired and its byte stores
// merged where they can be (DESIGN.md §7); any other, by leafLanes.
func (e *execContext) leafMem(w *warp, u uop) bool {
	if w.active != fullMask(WarpSize) {
		return e.leafLanes(w, u)
	}
	k := u.imm()
	m, a, walker := &e.tape.mems[k], &w.rows[u.a()], e.walker
	v0, v1, v2, v3 := a[0]+m.off, a[1]+m.off, a[2]+m.off, a[3]+m.off
	if m.local {
		g := e.local
		if g.size < 4 || max(v0, v1, v2, v3) > g.size-4 {
			return false
		}
		v0, v1, v2, v3, walker = g.base+v0, g.base+v1, g.base+v2, g.base+v3, g.walker
	}
	if (v0|v1|v2|v3)&uint64(m.size-1) != 0 || (v0^v1)|(v0^v2)|(v0^v3) > mem.PageMask {
		return e.leafLanes(w, u)
	}
	if !m.store {
		p := walker.HitPage(v0, mem.Read, WarpSize)
		if p == nil {
			if p = walker.FillPage(v0, mem.Read, WarpSize); p == nil {
				return false
			}
		}
		e.served[k] += WarpSize
		d := &w.rows[u.d()]
		if m.size == 1 {
			d[0], d[1], d[2], d[3] = uint64(mem.LaneLoad8(p, v0)), uint64(mem.LaneLoad8(p, v1)), uint64(mem.LaneLoad8(p, v2)), uint64(mem.LaneLoad8(p, v3))
		} else {
			d[0], d[1], d[2], d[3] = uint64(mem.LaneLoad32(p, v0)), uint64(mem.LaneLoad32(p, v1)), uint64(mem.LaneLoad32(p, v2)), uint64(mem.LaneLoad32(p, v3))
		}
		return true
	}
	p := walker.HitPage(v0, mem.Write, WarpSize)
	if p == nil {
		if p = walker.FillPage(v0, mem.Write, WarpSize); p == nil {
			return false
		}
	}
	e.served[k] += WarpSize
	b := &w.rows[u.b()]
	switch {
	case m.size == 4:
		storePair(p, v0, v1, b[0], b[1])
		storePair(p, v2, v3, b[2], b[3])
	case v0&3 == 0 && v1 == v0+1 && v2 == v0+2 && v3 == v0+3:
		mem.LaneStore32(p, v0, uint32(b[0]&0xFF|b[1]&0xFF<<8|b[2]&0xFF<<16|b[3]<<24))
	default:
		mem.LaneStore8(p, v0, uint32(b[0]))
		mem.LaneStore8(p, v1, uint32(b[1]))
		mem.LaneStore8(p, v2, uint32(b[2]))
		mem.LaneStore8(p, v3, uint32(b[3]))
	}
	return true
}

// storePair stores the words x at va and y at vb of page p, in that order:
// as one 64-bit host atomic when they are the two halves of an aligned
// doubleword.
func storePair(p *[mem.PageSize]byte, va, vb, x, y uint64) {
	if va&7 == 0 && vb == va+4 {
		mem.LaneStore64(p, va, x&math.MaxUint32|y<<32)
		return
	}
	mem.LaneStore32(p, va, uint32(x))
	mem.LaneStore32(p, vb, uint32(y))
}

// leafLanes is leafMem for any other warp. An inactive lane takes the
// first active lane's address, so it passes every test that lane passes
// and probes no other page. When the lanes share one page, one probe
// (HitPage, or FillPage on a miss) counts the active lanes' accesses;
// otherwise each lane's page is probed without counting, and once all have
// hit the active lanes' hits are counted. They are served in lane order.
func (e *execContext) leafLanes(w *warp, u uop) bool {
	k, act := u.imm(), w.active
	m, a, walker := &e.tape.mems[k], &w.rows[u.a()], e.walker
	f, mk := a[bits.TrailingZeros8(uint8(act))], &maskRows[act]
	v0, v1, v2, v3 := m.off+(f^(a[0]^f)&mk[0]), m.off+(f^(a[1]^f)&mk[1]), m.off+(f^(a[2]^f)&mk[2]), m.off+(f^(a[3]^f)&mk[3])
	if m.local {
		g := e.local
		if g.size < 4 || max(v0, v1, v2, v3) > g.size-4 {
			return false
		}
		v0, v1, v2, v3, walker = g.base+v0, g.base+v1, g.base+v2, g.base+v3, g.walker
	}
	size := uint64(m.size)
	if (v0|v1|v2|v3)&(size-1) != 0 {
		return false
	}
	kind, n := mem.Read, uint64(bits.OnesCount8(uint8(act)))
	if m.store {
		kind = mem.Write
	}
	var p0, p1, p2, p3 *[mem.PageSize]byte
	if (v0^v1)|(v0^v2)|(v0^v3) <= mem.PageMask {
		if p0 = walker.HitPage(v0, kind, n); p0 == nil {
			if p0 = walker.FillPage(v0, kind, n); p0 == nil {
				return false
			}
		}
		p1, p2, p3 = p0, p0, p0
	} else {
		p0, p1, p2, p3 = walker.HitPage(v0, kind, 0), walker.HitPage(v1, kind, 0), walker.HitPage(v2, kind, 0), walker.HitPage(v3, kind, 0)
		if p0 == nil || p1 == nil || p2 == nil || p3 == nil {
			return false
		}
		walker.Hits += n
	}
	e.served[k] += n
	if !m.store { // a word, or a byte shifted down from its word
		d, lim := &w.rows[u.d()], uint32(1)<<(8*size)-1
		if act&1 != 0 {
			d[0] = uint64(mem.LaneLoad32(p0, v0) >> (v0 & 3 * 8) & lim)
		}
		if act&2 != 0 {
			d[1] = uint64(mem.LaneLoad32(p1, v1) >> (v1 & 3 * 8) & lim)
		}
		if act&4 != 0 {
			d[2] = uint64(mem.LaneLoad32(p2, v2) >> (v2 & 3 * 8) & lim)
		}
		if act&8 != 0 {
			d[3] = uint64(mem.LaneLoad32(p3, v3) >> (v3 & 3 * 8) & lim)
		}
		return true
	}
	b := &w.rows[u.b()]
	if act&1 != 0 {
		storeLane(p0, v0, b[0], size)
	}
	if act&2 != 0 {
		storeLane(p1, v1, b[1], size)
	}
	if act&4 != 0 {
		storeLane(p2, v2, b[2], size)
	}
	if act&8 != 0 {
		storeLane(p3, v3, b[3], size)
	}
	return true
}

// storeLane stores x's low word, or byte when size is 1, at v of page p.
func storeLane(p *[mem.PageSize]byte, v, x, size uint64) {
	if size == 1 {
		mem.LaneStore8(p, v, uint32(x))
	} else {
		mem.LaneStore32(p, v, uint32(x))
	}
}

// memLanes is the memory micro-op of a warp execLeaf hands back: a
// misaligned lane, an MMIO frame, a fault, a lane outside the local slot,
// or lanes over two pages one of which misses. It runs the interpreter's
// per-lane access over the active lanes, with the operand counters around
// it in the interpreter's order, so a faulting lane aborts with the
// interpreter's totals. It reads the micro-op's own rows, which value
// numbering may have renamed, never its source instruction's. A load's
// lanes land in the rowStage staging row and reach its destination once
// all have loaded, so a forwarded load never writes its register early;
// at a fault, the lanes before it reach the destination as written.
//
//simlint:commit -- warp memory uops keep interpreter-identical counters
func (e *execContext) memLanes(w *warp, m *memOp, u uop, act uint64) error {
	gs := e.gs
	gs.LSInstr += act
	ar, br, sr := &w.rows[u.a()], &w.rows[u.b()], &w.rows[rowStage]
	d, n := u.d(), w.lanes
	var err error
	for l := 0; l < w.lanes; l++ {
		if !w.active.has(l) {
			continue
		}
		m.aCtr.bump(gs, 1)
		if m.store {
			m.vCtr.bump(gs, 1)
		}
		var v uint64
		if v, err = e.access(m.local, m.store, m.size, ar[l]+m.off, br[l]); err != nil {
			d, n = m.dst, l
			break
		}
		if !m.store {
			m.vCtr.bump(gs, 1)
			sr[l] = v
		}
	}
	if !m.store {
		dr := &w.rows[d]
		for l := 0; l < n; l++ {
			if w.active.has(l) {
				dr[l] = sr[l]
			}
		}
	}
	return err
}

// laneInterp runs one instruction through the interpreter, lane by lane,
// for what the tape does not lower (tapeFallbackReason): its counters, the
// registers it writes, the guest bytes it touches and the error it returns
// are the interpreter's by construction.
//
//simlint:commit -- interpreter fallback commits the instruction-mix counters
func (e *execContext) laneInterp(w *warp, in *Instr, act uint64) error {
	switch Classify(in.Op) {
	case ClassArith:
		e.gs.ArithInstr += act
	case ClassLS:
		e.gs.LSInstr += act
	case ClassNop:
		e.gs.NopInstr += act
	}
	for l := 0; l < w.lanes; l++ {
		if w.active.has(l) {
			if err := e.execLane(w, l, in); err != nil {
				return err
			}
		}
	}
	return nil
}
