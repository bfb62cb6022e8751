package gpu

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/stats"
)

// WarpSize is the quad width: Bifrost groups threads into bundles of four
// that fill the 128-bit data unit and execute in lockstep.
const WarpSize = 4

// guestLocal is a core's workgroup-local store: its slot of the
// driver-allocated guest memory. Accesses (access) go through the walker's
// TLB-cached fast path, same as global memory. A job without a local
// allocation has a zero-sized slot, so any local access faults.
type guestLocal struct {
	base   uint64 // guest VA of the slot
	size   uint64
	walker *mmu.Walker
}

// warpStatus reports how a warp's execution step ended.
type warpStatus int

const (
	warpRunning warpStatus = iota
	warpAtBarrier
	warpDone
)

// laneMask is a set of a warp's lanes, bit l for lane l.
type laneMask uint8

// fullMask is the mask of a warp's first n lanes.
func fullMask(n int) laneMask { return 1<<uint(n) - 1 }

func (m laneMask) has(lane int) bool { return m>>uint(lane)&1 != 0 }

// maskRows[m] is mask m as a register row, all-ones in every lane of m: what
// restoreInactive keeps a divergent warp's results under.
var maskRows = func() (t [1 << WarpSize]soaRow) {
	for m := range t {
		for l := 0; l < WarpSize; l++ {
			if laneMask(m).has(l) {
				t[m][l] = ^uint64(0)
			}
		}
	}
	return
}()

// divFrame is one SIMT reconvergence stack entry. On divergence the warp
// runs the fallthrough path first; the taken path and the full mask to
// restore at the reconvergence clause are recorded here.
type divFrame struct {
	rejoin   int // clause index where paths reconverge
	pendPC   int // deferred path entry clause; -1 once consumed
	pendMask laneMask
	joinMask laneMask
}

// soaRow is one register across the warp's lanes.
type soaRow = [WarpSize]uint64

// warp is a quad of threads executing in lockstep. The register files are
// one structure-of-arrays block — a [WarpSize] row per register — so the
// warp engine streams a whole warp's operands from one contiguous row and
// indexes it with the operand byte itself: rows 0..63 are r0..r63, 64..67
// t0..t3, then the lane identifiers gid/lid as rows of their own and the
// tape executor's scratch rows (warp.go).
type warp struct {
	lanes int // live lanes (tail warps may be partial)
	// active is the set of lanes executing the current path and exited the
	// set that has returned. A lane leaves active when it exits and only
	// re-enters through a mask with the exited lanes taken out, so the two
	// never intersect and active alone says who runs.
	active, exited laneMask
	rows           [numRows]soaRow

	pc    int // current clause index
	steps int // clauses entered this job, against clauseBudget
	stack []divFrame
}

func (w *warp) allExited() bool { return w.exited == fullMask(w.lanes) }

// execContext is everything a warp needs from its surrounding workgroup
// and host thread: program, argument values, memory paths and stat shards.
// walker and local are those of the core the thread is running.
type execContext struct {
	prog     *Program
	eng      Engine // a shared program may carry tapes an interpreter device must not run
	uniforms []uint64
	walker   *mmu.Walker
	local    *guestLocal

	wgid [3]uint32
	gsz  [3]uint32
	lsz  [3]uint32

	gs   *stats.GPUStats
	cfg  *stats.CFG   // nil when CFG collection is off
	stop *atomic.Bool // soft-stop latch, polled at clause boundaries

	// tape is the program's warp-engine artifact when this context runs
	// on it (nil on the interpreter), tallies[k] what the warps that ran
	// tape.chains[k] to its end did since the last commitTallies, served[k]
	// the lanes execLeaf served at memory site tape.mems[k] since then, and
	// uvals the table the tapes' warp-uniform operands are read from (see
	// bindTape).
	tape    *warpProgram
	tallies []tally
	served  []uint64
	uvals   []uint64

	// warpSlab is this thread's per-workgroup warp storage, reset by
	// warpsFor for every workgroup and kept from job to job — and, through
	// slabs, from device to device. nil is valid: the first workgroup
	// allocates. lids is the job's lid.x/y/z rows, one triple per warp of
	// a workgroup (see lidRows), shared by its threads.
	warpSlab []wgWarp
	lids     [][3]soaRow

	// saved holds the rows a divergent warp's tape writes (tape.wset) as
	// they were when the warp entered it: saveRows fills it, restoreInactive
	// reads it.
	saved [rowGID]soaRow
}

// clauseBudget caps clauses executed per warp per job as a runaway guard
// (a shader looping forever would otherwise hang the Job Manager). A
// variable so that a test can lower it.
var clauseBudget = 1 << 24

// runWarp executes the warp until it terminates or reaches a barrier, in
// one loop: each iteration enters one clause — on the warp engine the chain
// headed there — or takes one step of the zero-active walk. A pending
// soft-stop is honoured where an iteration starts: a stopped kernel never
// splits a clause, and a tape has no back edge, so a stop waits for at most
// one tape. Every clause entered counts against the budget — each clause of
// a chain, and a clause that ends at a barrier — as does every step of the
// zero-active walk.
//
// On the warp engine every clause heads a chain in each of two tables
// (buildChains), and the divergence stack picks the table where a warp
// enters a tape: the flat one, which runs through reconvergence clauses,
// when the stack is empty, else the heads one, which stops before them.
// Only a BRC terminal pushes a frame and a BRC ends a tape, so no rejoin
// falls inside a tape the stack chose. execLeaf runs the micro-ops that
// need no call and hands back the first one that does — a memory access, a
// slow ALU op, the interpreter fallback — which runs here, so that the hot
// loop keeps its state in registers. act and mask (the row restoreInactive
// keeps a divergent warp's results under) change only where active does;
// a divergent warp's tape runs at full width between saveRows and
// restoreInactive. A terminal that lands back on the head it entered, with
// active unchanged, re-enters that tape without the lookup: the entry
// popped every frame rejoining there, and the tape pushed none, so the
// stack picks the same table. Such a re-entry runs the tape's re-entry
// variant when it has one (again): the same mask ran the tape or the
// variant just before, so every value the variant leaves out is where its
// readers find it; any lookup returns to the full tape. A tape's
// statistics are its tally: the warps and lanes that entered it and,
// for a BRC, the lanes that took it and the entries that split.
// commitTallies derives every counter and the CFG from them, so runWarp
// writes no statistics field.
func (e *execContext) runWarp(w *warp) (warpStatus, error) {
	act, mask := w.activeSet()
	var t *tape
	var ty *tally
	head := -1 // the clause t runs at; -1 while the next entry needs the lookup
	for {
		if w.steps > clauseBudget {
			return warpDone, fmt.Errorf("gpu: clause budget exhausted (infinite loop in shader?)")
		}
		if e.stop != nil && e.stop.Load() {
			return warpDone, ErrStopped
		}
		// Clause-entry marker of the guest memory model (see mem.LoadFence).
		mem.LoadFence()

		if w.pc != head {
			// Reconvergence: entering the rejoin clause of stacked frames.
			for len(w.stack) > 0 && w.pc == w.stack[len(w.stack)-1].rejoin {
				f := &w.stack[len(w.stack)-1]
				if f.pendPC >= 0 {
					// Switch to the deferred path; leave a marker frame.
					w.active, w.pc, f.pendPC = f.pendMask, f.pendPC, -1
				} else {
					// Both paths done: restore the pre-branch mask (minus
					// lanes that exited inside the region).
					w.active = f.joinMask &^ w.exited
					w.stack = w.stack[:len(w.stack)-1]
				}
				act, mask = w.activeSet()
			}
			if w.pc >= len(e.prog.Clauses) {
				return warpDone, nil
			}
			if act == 0 {
				if w.allExited() && len(w.stack) == 0 {
					return warpDone, nil
				}
				// No lane active, a frame pending: step on towards its rejoin.
				w.pc++
				w.steps++
				continue
			}
			if e.tape != nil {
				k := w.pc
				if len(w.stack) == 0 {
					k += len(e.tape.clauses) // the flat table: no frame to rejoin
				}
				head, t, ty = w.pc, &e.tape.chains[k], &e.tallies[k]
			}
		} else if k := t.again; k != 0 {
			t, ty = &e.tape.chains[k], &e.tallies[k]
		}

		var st warpStatus
		var err error
		if e.tape == nil {
			w.steps++
			st, err = e.execClause(w, act)
		} else {
			w.steps += t.n
			ty.entries++
			ty.lanes += act
			if mask != nil {
				e.saveRows(w, t.wset)
			}
			for pc := 0; ; pc++ {
				if pc = e.execLeaf(w, t.ops, pc); pc == len(t.ops) {
					break
				}
				u, wp := t.ops[pc], e.tape
				if countHandBack != nil {
					countHandBack(u)
				}
				var err error
				switch u.kind() {
				case kLoad, kStore:
					err = e.memLanes(w, &wp.mems[u.imm()], u, act)
				case kLaneInterp:
					err = e.laneInterp(w, wp.slow[u.imm()].in, act)
				case kSlow:
					wp.slow[u.imm()].run(&w.rows[u.d()], &w.rows[u.a()], &w.rows[u.b()])
				default:
					panic("gpu: tape micro-op without an executor case")
				}
				if err != nil {
					if mask != nil {
						e.restoreInactive(w, t.wset, mask)
					}
					e.abortTape(t, ty, pc, act)
					return warpDone, err
				}
			}
			if mask != nil {
				e.restoreInactive(w, t.wset, mask)
			}

			switch t.tk {
			case tkFall, tkBR:
				w.pc = t.tgt
				continue
			case tkBARRIER:
				w.pc = t.next
				return warpAtBarrier, nil
			case tkRET:
				w.exited |= w.active
				w.active, w.pc = 0, t.next
				st = warpDone
			case tkBRC:
				// Inactive and dead lanes of the predicate are masked off.
				taken := w.active
				if t.cmp != 0 {
					taken &= e.lessLanes(w, t.cmp) ^ laneMask(-t.pred.neg)
				} else if t.pred.vec {
					p, x := &w.rows[t.pred.row], t.pred.neg
					taken &= laneMask(b2u(p[0]^x != 0) | b2u(p[1]^x != 0)<<1 | b2u(p[2]^x != 0)<<2 | b2u(p[3]^x != 0)<<3)
				} else if e.uvals[t.pred.uv] == 0 {
					taken = 0
				}
				switch fall := w.active &^ taken; {
				case fall == 0:
					ty.taken += act
					w.pc = t.tgt
					continue
				case taken == 0:
					w.pc = t.next
					continue
				default:
					ty.taken += uint64(bits.OnesCount8(uint8(taken)))
					ty.div++
					w.stack = append(w.stack, divFrame{rejoin: t.rejoin, pendPC: t.tgt, pendMask: taken, joinMask: w.active})
					w.active, w.pc = fall, t.next
				}
			}
			head = -1
		}
		if err != nil {
			return warpDone, err
		}
		switch st {
		case warpAtBarrier:
			return warpAtBarrier, nil
		case warpDone:
			if w.allExited() && len(w.stack) == 0 {
				return warpDone, nil
			}
		}
		act, mask = w.activeSet()
	}
}

// activeSet returns the warp's active-lane count and, when that is not all
// of its live lanes, the mask row restoreInactive keeps its tapes' results
// under.
func (w *warp) activeSet() (uint64, *soaRow) {
	act := uint64(bits.OnesCount8(uint8(w.active)))
	if int(act) == w.lanes {
		return act, nil
	}
	return act, &maskRows[w.active]
}

// lessLanes returns the lanes on which u, the icmplt a BRC evaluates
// itself (branchCompares), holds; the BRC negates them when its pred.neg
// is 1.
func (e *execContext) lessLanes(w *warp, u uop) laneMask {
	a, b := &w.rows[u.a()], &w.rows[u.b()]
	var s soaRow
	switch u.kind() {
	case kVU + uopKind(OpICMPLT):
		v := e.uvals[u.imm()]
		s, b = soaRow{v, v, v, v}, &s
	case kUV + uopKind(OpICMPLT):
		v := e.uvals[u.imm()]
		s, a = soaRow{v, v, v, v}, &s
	}
	return laneMask(b2u(int32(a[0]) < int32(b[0])) | b2u(int32(a[1]) < int32(b[1]))<<1 | b2u(int32(a[2]) < int32(b[2]))<<2 | b2u(int32(a[3]) < int32(b[3]))<<3)
}

// saveRows copies the rows a divergent warp's tape writes into saved, as
// the warp enters the tape.
func (e *execContext) saveRows(w *warp, rows []uint8) {
	for i, r := range rows {
		e.saved[i] = w.rows[r]
	}
}

// restoreInactive puts back, in the rows the tape wrote, the lanes outside
// mask as saveRows found them: a divergent warp runs its tape at full
// width, and the interpreter writes no inactive lane. An inactive lane's
// value reaches no memory access, counter or BRC predicate inside the tape
// (leafMem and memLanes serve the active lanes, a kLaneInterp runs them
// alone, the taken mask is ANDed with active, and slowBin and slowUn are
// total), so once restored nothing shows it was computed.
func (e *execContext) restoreInactive(w *warp, rows []uint8, mask *soaRow) {
	for i, r := range rows {
		o, d := &e.saved[i], &w.rows[r]
		d[0], d[1], d[2], d[3] = o[0]^(o[0]^d[0])&mask[0], o[1]^(o[1]^d[1])&mask[1], o[2]^(o[2]^d[2])&mask[2], o[3]^(o[3]^d[3])&mask[3]
	}
}

// bindTape selects the warp engine for this context when the program is
// compiled for it, sizes the tallies and the served-lane counts (all zero
// between jobs: commitTallies leaves them so; the counts, written on every
// served access, padded by a cache line on both sides so that no other
// thread's data shares their lines) and builds the uniform-operand table
// the tape reads: kernel arguments, dispatch sizes and the program's
// constants. The workgroup id slots are refreshed by runWorkgroup.
func (e *execContext) bindTape() {
	e.tape, e.tallies, e.served = nil, e.tallies[:0], e.served[:0]
	if e.eng != EngineWarp || e.prog.warp == nil {
		return
	}
	e.tape = e.prog.warp
	if n := len(e.tape.chains); cap(e.tallies) < n {
		e.tallies = make([]tally, n)
	} else {
		e.tallies = e.tallies[:n]
	}
	if n := len(e.tape.mems); cap(e.served) < n {
		e.served = make([]uint64, n+16)[8 : 8+n : 8+n]
	} else {
		e.served = e.served[:n]
	}
	if n := uvConsts + len(e.tape.consts); cap(e.uvals) < n {
		e.uvals = make([]uint64, n)
	} else {
		e.uvals = e.uvals[:n]
	}
	n := copy(e.uvals[:uvWGID], e.uniforms)
	clear(e.uvals[n:uvConsts]) // arguments the kernel does not take, and uvZero, read as zero
	for d := 0; d < 3; d++ {
		e.uvals[uvWGID+d], e.uvals[uvGSZ+d], e.uvals[uvLSZ+d] = uint64(e.wgid[d]), uint64(e.gsz[d]), uint64(e.lsz[d])
	}
	e.uvals[uvOne] = 1
	copy(e.uvals[uvConsts:], e.tape.consts)
}

// execClause runs all slots of the current clause on all active lanes, one
// instruction at a time (the reference interpreter), and applies the
// clause-terminal control flow. Clause temporaries keep their values from
// clause to clause (see the package comment).
//
//simlint:commit -- commits the per-clause instruction mix
func (e *execContext) execClause(w *warp, act uint64) (warpStatus, error) {
	c := &e.prog.Clauses[w.pc]

	e.gs.ClausesExec++
	e.gs.ClauseSizeHist[min(c.Slots(), stats.MaxClauseSlots)]++
	// Unfilled issue slots: a clause of N slots issues in ceil(N/2) tuples;
	// the odd slot is an architecturally empty issue slot, on top of any
	// explicit scheduler padding NOPs. Both show up as "empty slots" in
	// the instruction mix (Fig 11).
	e.gs.NopInstr += act * uint64(c.Tuples()*2-c.Slots())

	var blk *stats.CFGBlock
	if e.cfg != nil {
		blk = e.cfg.Block(c.Addr)
		blk.ThreadsIn += act
		blk.WarpsIn++
	}

	next := w.pc + 1 // fallthrough

	for ii := range c.Instrs {
		in := &c.Instrs[ii]
		if IsClauseTerminal(in.Op) {
			return e.execTerminal(w, in, next, blk, act)
		}
		switch Classify(in.Op) {
		case ClassNop:
			e.gs.NopInstr += act
			continue
		case ClassArith:
			e.gs.ArithInstr += act
		case ClassLS:
			e.gs.LSInstr += act
		}

		for i := 0; i < w.lanes; i++ {
			if !w.active.has(i) {
				continue
			}
			if err := e.execLane(w, i, in); err != nil {
				return warpDone, err
			}
		}
	}

	return e.endFallthrough(w, next, blk, act)
}

// endFallthrough closes a clause with no terminal instruction.
func (e *execContext) endFallthrough(w *warp, next int, blk *stats.CFGBlock, act uint64) (warpStatus, error) {
	if blk != nil {
		blk.Terminator = "fallthrough"
		blk.Out[e.clauseAddr(next)] += act
	}
	w.pc = next
	return warpRunning, nil
}

// execTerminal applies a clause-terminal control-flow instruction as the
// interpreter does: immediates and the BRC predicate decoded here, every
// counter and CFG edge live. It is the specification of the terminal
// runWarp applies pre-decoded and commitTallies accounts.
//
//simlint:commit -- commits control-flow and divergence counters
func (e *execContext) execTerminal(w *warp, in *Instr, next int, blk *stats.CFGBlock, act uint64) (warpStatus, error) {
	e.gs.CFInstr += act

	switch in.Op {
	case OpBARRIER:
		// The guest-fence side of the barrier is issued once per
		// generation at the rendezvous in runWorkgroup, not per warp:
		// a per-warp RMW on the shared fence word would ping-pong its
		// cache line across every core on barrier-heavy kernels.
		if blk != nil {
			blk.Terminator = "barrier"
			blk.Out[e.clauseAddr(next)] += act
		}
		w.pc = next
		return warpAtBarrier, nil

	case OpRET:
		w.exited |= w.active
		w.active = 0
		if blk != nil {
			blk.Terminator = "ret"
			blk.ExitCount += act
		}
		w.pc = next
		return warpDone, nil

	case OpBR:
		tgt := in.BranchTarget()
		if blk != nil {
			blk.Terminator = "br"
			blk.Out[e.clauseAddr(tgt)] += act
		}
		w.pc = tgt
		return warpRunning, nil

	case OpBRC:
		e.gs.Branches++
		tgt, rejoin := in.BranchTarget(), in.Reconverge()
		var taken laneMask
		for i := 0; i < w.lanes; i++ {
			if !w.active.has(i) {
				continue
			}
			if e.read(w, i, in.A, in) != 0 {
				taken |= 1 << uint(i)
			}
		}
		fall := w.active &^ taken
		nTaken := bits.OnesCount8(uint8(taken))
		nFall := bits.OnesCount8(uint8(fall))
		if blk != nil {
			blk.Terminator = "brc"
			if nTaken > 0 {
				blk.Out[e.clauseAddr(tgt)] += uint64(nTaken)
			}
			if nFall > 0 {
				blk.Out[e.clauseAddr(next)] += uint64(nFall)
			}
		}
		switch {
		case nFall == 0:
			w.pc = tgt
		case nTaken == 0:
			w.pc = next
		default:
			e.gs.DivergentBranches++
			if blk != nil {
				blk.Diverged++
			}
			w.stack = append(w.stack, divFrame{
				rejoin:   rejoin,
				pendPC:   tgt,
				pendMask: taken,
				joinMask: w.active,
			})
			w.active = fall
			w.pc = next
		}
		return warpRunning, nil
	}

	// Unreachable: IsClauseTerminal admits exactly the four cases above.
	w.pc = next
	return warpRunning, nil
}

// clauseAddr maps a clause index to its binary address for CFG reporting;
// "one past the end" maps to a synthetic exit address.
func (e *execContext) clauseAddr(idx int) uint64 {
	if idx < len(e.prog.Clauses) {
		return e.prog.Clauses[idx].Addr
	}
	return 0xFFFF
}

func f32(v uint64) float32   { return math.Float32frombits(uint32(v)) }
func fbits(f float32) uint64 { return uint64(math.Float32bits(f)) }

// fres is fbits for the result of FADD, FSUB, FMUL, FDIV and FMA, with
// every NaN the canonical quiet NaN. On two NaN operands the host returns
// one of them, chosen by an operand order the compiler may commute
// differently in each engine; canonical, the result is the same in both.
// The select compiles to a conditional move, and fres stays within the
// inlining budget of a function the size of execLeaf.
func fres(f float32) uint64 {
	b := uint64(math.Float32bits(f))
	if f != f {
		b = 0x7fc00000
	}
	return b
}

// read evaluates a source operand for one lane, recording the data-access
// breakdown (Fig 12).
//
//simlint:commit -- commits the operand-read breakdown (Fig 12)
func (e *execContext) read(w *warp, lane int, o uint8, in *Instr) uint64 {
	kind, idx := OperKind(o)
	switch kind {
	case OperGRF:
		e.gs.GRFRead++
		return w.rows[idx][lane]
	case OperTemp:
		e.gs.TempAcc++
		return w.rows[NumGRF+idx][lane]
	case OperUniform:
		e.gs.ConstRead++
		if int(idx) < len(e.uniforms) {
			return e.uniforms[idx]
		}
		return 0
	default:
		switch idx {
		case SpecImm:
			e.gs.ROMRead++
			return uint64(in.Imm)
		case SpecROM:
			e.gs.ROMRead++
			if int(in.Imm) < len(e.prog.ROM) {
				return e.prog.ROM[in.Imm]
			}
			return 0
		case SpecZero:
			return 0
		case SpecGIDX, SpecGIDY, SpecGIDZ:
			return w.rows[rowGID+idx-SpecGIDX][lane]
		case SpecLIDX, SpecLIDY, SpecLIDZ:
			return w.rows[rowLID+idx-SpecLIDX][lane]
		case SpecWGIDX, SpecWGIDY, SpecWGIDZ:
			return uint64(e.wgid[idx-SpecWGIDX])
		case SpecGSZX, SpecGSZY, SpecGSZZ:
			return uint64(e.gsz[idx-SpecGSZX])
		case SpecLSZX, SpecLSZY, SpecLSZZ:
			return uint64(e.lsz[idx-SpecLSZX])
		}
		return 0
	}
}

// write stores a result operand for one lane.
//
//simlint:commit -- commits the operand-write breakdown (Fig 12)
func (e *execContext) write(w *warp, lane int, o uint8, v uint64) {
	kind, idx := OperKind(o)
	switch kind {
	case OperGRF:
		e.gs.GRFWrite++
		w.rows[idx][lane] = v
	case OperTemp:
		e.gs.TempAcc++
		w.rows[NumGRF+idx][lane] = v
	}
}

// execLane executes a non-control, non-barrier instruction for one lane.
func (e *execContext) execLane(w *warp, lane int, in *Instr) error {
	if size, local, store := accessOf(in.Op); size != 0 {
		addr := e.read(w, lane, in.A, in) + uint64(int64(int32(in.Imm)))
		var v uint64
		if store {
			v = e.read(w, lane, in.B, in)
		}
		v, err := e.access(local, store, size, addr, v)
		if err == nil && !store {
			e.write(w, lane, in.Dst, v)
		}
		return err
	}

	a := e.read(w, lane, in.A, in)
	var b uint64
	switch in.Op {
	case OpMOV, OpI2F, OpF2I, OpFABS, OpFNEG, OpFSQRT, OpFEXP, OpFLOG,
		OpFSIN, OpFCOS, OpFFLOOR:
		// unary: B unused
	default:
		b = e.read(w, lane, in.B, in)
	}

	var r uint64
	switch in.Op {
	case OpMOV:
		r = a
	case OpI2F:
		r = fbits(float32(int32(a)))
	case OpF2I:
		r = uint64(uint32(int32(f32(a))))
	case OpIADD:
		r = uint64(uint32(a) + uint32(b))
	case OpISUB:
		r = uint64(uint32(a) - uint32(b))
	case OpIMUL:
		r = uint64(uint32(a) * uint32(b))
	case OpIDIV, OpIMOD, OpFMIN, OpFMAX:
		r = slowBin[in.Op](a, b)
	case OpFEXP, OpFLOG, OpFSIN, OpFCOS:
		r = slowUn[in.Op](a)
	case OpSHL:
		r = uint64(uint32(a) << (uint32(b) & 31))
	case OpSHR:
		r = uint64(uint32(a) >> (uint32(b) & 31))
	case OpSAR:
		r = uint64(uint32(int32(a) >> (uint32(b) & 31)))
	case OpAND:
		r = a & b
	case OpOR:
		r = a | b
	case OpXOR:
		r = a ^ b
	case OpIMIN:
		if int32(a) < int32(b) {
			r = uint64(uint32(a))
		} else {
			r = uint64(uint32(b))
		}
	case OpIMAX:
		if int32(a) > int32(b) {
			r = uint64(uint32(a))
		} else {
			r = uint64(uint32(b))
		}
	case OpADD64:
		r = a + b
	case OpMUL64:
		r = a * b
	case OpFADD:
		r = fres(f32(a) + f32(b))
	case OpFSUB:
		r = fres(f32(a) - f32(b))
	case OpFMUL:
		r = fres(f32(a) * f32(b))
	case OpFDIV:
		r = fres(f32(a) / f32(b))
	case OpFMA:
		acc := e.read(w, lane, in.Dst, in)
		r = fres(f32(acc) + f32(a)*f32(b))
	case OpFABS:
		r = fbits(float32(math.Abs(float64(f32(a)))))
	case OpFNEG:
		r = fbits(-f32(a))
	case OpFSQRT:
		r = fbits(float32(math.Sqrt(float64(f32(a)))))
	case OpFFLOOR:
		r = fbits(float32(math.Floor(float64(f32(a)))))
	case OpICMPEQ:
		r = b2u(uint32(a) == uint32(b))
	case OpICMPNE:
		r = b2u(uint32(a) != uint32(b))
	case OpICMPLT:
		r = b2u(int32(a) < int32(b))
	case OpICMPLE:
		r = b2u(int32(a) <= int32(b))
	case OpUCMPLT:
		r = b2u(uint32(a) < uint32(b))
	case OpFCMPEQ:
		r = b2u(f32(a) == f32(b))
	case OpFCMPLT:
		r = b2u(f32(a) < f32(b))
	case OpFCMPLE:
		r = b2u(f32(a) <= f32(b))
	case OpSEL:
		pred := e.read(w, lane, in.Dst, in)
		if pred != 0 {
			r = a
		} else {
			r = b
		}
	default:
		return fmt.Errorf("gpu: unimplemented opcode %v", in.Op)
	}
	e.write(w, lane, in.Dst, r)
	return nil
}

// accessOf decodes a load or store opcode: its access size in bytes,
// whether it goes to the local slot and whether it stores. size is 0 for
// every other opcode.
func accessOf(op Opcode) (size int, local, store bool) {
	switch op {
	case OpLDG, OpSTG, OpLDL, OpSTL:
		size = 4
	case OpLDGB, OpSTGB:
		size = 1
	case OpLDG64, OpSTG64:
		size = 8
	}
	return size, op == OpLDL || op == OpSTL, op == OpSTG || op == OpSTGB || op == OpSTG64 || op == OpSTL
}

// access is one lane's load or store of size bytes at addr — a word at an
// offset into the local slot when local — storing v or returning the value
// loaded. It is the per-lane memory path of both engines: it counts the
// access, then goes through the walker, so a faulting lane stops with
// every counter before it bumped.
//
//simlint:commit -- commits per-lane load/store counters
func (e *execContext) access(local, store bool, size int, addr, v uint64) (uint64, error) {
	walker := e.walker
	if local {
		e.gs.LocalLS++
		e.gs.LocalAcc++
		g := e.local
		if addr+4 > g.size {
			op := "load"
			if store {
				op = "store"
			}
			return 0, fmt.Errorf("gpu: local %s at %#x beyond %#x", op, addr, g.size)
		}
		addr, walker = g.base+addr, g.walker
	} else {
		e.gs.GlobalLS++
		e.gs.MainMemAcc++
	}
	if store {
		return 0, walker.Store(addr, size, v)
	}
	return walker.Load(addr, size, mem.Read)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
