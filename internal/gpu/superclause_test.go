package gpu

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mobilesim/internal/stats"
)

// Structural tests for superclause fusion (DESIGN.md §9). The differential
// and edge suites prove fused programs *behave* like the interpreter;
// these pin the fusion decisions themselves — which chains form and,
// just as important, which control-flow shapes must break them.

// aluClause is a minimal fusable clause body.
func aluClause() Clause {
	return Clause{Instrs: []Instr{{Op: OpIADD, Dst: R(8), A: R(1), B: R(2)}}}
}

// superShape compiles the program for the warp engine and returns, per
// clause index, the fused chain length headed there (0 = no chain).
func superShape(t *testing.T, clauses ...Clause) []int {
	t.Helper()
	p := &Program{RegCount: 16, Clauses: clauses}
	for i := range p.Clauses {
		p.Clauses[i].Addr = uint64(i) * 0x10
	}
	p.compile(EngineWarp)
	shape := make([]int, len(clauses))
	for ci, t := range p.warp.heads {
		if t.n > 1 {
			shape[ci] = t.n
		}
	}
	return shape
}

func TestSuperClauseFusionShapes(t *testing.T) {
	brc := func(target, rejoin int) Clause {
		return Clause{Instrs: []Instr{{Op: OpBRC, A: R(7), Imm: BranchImm(target, rejoin)}}}
	}
	withTerm := func(c Clause, op Opcode) Clause {
		c.Instrs = append(c.Instrs, Instr{Op: op})
		return c
	}

	t.Run("straight_line_fuses_whole_program", func(t *testing.T) {
		got := superShape(t, aluClause(), aluClause(), aluClause(), withTerm(aluClause(), OpRET))
		if got[0] != 4 {
			t.Errorf("shape = %v, want one 4-clause chain at 0", got)
		}
	})

	t.Run("branch_into_mid_chain_breaks_fusion", func(t *testing.T) {
		// c0→c1→c2 would fuse, but c3's BRC targets c1: c1 must stay an
		// independently executable chain head, so c0 fuses with nothing
		// and the chain restarts at c1 (absorbing c2 and the BRC clause).
		got := superShape(t,
			aluClause(),                  // c0
			aluClause(),                  // c1: branch target
			aluClause(),                  // c2
			brc(1, 4),                    // c3
			withTerm(aluClause(), OpRET), // c4: rejoin
		)
		if got[0] != 0 {
			t.Errorf("c0 fused a chain of %d across a branch target", got[0])
		}
		if got[1] != 3 {
			t.Errorf("shape = %v, want a 3-clause chain at c1", got)
		}
	})

	t.Run("barrier_breaks_fusion_both_sides", func(t *testing.T) {
		// The BARRIER terminal parks the warp (no fusing past it), and the
		// resume clause is an entry (warps re-enter there after the
		// rendezvous) — but the post-barrier straight line still fuses.
		got := superShape(t,
			withTerm(aluClause(), OpBARRIER), // c0
			aluClause(),                      // c1: barrier resume
			withTerm(aluClause(), OpRET),     // c2
		)
		if got[0] != 0 {
			t.Errorf("fused across a barrier: shape = %v", got)
		}
		if got[1] != 2 {
			t.Errorf("post-barrier chain missing: shape = %v", got)
		}
	})

	t.Run("unconditional_br_fuses_single_pred_target", func(t *testing.T) {
		p := &Program{RegCount: 16, Clauses: []Clause{
			withTerm(aluClause(), OpBR), // c0: BR → c1 (Imm set below)
			withTerm(aluClause(), OpRET),
		}}
		p.Clauses[0].Instrs[1].Imm = 1
		for i := range p.Clauses {
			p.Clauses[i].Addr = uint64(i) * 0x10
		}
		p.compile(EngineWarp)
		chain := p.warp.heads[0]
		if chain.n != 2 {
			t.Fatalf("BR into single-pred clause did not fuse")
		}
		// No micro-op separates the clauses, and the folded BR is still
		// accounted as a control-flow instruction — exactly once, by a
		// mark at c1's first micro-op, ahead of c1's clause-entry mark —
		// so a fault there commits it as the interpreter did. The final
		// clause's RET stays the chain's terminal.
		c0 := len(p.warp.clauses[0].ops)
		if len(chain.ops) != c0+len(p.warp.clauses[1].ops) {
			t.Errorf("chain has %d micro-ops, want the clause tapes' %d + %d", len(chain.ops), c0, len(p.warp.clauses[1].ops))
		}
		var foldedBR, brMark, entryMark = 0, -1, -1
		for i, m := range chain.marks {
			if m.st.cf > 0 {
				foldedBR += int(m.st.cf)
				brMark = i
				if int(m.pos) != c0 {
					t.Errorf("folded BR's mark at micro-op %d, want c1's first, %d", m.pos, c0)
				}
			}
			if m.slot >= 0 && int(m.pos) == c0 && entryMark < 0 {
				entryMark = i
			}
		}
		if foldedBR != 1 || brMark < 0 || entryMark < brMark {
			t.Errorf("folded-BR bumps %d (mark %d), c1's entry mark %d: want 1, ahead of c1's entry", foldedBR, brMark, entryMark)
		}
		if chain.tk != tkRET {
			t.Errorf("chain terminal kind = %v, want the final clause's RET", chain.tk)
		}
	})

	t.Run("two_predecessors_block_fusion", func(t *testing.T) {
		// Both c0 (BR) and c1 (fallthrough) enter the join c2: absorbing it
		// into either chain would execute it on the wrong path. The BR's
		// chain may end in a copy of a short join, terminal included, while
		// the join stays its own head.
		br2 := withTerm(aluClause(), OpBR)
		br2.Instrs[1].Imm = 2
		if got := superShape(t, br2, aluClause(), withTerm(aluClause(), OpRET)); got[0] != 2 || got[1] != 0 || got[2] != 0 {
			t.Errorf("shape = %v, want only c0's BR chain ending in a copy of the join", got)
		}
		// A join that heads a chain of its own is neither copied nor ever
		// absorbed mid-chain.
		if got := superShape(t, br2, aluClause(), aluClause(), withTerm(aluClause(), OpRET)); got[0] != 0 || got[1] != 0 || got[2] != 2 {
			t.Errorf("shape = %v, want only the join's own 2-clause chain", got)
		}
	})
}

// warpShapes are the mask shapes every exactness test below runs under:
// the tape must behave identically for a full warp, a divergent one
// (masked commit, per-lane memory uops) and a partial tail warp.
var warpShapes = []struct {
	name  string
	shape func(w *warp)
}{
	{"full", func(*warp) {}},
	{"divergent", diverge},
	{"partial", func(w *warp) { w.lanes = WarpSize - 1; w.active &^= 1 << (WarpSize - 1) }},
}

// TestSuperClauseSoftStopAtSegBoundary pins the soft-stop contract around
// a fused chain: the latch is polled where a warp enters a tape, so a stop
// raised while the warp waits at a barrier stops it before the two-clause
// chain behind the barrier — the clause before it committed, nothing of
// the chain counted, no memory traffic of the chain issued — in the state
// the interpreter, which polls at every clause, leaves there.
func TestSuperClauseSoftStopAtSegBoundary(t *testing.T) {
	hot := hotProgram()
	prog := &Program{RegCount: 16, Clauses: []Clause{
		{Instrs: append(hot.Clauses[0].Instrs, Instr{Op: OpBARRIER})},
		aluClause(),
		{Instrs: append(hot.Clauses[1].Instrs, Instr{Op: OpRET})},
	}}
	for i := range prog.Clauses {
		prog.Clauses[i].Addr = uint64(i) * 0x10
	}
	prog.compile(EngineWarp)
	if prog.warp.heads[1].n != 2 {
		t.Fatalf("the clauses behind the barrier did not fuse into a 2-clause chain")
	}
	for _, sh := range warpShapes {
		t.Run(sh.name, func(t *testing.T) {
			run := func(eng Engine) (*execContext, *warp, error) {
				ec, w, _ := newHotContext(t)
				ec.prog = prog
				ec.setEngine(eng)
				sh.shape(w)
				var stop atomic.Bool
				ec.stop = &stop
				if st, err := ec.runWarp(w); st != warpAtBarrier || err != nil {
					t.Fatalf("engine %v before the stop: status %v, err %v; want the barrier", eng, st, err)
				}
				stop.Store(true)
				hits, walks := ec.walker.Hits, ec.walker.Walks
				_, err := ec.runWarp(w)
				ec.commitTallies()
				if ec.gs.GlobalLS != 0 || ec.walker.Hits != hits || ec.walker.Walks != walks {
					t.Errorf("engine %v: the chain's memory traffic leaked past the stop: GlobalLS=%d", eng, ec.gs.GlobalLS)
				}
				return ec, w, err
			}
			ec, w, err := run(EngineWarp)
			ecI, wI, errI := run(EngineInterp)
			if !errors.Is(err, ErrStopped) || !errors.Is(errI, ErrStopped) {
				t.Fatalf("resumed under stop: warp err %v, interp err %v; want ErrStopped", err, errI)
			}
			if ec.gs.ClausesExec != 1 || w.pc != 1 {
				t.Errorf("stopped at clause %d after %d clauses, want at the chain's head 1 after 1", w.pc, ec.gs.ClausesExec)
			}
			if *ec.gs != *ecI.gs {
				t.Errorf("stats at the stop differ from the interpreter's:\nwarp:   %+v\ninterp: %+v", *ec.gs, *ecI.gs)
			}
			if regsOf(w) != regsOf(wI) || w.pc != wI.pc {
				t.Errorf("registers or pc at the stop differ from the interpreter's")
			}
		})
	}
}

// TestSuperClauseFaultMatchesInterp makes one lane's global load fault in
// the *second* clause of a fused chain and requires the warp engine to
// leave behind exactly the interpreter's state: same error, same
// registers (the abort prefix of the faulting instruction included), same
// GPU statistics, same TLB accounting.
func TestSuperClauseFaultMatchesInterp(t *testing.T) {
	for _, sh := range warpShapes {
		t.Run(sh.name, func(t *testing.T) {
			mk := func(eng Engine) (*execContext, *warp) {
				ec, w, _ := newHotContext(t)
				ec.setEngine(eng)
				sh.shape(w)
				w.rows[4][WarpSize-2] = 0xdead_0000 // unmapped: faults mid-warp, mid-chain
				return ec, w
			}
			ecW, wW := mk(EngineWarp)
			ecI, wI := mk(EngineInterp)

			_, errW := ecW.runWarp(wW)
			ecW.commitTallies()
			_, errI := ecI.runWarp(wI)
			if errW == nil || errI == nil {
				t.Fatalf("expected a fault from both engines; warp=%v interp=%v", errW, errI)
			}
			if errW.Error() != errI.Error() {
				t.Errorf("fault mismatch:\nwarp:   %v\ninterp: %v", errW, errI)
			}
			if regsOf(wW) != regsOf(wI) {
				t.Errorf("registers diverged after mid-chain fault")
			}
			if *ecW.gs != *ecI.gs {
				t.Errorf("stats diverged after mid-chain fault:\nwarp:   %+v\ninterp: %+v", *ecW.gs, *ecI.gs)
			}
			if ecW.walker.Hits != ecI.walker.Hits || ecW.walker.Walks != ecI.walker.Walks {
				t.Errorf("TLB accounting diverged: warp %d/%d, interp %d/%d",
					ecW.walker.Hits, ecW.walker.Walks, ecI.walker.Hits, ecI.walker.Walks)
			}
		})
	}
}

// TestAbortedTapeCommitsWhatItReached pins the abort rule of the statistics
// beside the tape (DESIGN.md §9). One chain — a padded clause opening with an
// ALU run, a load, a run of NOPs, a second load and a folded BR, then a
// second clause opening with a load — is stopped at each place a warp can
// stop in it: the first load faults, the second load faults, the second
// clause's load faults (where the folded BR's mark sits), a soft-stop is
// latched when the warp enters the tape. The shard must then hold the interpreter's counters at
// that point — the runs the tape reached, no later one — and the core's
// tallies nothing.
func TestAbortedTapeCommitsWhatItReached(t *testing.T) {
	prog := &Program{RegCount: 16, Clauses: []Clause{
		{Instrs: []Instr{
			{Op: OpIADD, Dst: R(8), A: R(1), B: R(2)},
			{Op: OpIMUL, Dst: R(9), A: R(8), B: C(0)},
			{Op: OpLDG, Dst: R(12), A: R(4)},
			{Op: OpNOP},
			{Op: OpNOP},
			{Op: OpLDG, Dst: T(0), A: R(5)},
			{Op: OpBR, Imm: 1},
		}},
		{Instrs: []Instr{{Op: OpLDG, Dst: R(13), A: R(7)}, {Op: OpIADD, Dst: R(8), A: R(8), B: R(12)}, {Op: OpRET}}},
	}}
	prog.compile(EngineWarp)
	if prog.warp.heads[0].n != 2 {
		t.Fatalf("the two clauses did not fuse into one chain")
	}
	r := newTapeRig(t)
	raised := new(atomic.Bool)
	raised.Store(true)
	for _, ab := range []struct {
		name string
		arm  func(w *warp)
		stop bool
	}{
		{"first_load_faults", func(w *warp) { w.rows[4][2] = 0xdead_0000 }, false},
		{"second_load_faults", func(w *warp) { w.rows[5][2] = 0xdead_0000 }, false},
		{"next_clause_load_faults", func(w *warp) { w.rows[7][2] = 0xdead_0000 }, false},
		{"soft_stop_at_entry", func(*warp) {}, true},
	} {
		for _, sh := range warpShapes {
			run := func(eng Engine) ([NumGRF + NumTemp]soaRow, stats.GPUStats, error) {
				w := r.w0
				w.stack, w.rows[7] = nil, w.rows[4]
				sh.shape(&w)
				ab.arm(&w)
				*r.ec.gs = stats.GPUStats{}
				r.ec.prog = prog
				r.ec.setEngine(eng)
				if ab.stop {
					r.ec.stop = raised
				}
				_, err := r.ec.runWarp(&w)
				r.ec.stop = nil
				r.ec.commitTallies()
				for ci, ty := range r.ec.tallies {
					if ty != (tally{}) {
						t.Errorf("%s [%s]: tally of clause %d after the abort and the commit = %+v, want zero", ab.name, sh.name, ci, ty)
					}
				}
				return regsOf(&w), *r.ec.gs, err
			}
			regsI, gsI, errI := run(EngineInterp)
			regsW, gsW, errW := run(EngineWarp)
			if errI == nil || fmt.Sprint(errI) != fmt.Sprint(errW) || ab.stop != errors.Is(errW, ErrStopped) {
				t.Errorf("%s [%s]: error: interp %v, warp %v", ab.name, sh.name, errI, errW)
			}
			if gsI != gsW {
				t.Errorf("%s [%s]: stats at the abort diverge\ninterp %+v\nwarp   %+v", ab.name, sh.name, gsI, gsW)
			}
			if regsI != regsW {
				t.Errorf("%s [%s]: registers at the abort diverge", ab.name, sh.name)
			}
		}
	}
}
