package gpu

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"mobilesim/internal/stats"
)

// Structural tests for the chain tables (DESIGN.md §9). The differential
// and edge suites prove chained programs *behave* like the interpreter;
// these pin the chain decisions themselves — which chains form and, just as
// important, where a chain must end.

// aluClause is a minimal clause body.
func aluClause() Clause {
	return Clause{Instrs: []Instr{{Op: OpIADD, Dst: R(8), A: R(1), B: R(2)}}}
}

// chainShape compiles the program for the warp engine and returns, per
// clause index, the number of clauses of the chain headed there in the
// heads table and in the flat table.
func chainShape(t *testing.T, clauses ...Clause) (heads, flat []int) {
	t.Helper()
	p := &Program{RegCount: 16, Clauses: clauses}
	for i := range p.Clauses {
		p.Clauses[i].Addr = uint64(i) * 0x10
	}
	p.compile(EngineWarp)
	for ci := range clauses {
		heads = append(heads, p.warp.heads()[ci].n)
		flat = append(flat, p.warp.flat()[ci].n)
	}
	return heads, flat
}

func TestSuperClauseFusionShapes(t *testing.T) {
	brc := func(c Clause, target, rejoin int) Clause {
		c.Instrs = append(c.Instrs, Instr{Op: OpBRC, A: R(7), Imm: BranchImm(target, rejoin)})
		return c
	}
	withTerm := func(c Clause, op Opcode, imm uint32) Clause {
		c.Instrs = append(c.Instrs, Instr{Op: op, Imm: imm})
		return c
	}

	t.Run("straight_line_fuses_whole_program", func(t *testing.T) {
		heads, flat := chainShape(t, aluClause(), aluClause(), aluClause(), withTerm(aluClause(), OpRET, 0))
		if want := []int{4, 3, 2, 1}; fmt.Sprint(heads) != fmt.Sprint(want) || fmt.Sprint(flat) != fmt.Sprint(want) {
			t.Errorf("heads %v, flat %v: want %v in both, every clause the head of the chain to the RET", heads, flat, want)
		}
	})

	t.Run("heads_stop_before_rejoin_flat_runs_through", func(t *testing.T) {
		// c0's BRC reconverges at c3, which both paths reach: c1 through
		// a BR, c2 by falling through. Inside the divergent region a path
		// must stop before c3; with no frame to rejoin it runs on.
		heads, flat := chainShape(t,
			brc(aluClause(), 2, 3),          // c0
			withTerm(aluClause(), OpBR, 3),  // c1: fall path
			aluClause(),                     // c2: taken path
			withTerm(aluClause(), OpRET, 0), // c3: rejoin
		)
		if want := []int{1, 1, 1, 1}; fmt.Sprint(heads) != fmt.Sprint(want) {
			t.Errorf("heads %v, want %v: no chain runs into the rejoin clause", heads, want)
		}
		if want := []int{1, 2, 2, 1}; fmt.Sprint(flat) != fmt.Sprint(want) {
			t.Errorf("flat %v, want %v: both paths run on through the rejoin clause", flat, want)
		}
	})

	t.Run("barrier_breaks_fusion_both_sides", func(t *testing.T) {
		// The BARRIER terminal parks the warp, and the resume clause heads
		// a chain of its own.
		heads, flat := chainShape(t,
			withTerm(aluClause(), OpBARRIER, 0), // c0
			aluClause(),                         // c1: barrier resume
			withTerm(aluClause(), OpRET, 0),     // c2
		)
		if want := []int{1, 2, 1}; fmt.Sprint(heads) != fmt.Sprint(want) || fmt.Sprint(flat) != fmt.Sprint(want) {
			t.Errorf("heads %v, flat %v: want %v in both", heads, flat, want)
		}
	})

	t.Run("loop_body_ends_with_the_header_brc", func(t *testing.T) {
		// c1 is a loop header whose BRC leaves for c3; the body c2 BRs back
		// to it. The body's chain runs the header, terminal included, so an
		// iteration enters one tape.
		p := &Program{RegCount: 16, Clauses: []Clause{
			aluClause(),                     // c0: preheader
			brc(aluClause(), 3, 3),          // c1: header
			withTerm(aluClause(), OpBR, 1),  // c2: body
			withTerm(aluClause(), OpRET, 0), // c3: exit
		}}
		p.compile(EngineWarp)
		for name, table := range map[string][]tape{"heads": p.warp.heads(), "flat": p.warp.flat()} {
			if body := table[2]; body.n != 2 || body.tk != tkBRC || body.tgt != 3 {
				t.Errorf("%s: the body's chain covers %d clauses and ends in terminal %v to %d, want 2 ending in the header's BRC to c3", name, body.n, body.tk, body.tgt)
			}
			if pre := table[0]; pre.n != 2 || pre.tk != tkBRC {
				t.Errorf("%s: the preheader's chain covers %d clauses, want it and the header", name, pre.n)
			}
		}
	})

	t.Run("cycle_guard", func(t *testing.T) {
		// Two clauses BR to each other with no BRC between: each chain
		// holds both once and ends in the BR back to its own head.
		p := &Program{RegCount: 16, Clauses: []Clause{
			withTerm(aluClause(), OpBR, 1),
			withTerm(aluClause(), OpBR, 0),
		}}
		p.compile(EngineWarp)
		for _, table := range [][]tape{p.warp.heads(), p.warp.flat()} {
			for ci, c := range table {
				if c.n != 2 || c.tk != tkBR || c.tgt != ci || len(c.ops) != 2 {
					t.Errorf("chain at c%d: %d clauses, %d micro-ops, terminal %v to %d; want both clauses once, back to c%d", ci, c.n, len(c.ops), c.tk, c.tgt, ci)
				}
			}
		}
	})

	t.Run("size_bound", func(t *testing.T) {
		// Clauses of 20 micro-ops: a chain takes three (60), not a fourth
		// (80 > maxChainOps); a clause longer than the bound heads a chain
		// alone.
		wide := func(n int) Clause {
			var c Clause
			for i := 0; i < n; i++ {
				c.Instrs = append(c.Instrs, Instr{Op: OpIADD, Dst: R(8 + i%4), A: R(1), B: R(2)})
			}
			return c
		}
		heads, flat := chainShape(t, wide(20), wide(20), wide(20), wide(20), wide(maxChainOps+1), withTerm(wide(20), OpRET, 0))
		if want := []int{3, 3, 2, 1, 1, 1}; fmt.Sprint(heads) != fmt.Sprint(want) || fmt.Sprint(flat) != fmt.Sprint(want) {
			t.Errorf("heads %v, flat %v: want %v in both", heads, flat, want)
		}
	})

	t.Run("unconditional_br_fuses_single_pred_target", func(t *testing.T) {
		p := &Program{RegCount: 16, Clauses: []Clause{
			withTerm(aluClause(), OpBR, 1), // c0: BR → c1
			withTerm(aluClause(), OpRET, 0),
		}}
		for i := range p.Clauses {
			p.Clauses[i].Addr = uint64(i) * 0x10
		}
		p.compile(EngineWarp)
		chain := p.warp.heads()[0]
		if chain.n != 2 {
			t.Fatalf("BR into the next clause did not chain")
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
}

// TestDivergentWarpWaitsAtRejoin runs a warp that diverges at c0's BRC:
// its fall path c1 reaches the reconvergence clause c3 through a BR, the
// taken path c2 by falling through. A warp that enters c0 with an empty
// divergence stack runs the flat table, and the paths the heads table:
// the fall path must stop before c3 and wait there for the taken path, so
// that c3 runs once, under the joined mask. Registers, statistics and the
// CFG are the interpreter's.
func TestDivergentWarpWaitsAtRejoin(t *testing.T) {
	prog := progOf(
		[]Instr{{Op: OpAND, Dst: R(9), A: S(SpecGIDX), B: Imm, Imm: 1}, {Op: OpBRC, A: R(9), Imm: BranchImm(2, 3)}},
		[]Instr{{Op: OpIADD, Dst: R(10), A: R(1), B: Imm, Imm: 0x100}, {Op: OpBR, Imm: 3}},
		[]Instr{{Op: OpIADD, Dst: R(10), A: R(1), B: Imm, Imm: 0x200}},
		[]Instr{{Op: OpIADD, Dst: R(11), A: R(10), B: R(2)}, {Op: OpRET}},
	)
	for i := range prog.Clauses {
		prog.Clauses[i].Addr = uint64(i) * 0x10
	}
	prog.compile(EngineWarp)
	r := newTapeRig(t)
	for _, sh := range warpShapes {
		var cfgs [2]*stats.CFG
		var regs [2][NumGRF + NumTemp]soaRow
		var gss [2]stats.GPUStats
		for i, eng := range []Engine{EngineInterp, EngineWarp} {
			cfgs[i] = stats.NewCFG()
			r.ec.cfg = cfgs[i]
			var err error
			regs[i], gss[i], _, err = r.run(t, prog, eng, sh.shape)
			r.ec.cfg = nil
			if err != nil {
				t.Fatalf("[%s] engine %v: %v", sh.name, eng, err)
			}
		}
		if regs[0] != regs[1] {
			t.Errorf("[%s] registers diverge\ninterp r10, r11 %x\nwarp   r10, r11 %x", sh.name, regs[0][10:12], regs[1][10:12])
		}
		if gss[0] != gss[1] {
			t.Errorf("[%s] stats diverge\ninterp %+v\nwarp   %+v", sh.name, gss[0], gss[1])
		}
		if !reflect.DeepEqual(cfgs[0], cfgs[1]) {
			t.Errorf("[%s] CFGs diverge", sh.name)
		}
	}
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
	if prog.warp.heads()[1].n != 2 {
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
	if prog.warp.heads()[0].n != 2 {
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
