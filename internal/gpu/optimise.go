package gpu

import "slices"

// The tape optimiser (DESIGN.md §9). warpCompile runs it over the clause
// tapes between lowering and chaining. It rewrites micro-ops and BRC
// predicates only: the marks beside a tape keep the statistics of the
// instructions as written, so every counter, every guest byte and the warp
// schedule are those of the literal tape.
//
// Forwarding and fusion depend on which clause temporaries a later
// micro-op may still read. Temporaries keep their values across clauses in
// this model (isa.go), so liveness is a fixpoint over the whole program,
// not a scan of one clause.

// rewrite is a set of the optimiser's rewrites.
type rewrite uint8

const (
	rwForward   rewrite = 1 << iota // op tN; …; mov rM, tN → op rM; …
	rwFuseAddr                      // imul → iadd → mul64 → add64 → kAddr
	rwFuseTail                      // mul64 → add64 → kAddrTail
	rwBool                          // a boolean row's re-test → a move, or a negated BRC predicate
	allRewrites = rwForward | rwFuseAddr | rwFuseTail | rwBool
)

// tempMask is a set of clause temporaries, bit i for t<i>.
type tempMask uint8

const allTemps tempMask = 1<<NumTemp - 1

// tempBit is row r's bit when r is a clause temporary's row, else 0.
func tempBit(r uint8) tempMask {
	if r >= NumGRF && r < NumGRF+NumTemp {
		return 1 << (r - NumGRF)
	}
	return 0
}

// temps returns the temporaries u reads and writes. A row field a micro-op
// does not use is 0, r0's row, so it names no temporary.
func (u uop) temps() (use, def tempMask) {
	if u.kind() == kLaneInterp {
		return allTemps, 0 // the interpreter may read any operand
	}
	use, def = tempBit(u.a())|tempBit(u.b()), tempBit(u.d())
	if accumulates(u.kind()) {
		use |= def
	}
	return use, def
}

// accumulates reports an FMA or SEL case, which reads its destination.
func accumulates(k uopKind) bool {
	if k < kVV {
		return false
	}
	op := Opcode((k - kVV) % uopKind(NumOpcodes))
	return op == OpFMA || op == OpSEL
}

// termTemps returns the temporaries t's terminal reads.
func (t *tape) termTemps() tempMask {
	if t.tk == tkBRC && t.pred.vec {
		return tempBit(t.pred.row)
	}
	return 0
}

// liveBefore returns the temporaries live before ops given those live after
// them, and records in after[i], when after is non-nil, those live after
// ops[i].
func liveBefore(ops []uop, live tempMask, after []tempMask) tempMask {
	for i := len(ops) - 1; i >= 0; i-- {
		if after != nil {
			after[i] = live
		}
		use, def := ops[i].temps()
		live = live&^def | use
	}
	return live
}

// liveOut returns, per clause, the temporaries live when its terminal has
// run. A lane's clauses follow control-flow edges, and the successors taken
// here are a superset of them: clause c+1 always (a fallthrough, a BRC's
// fall path, a barrier resume, the zero-active walk), the BR or BRC target
// and the BRC's reconvergence clause. A register is dead after the
// workgroup: warpsFor resets every row for the next one.
func liveOut(clauses []tape) []tempMask {
	n := len(clauses)
	in, out := make([]tempMask, n), make([]tempMask, n)
	for changed := true; changed; {
		changed = false
		for ci := n - 1; ci >= 0; ci-- {
			t := &clauses[ci]
			succ := [3]int{ci + 1, -1, -1}
			switch t.tk {
			case tkBR:
				succ[1] = t.tgt
			case tkBRC:
				succ[1], succ[2] = t.tgt, t.rejoin
			}
			out[ci] = 0
			for _, s := range succ {
				if s >= 0 && s < n {
					out[ci] |= in[s]
				}
			}
			if l := liveBefore(t.ops, out[ci]|t.termTemps(), nil); l != in[ci] {
				in[ci], changed = l, true
			}
		}
	}
	return out
}

// optimise applies the tape rewrites in rw to every clause tape.
func (wp *warpProgram) optimise(rw rewrite) {
	out := liveOut(wp.clauses)
	for ci := range wp.clauses {
		t := &wp.clauses[ci]
		if rw&rwBool != 0 {
			wp.bools(t, out[ci])
		}
		end := out[ci] | t.termTemps()
		if rw&rwForward != 0 {
			t.forward(end)
		}
		if rw&(rwFuseAddr|rwFuseTail) != 0 {
			wp.fuse(t, end, rw)
		}
	}
}

// forwardable reports a micro-op whose result may go straight to another
// row: a leaf ALU case that does not read its destination, a splat or a
// slow ALU op. Memory micro-ops can fault part-way through a warp.
func forwardable(k uopKind) bool {
	return k == kSplat || k == kSlow || k >= kVV && !accumulates(k)
}

// forward rewrites op tN; …; mov rM, tN into op rM; … where tN is dead
// after the move and the micro-ops between are leaf ALU cases that neither
// read nor write tN or rM: none of them can fault, so no abort sees rM
// written early, and none reads either row. A masked warp writes the
// active lanes of rM in either form, and the inactive lanes in neither.
func (t *tape) forward(end tempMask) {
	after := make([]tempMask, len(t.ops))
	liveBefore(t.ops, end, after)
	for i := 0; i < len(t.ops); i++ {
		u := t.ops[i]
		tn := tempBit(u.d())
		if tn == 0 || !forwardable(u.kind()) {
			continue
		}
		for j := i + 1; j < len(t.ops); j++ {
			mv := t.ops[j]
			if mv.kind() == kVV+uopKind(OpMOV) && mv.a() == u.d() {
				if after[j]&tn == 0 && !slices.ContainsFunc(t.ops[i+1:j], func(v uop) bool { return v.touches(mv.d()) }) {
					t.ops[i] = mkUop(u.kind(), mv.d(), u.a(), u.b(), u.imm())
					t.cut(j, 1)
					after = after[:len(t.ops)]
					liveBefore(t.ops, end, after)
					i-- // the new destination may be a temporary another move reads
				}
				break
			}
			if !leafALU(mv.kind()) || mv.touches(u.d()) {
				break
			}
		}
	}
}

// leafALU reports an execLeaf case that cannot fault: every one but the
// memory micro-ops.
func leafALU(k uopKind) bool {
	return k == kSplat || k == kAddr || k == kAddrTail || k >= kVV
}

// touches reports whether u, a leaf ALU micro-op, may read or write row
// r. A row field u does not use is 0, so r0 counts as read by every
// micro-op that leaves one unused.
func (u uop) touches(r uint8) bool { return u.d() == r || u.a() == r || u.b() == r }

// isZero reports a uvals slot that holds zero in every job.
func (wp *warpProgram) isZero(uv uint32) bool {
	return uv == uvZero || uv >= uvConsts && wp.consts[uv-uvConsts] == 0
}

// bools rewrites the re-tests of boolean rows in the clause tape t, whose
// terminal leaves the temporaries in live live. A boolean row is one whose
// written lanes are all 0 or 1: written, earlier in the same clause tape
// and not overwritten since, by a compare, by an AND or OR of two boolean
// rows or by a move of one. A tape runs under one mask, so the lanes a
// re-test reads are lanes written so. icmpne d, b, 0 of a boolean b becomes
// mov d, b (forwarding may then remove the move); and a BRC whose predicate
// is icmpeq p, b, 0 of a boolean b — the tape's last micro-op, p a
// temporary dead after the terminal — reads b negated instead, and the
// icmpeq goes.
func (wp *warpProgram) bools(t *tape, live tempMask) {
	var isBool [numRows]bool
	negate := false
	for i, u := range t.ops {
		k, out := u.kind(), false
		switch {
		case k >= kVV && isCompare[Opcode((k-kVV)%uopKind(NumOpcodes))]:
			out = true
		case k == kVV+uopKind(OpAND) || k == kVV+uopKind(OpOR):
			out = isBool[u.a()] && isBool[u.b()]
		case k == kVV+uopKind(OpMOV):
			out = isBool[u.a()]
		}
		retest := (k == kVU+uopKind(OpICMPNE) || k == kVU+uopKind(OpICMPEQ)) && isBool[u.a()] && wp.isZero(u.imm())
		switch {
		case retest && k == kVU+uopKind(OpICMPNE):
			t.ops[i] = mkUop(kVV+uopKind(OpMOV), u.d(), u.a(), 0, 0)
		case retest && i == len(t.ops)-1:
			p := t.pred.row
			negate = t.tk == tkBRC && t.pred.vec && p == u.d() && tempBit(p)&^live != 0
		}
		if k == kLaneInterp {
			isBool = [numRows]bool{}
		}
		isBool[u.d()] = out
	}
	if negate {
		t.pred.row, t.pred.neg = t.ops[len(t.ops)-1].a(), 1
		t.cut(len(t.ops)-1, 1)
	}
}

// isCompare marks the opcodes whose result is 0 or 1.
var isCompare = [NumOpcodes]bool{OpICMPEQ: true, OpICMPNE: true, OpICMPLT: true, OpICMPLE: true,
	OpUCMPLT: true, OpFCMPEQ: true, OpFCMPLT: true, OpFCMPLE: true}

// The address idiom's micro-ops: clc computes &p[i*w + j] as imul, iadd,
// a widening mul64 by the element size and an add64 of the base.
const (
	kIMUL  = kVU + uopKind(OpIMUL)
	kIADD  = kVV + uopKind(OpIADD)
	kMUL64 = kVU + uopKind(OpMUL64)
	kADD64 = kVU + uopKind(OpADD64)
)

// addrIdiom reports whether ops opens with imul → iadd → mul64 → add64,
// each consuming the result of the one before, and returns the idiom's
// vector sources: the imul's, and the iadd's other operand. That operand
// must not be the imul's result — a fused micro-op reads its sources
// before writing, as the run reads it before the imul's write.
func addrIdiom(ops []uop) (a, b uint8, ok bool) {
	if len(ops) < 4 {
		return 0, 0, false
	}
	im, ia, mu, ad := ops[0], ops[1], ops[2], ops[3]
	if im.kind() != kIMUL || ia.kind() != kIADD || mu.kind() != kMUL64 || ad.kind() != kADD64 || mu.a() != ia.d() || ad.a() != mu.d() {
		return 0, 0, false
	}
	switch t := im.d(); {
	case ia.a() == t && ia.b() != t:
		return im.a(), ia.b(), true
	case ia.b() == t && ia.a() != t:
		return im.a(), ia.a(), true
	}
	return 0, 0, false
}

// fuse replaces each address idiom whose intermediates are temporaries
// dead after it by one kAddr, and each remaining mul64 → add64 pair with a
// dead temporary between them by one kAddrTail.
func (wp *warpProgram) fuse(t *tape, end tempMask, rw rewrite) {
	after := make([]tempMask, len(t.ops))
	liveBefore(t.ops, end, after)
	// dead reports that d, an intermediate of the run ending at ops[last],
	// is a temporary nothing reads after the run, or the run's result.
	dead := func(d uint8, last int) bool {
		return tempBit(d) != 0 && (d == t.ops[last].d() || after[last]&tempBit(d) == 0)
	}
	addr := func(s1, s2, s3 uint32) uint32 {
		wp.addrs = append(wp.addrs, [3]uint32{s1, s2, s3})
		return uint32(len(wp.addrs) - 1)
	}
	for i := 0; i < len(t.ops); i++ {
		ops := t.ops[i:]
		if a, b, ok := addrIdiom(ops); ok && rw&rwFuseAddr != 0 && dead(ops[0].d(), i+3) && dead(ops[1].d(), i+3) && dead(ops[2].d(), i+3) {
			t.ops[i] = mkUop(kAddr, ops[3].d(), a, b, addr(ops[0].imm(), ops[2].imm(), ops[3].imm()))
			t.cut(i+1, 3)
			after = slices.Delete(after, i, i+3)
		} else if rw&rwFuseTail != 0 && len(ops) > 1 && ops[0].kind() == kMUL64 && ops[1].kind() == kADD64 && ops[1].a() == ops[0].d() && dead(ops[0].d(), i+1) {
			t.ops[i] = mkUop(kAddrTail, ops[1].d(), ops[0].a(), 0, addr(uvZero, ops[0].imm(), ops[1].imm()))
			t.cut(i+1, 1)
			after = slices.Delete(after, i, i+1)
		}
	}
}

// cut deletes ops[i : i+n] and re-bases the marks behind them. No mark
// starts inside a cut: a mark starts a tape or follows a micro-op that can
// fault, and the rewrites cut only leaf ALU micro-ops that follow another.
func (t *tape) cut(i, n int) {
	t.ops = slices.Delete(t.ops, i, i+n)
	for k := range t.marks {
		if int(t.marks[k].pos) > i {
			t.marks[k].pos -= int32(n)
		}
	}
}
