package gpu

import (
	"slices"
	"sync"
)

// The tape optimiser (DESIGN.md §9). warpCompile runs it over the clause
// tapes between lowering and chaining, numbers the values of every chain
// tape after chaining, then builds the loops' re-entry variants (hoist)
// and last hands each loop's test to its BRC (branchCompares). It rewrites
// micro-ops and BRC predicates only: the marks beside
// a tape keep the statistics of the instructions as written, so every
// counter, every guest byte and the warp schedule are those of the literal
// tape.
//
// Forwarding and fusion depend on which clause temporaries a later
// micro-op may still read. Temporaries keep their values across clauses in
// this model (isa.go), so liveness is a fixpoint over the whole program,
// not a scan of one clause.

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
// does not use is 0, r0's row, so it names no temporary. A kLaneInterp may
// read any operand and write its destination, which it keeps in slow[imm]:
// it reads every temporary and defines none, so a temporary it writes is
// live before it, never dead after a write it does not see.
func (u uop) temps() (use, def tempMask) {
	if u.kind() == kLaneInterp {
		return allTemps, 0
	}
	return tempBit(u.a()) | tempBit(u.b()), tempBit(u.d())
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

// optimise rewrites every clause tape: boolean re-tests (bools), then
// forwarding (forward), then address fusion (fuse).
func (wp *warpProgram) optimise() {
	out := liveOut(wp.clauses)
	for ci := range wp.clauses {
		t := &wp.clauses[ci]
		wp.bools(t, out[ci])
		end := out[ci] | t.termTemps()
		t.forward(end)
		wp.fuse(t, end)
	}
}

// forwardable reports a micro-op whose result may go straight to another
// row: a leaf ALU case, a splat, a slow ALU op or a load, which can fault
// part-way through a warp but writes its destination only once every lane
// has loaded (memLanes). Not a kLaneInterp: the interpreter writes the
// destination it decodes.
func forwardable(k uopKind) bool {
	return k == kLoad || k == kSplat || k == kSlow || k >= kVV
}

// forward rewrites op tN; …; mov rM, tN — a load included — into
// op rM; … where tN is dead after the move and the micro-ops between are
// leaf ALU cases that neither read nor write tN or rM: none of them can
// fault, so no abort sees rM written early, and none reads either row. A
// kLaneInterp, which may read or write any row, ends the search. A masked
// warp writes the active lanes of rM in either form, and the inactive
// lanes in neither.
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
	OpFCMPEQ: true, OpFCMPLT: true, OpFCMPLE: true}

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
// dead after it by one kAddr, each remaining iadd → mul64 → add64 run so by
// one kAddr whose s1 is uvOne, and each remaining mul64 → add64 pair with a
// dead temporary between them by one kAddrTail.
func (wp *warpProgram) fuse(t *tape, end tempMask) {
	after := make([]tempMask, len(t.ops))
	liveBefore(t.ops, end, after)
	// dead reports that d, an intermediate of the run ending at ops[last],
	// is a temporary nothing reads after the run, or the run's result.
	dead := func(d uint8, last int) bool {
		return tempBit(d) != 0 && (d == t.ops[last].d() || after[last]&tempBit(d) == 0)
	}
	// addr returns the addrs index of the slots, one per distinct triple,
	// so that equal addresses are equal micro-ops to numberValues.
	addr := func(s1, s2, s3 uint32) uint32 {
		f := [3]uint32{s1, s2, s3}
		i := slices.Index(wp.addrs, f)
		if i < 0 {
			i = len(wp.addrs)
			wp.addrs = append(wp.addrs, f)
		}
		return uint32(i)
	}
	for i := 0; i < len(t.ops); i++ {
		ops := t.ops[i:]
		if a, b, ok := addrIdiom(ops); ok && dead(ops[0].d(), i+3) && dead(ops[1].d(), i+3) && dead(ops[2].d(), i+3) {
			t.ops[i] = mkUop(kAddr, ops[3].d(), a, b, addr(ops[0].imm(), ops[2].imm(), ops[3].imm()))
			t.cut(i+1, 3)
			after = slices.Delete(after, i, i+3)
		} else if len(ops) > 2 && ops[0].kind() == kIADD && ops[1].kind() == kMUL64 && ops[2].kind() == kADD64 &&
			ops[1].a() == ops[0].d() && ops[2].a() == ops[1].d() && dead(ops[0].d(), i+2) && dead(ops[1].d(), i+2) {
			t.ops[i] = mkUop(kAddr, ops[2].d(), ops[0].a(), ops[0].b(), addr(uvOne, ops[1].imm(), ops[2].imm()))
			t.cut(i+1, 2)
			after = slices.Delete(after, i, i+2)
		} else if len(ops) > 1 && ops[0].kind() == kMUL64 && ops[1].kind() == kADD64 && ops[1].a() == ops[0].d() && dead(ops[0].d(), i+1) {
			t.ops[i] = mkUop(kAddrTail, ops[1].d(), ops[0].a(), 0, addr(uvZero, ops[0].imm(), ops[1].imm()))
			t.cut(i+1, 1)
			after = slices.Delete(after, i, i+1)
		}
	}
}

// cut deletes ops[i : i+n] and re-bases the marks behind them. No mark
// starts inside a cut of more than one micro-op: a mark starts a tape or
// follows a micro-op that can fault, and fusion cuts only leaf ALU
// micro-ops that follow another. A mark at ops[i] stays there, at the
// micro-op after the cut: an abort there has run the cut one.
func (t *tape) cut(i, n int) {
	t.ops = slices.Delete(t.ops, i, i+n)
	for k := range t.marks {
		if int(t.marks[k].pos) > i {
			t.marks[k].pos -= int32(n)
		}
	}
}

// --- Value numbering ---------------------------------------------------------

// numberValues runs values over every chain tape, given the temporaries
// live after each clause's terminal by the program-wide liveness (out); a
// chain that ends the program leaves every temporary as written. A chain
// of one clause shares its micro-ops and marks with the clause tape and
// with the other table, so it is rewritten in copies of its own; a longer
// one owns what buildChains built it. A flat-table chain of as many
// clauses as the heads table's chain from the same clause is that chain,
// and shares its result.
func (wp *warpProgram) numberValues(out []tempMask, sc *valueScratch) {
	n := len(wp.clauses)
	for k := range wp.chains {
		t := &wp.chains[k]
		switch {
		case k >= n && t.n == wp.chains[k-n].n:
			t.ops, t.marks = wp.chains[k-n].ops, wp.chains[k-n].marks
		case len(t.ops) > 1:
			if t.n == 1 {
				t.ops, t.marks = slices.Clone(t.ops), slices.Clone(t.marks)
			}
			end := out[t.next-1] | t.termTemps()
			if t.next == n {
				end = allTemps
			}
			wp.values(t, end, sc)
		}
	}
}

// srcs reports which of u's row fields a and b it reads; a kLaneInterp
// may read any row, and values leaves a tape that holds one alone.
func (u uop) srcs() (a, b bool) {
	switch k := u.kind(); {
	case k == kSplat:
		return false, false
	case k == kAddrTail || k == kLoad:
		return true, false
	case k >= kUV:
		return false, true
	case k >= kVU:
		return true, false
	case k >= kVV:
		return true, aluArity[k-kVV] == 2
	}
	return true, true // kSlow (b is r0 when unary), kAddr, the stores
}

// writes reports a micro-op that writes its d row.
func (u uop) writes() bool {
	switch u.kind() {
	case kStore, kLaneInterp:
		return false
	}
	return true
}

// pure reports a leaf ALU case whose value is a function of its operands
// alone: a splat, a fused address, a kVV, kVU or kUV case.
func pure(k uopKind) bool {
	return k == kSplat || k == kAddr || k == kAddrTail || k >= kVV
}

// vkey is what a pure micro-op computes: its case and payload over the
// value numbers of the rows it reads (-1 for a field it does not read). A
// tail a*s2 + s3 keys its uniform slots as imm s2 and b s3. It has no
// padding, so that a map hashes it as one 16-byte word.
type vkey struct {
	k    uint32 // a uopKind
	imm  uint32
	a, b int32
}

// valueScratch is the working storage of values and reentry, kept from
// chain to chain of one compile and, through scratchPool, from compile to
// compile.
type valueScratch struct {
	ids             map[vkey]int32
	src             [][2]int32
	def, pos        []int32
	need, last, nxt []int
	lastMove        []int
	movable, keep   []bool
	home            []uint8
}

// scratchPool holds the working storage of warpCompile's passes.
var scratchPool = sync.Pool{New: func() any { return &valueScratch{ids: map[vkey]int32{}} }}

// resize returns s with length n and every element zero, reusing its array
// when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// values numbers the values of the chain tape t, whose terminal leaves the
// temporaries in end live, and deletes every pure micro-op whose value a
// row still holds when it runs, renaming its readers to that row. A chain
// runs under one mask, so a row holds a value in every lane a reader
// reads.
//
// A micro-op may go only when its destination is a scratch row or a
// temporary that is not live after the tape: the value it would have left
// there is read through a or b alone, and every such read is renamed. The
// row chosen holds the value until the definition's last reader: a spare
// row reserved that long, or any other row the literal tape does not write
// before then (the rewritten tape writes a row other than a spare only
// where the literal tape does). A kept micro-op whose value is computed
// again, after the literal tape overwrites its destination, writes a free
// spare row instead, reserved until the value's last reader. A kept pure
// micro-op into a row other than a register whose readers all went goes
// too. No register's write moves or goes, so no abort sees one early, and
// a tape with a kLaneInterp, which may read and write any row, is left
// alone.
func (wp *warpProgram) values(t *tape, end tempMask, sc *valueScratch) {
	ops := t.ops
	if slices.ContainsFunc(ops, func(u uop) bool { return u.kind() == kLaneInterp }) {
		return
	}
	n := len(ops)
	// Number the literal tape's values: a row's value on entry is numbered
	// by the row, the j-th value computed in the tape numRows+j. src[i]
	// holds the numbers ops[i] reads through a and b, def[i] the one it
	// writes (-1: none).
	var vn [numRows]int32
	for r := range vn {
		vn[r] = int32(r)
	}
	sc.src, sc.def = resize(sc.src, n), resize(sc.def, n)
	src, def, ids := sc.src, sc.def, sc.ids
	clear(ids)
	next := int32(numRows) // the next new value number
	// number returns the value number of key, a new one when no micro-op
	// computed it before.
	number := func(k uopKind, imm uint32, a, b int32) int32 {
		key := vkey{uint32(k), imm, a, b}
		j, ok := ids[key]
		if !ok {
			j, ids[key] = next, next
			next++
		}
		return j
	}
	for i, u := range ops {
		ra, rb := u.srcs()
		a, b := int32(-1), int32(-1)
		if ra {
			a = vn[u.a()]
		}
		if rb {
			b = vn[u.b()]
		}
		src[i], def[i] = [2]int32{a, b}, -1
		if !u.writes() {
			continue
		}
		switch k := u.kind(); {
		case k == kVV+uopKind(OpMOV):
			def[i] = a
		case k == kAddr:
			// kAddr is the tail of iadd(imul(a, s1), b), numbered as such
			// so that it equals the unfused run of the same address; an s1
			// of 1 multiplies nothing.
			f := wp.addrs[u.imm()]
			m := a
			if f[0] != uvOne {
				m = number(kIMUL, f[0], a, -1)
			}
			s := number(kIADD, 0, min(m, b), max(m, b))
			def[i] = number(kAddrTail, f[1], s, int32(f[2]))
		case k == kAddrTail:
			f := wp.addrs[u.imm()]
			def[i] = number(kAddrTail, f[1], a, int32(f[2]))
		case k == kIADD:
			def[i] = number(k, 0, min(a, b), max(a, b))
		case pure(k):
			def[i] = number(k, u.imm(), a, b)
		default: // a value no micro-op computes again
			def[i] = next
			next++
		}
		vn[u.d()] = def[i]
	}

	// need[v] is the last micro-op that reads value v, nxt[i] the next
	// micro-op after ops[i] to write its row (n: none). A movable
	// definition's value is read through a and b alone, and last[i] is the
	// last micro-op that reads it (i when none does): a backward scan, with
	// read[r] the last micro-op reading row r before its next write, -1 for
	// none.
	sc.need, sc.last, sc.movable = resize(sc.need, int(next)), resize(sc.last, n), resize(sc.movable, n)
	sc.nxt, sc.lastMove = resize(sc.nxt, n), resize(sc.lastMove, int(next))
	need, last, movable, nxt, lastMove := sc.need, sc.last, sc.movable, sc.nxt, sc.lastMove
	for i := range ops {
		for _, v := range src[i] {
			if v >= 0 {
				need[v] = i
			}
		}
	}
	var write, read [numRows]int
	for r := range write {
		write[r], read[r] = n, -1
	}
	for i := n - 1; i >= 0; i-- {
		u := ops[i]
		if u.writes() {
			d := u.d()
			nxt[i], last[i] = write[d], max(i, read[d])
			write[d], read[d] = i, -1
			movable[i] = def[i] >= 0 && pure(u.kind()) && (tempBit(d) != 0 || d == rowScratchA || d == rowScratchB) &&
				(nxt[i] < n || tempBit(d)&end == 0)
		}
		if ra, rb := u.srcs(); ra || rb {
			if ra && read[u.a()] < 0 {
				read[u.a()] = i
			}
			if rb && read[u.b()] < 0 {
				read[u.b()] = i
			}
		}
	}
	// lastMove[v] is the last movable micro-op that computes v (0: none
	// after the first).
	for i := range ops {
		if movable[i] {
			lastMove[def[i]] = i
		}
	}
	// wnext[r] is the next literal write of row r after the micro-op the
	// rewrite is at (n: none).
	var wnext [numRows]int
	copy(wnext[:], write[:])

	// Rewrite the tape in place, keep[i] marking the micro-ops that stay:
	// held[r] is the value number row r holds in the rewritten tape, at[r]
	// the row that holds literal row r's value, busy[s] the last micro-op
	// that reads spare row s.
	var held [numRows]int32
	var at [numRows]uint8
	for r := range held {
		held[r], at[r] = int32(r), uint8(r)
	}
	var busy [numSpare]int
	for s := range busy {
		busy[s] = -1
	}
	sc.keep = resize(sc.keep, n)
	keep := sc.keep
	// home returns a row that holds value v from ops[i] through ops[last],
	// its last reader, and reserves it that long: a spare row, or a row no
	// literal micro-op between writes.
	home := func(v int32, last int) (uint8, bool) {
		for r, h := range held {
			switch {
			case h != v || r == rowStage:
			case r >= rowSpare:
				busy[r-rowSpare] = max(busy[r-rowSpare], last)
				return uint8(r), true
			case wnext[r] >= last:
				return uint8(r), true
			}
		}
		return 0, false
	}
	for i, u := range ops {
		if u.writes() {
			wnext[u.d()] = nxt[i]
		}
		ra, rb := u.srcs()
		a, b, d, v := u.a(), u.b(), u.d(), def[i]
		if ra {
			a = at[a]
		}
		if rb {
			b = at[b]
		}
		if movable[i] {
			if h, ok := home(v, last[i]); ok {
				at[d] = h
				continue
			}
			if need[v] > i && lastMove[v] > i && nxt[i] < need[v] {
				if s := slices.IndexFunc(busy[:], func(b int) bool { return b < i }); s >= 0 {
					busy[s], d = need[v], uint8(rowSpare+s)
				}
			}
		}
		if v >= 0 {
			held[d], at[u.d()] = v, d
		}
		ops[i], keep[i] = mkUop(u.kind(), d, a, b, u.imm()), true
	}

	// A kept pure micro-op whose readers all went is dead: scan back over
	// the rewritten tape with the rows live after each micro-op — the
	// registers, the lane ids and the temporaries in end after the tape.
	var live [numRows]bool
	for r := range live {
		live[r] = r < NumGRF || r >= rowGID && r < rowScratchA || tempBit(uint8(r))&end != 0
	}
	for i := n - 1; i >= 0; i-- {
		u := ops[i]
		if !keep[i] {
			continue
		}
		if u.writes() {
			if d := u.d(); pure(u.kind()) && !live[d] && d >= NumGRF {
				keep[i] = false
				continue
			}
			live[u.d()] = false
		}
		ra, rb := u.srcs()
		live[u.a()] = live[u.a()] || ra
		live[u.b()] = live[u.b()] || rb
	}

	// Compact, each mark moving to the first kept micro-op at or after it.
	sc.pos = resize(sc.pos, n+1)
	pos := sc.pos
	w := 0
	for i := range ops {
		pos[i] = int32(w)
		if keep[i] {
			ops[w] = ops[i]
			w++
		}
	}
	pos[n] = int32(w)
	for k := range t.marks {
		t.marks[k].pos = pos[t.marks[k].pos]
	}
	t.ops = ops[:w:w]
}

// --- Loop-invariant hoisting --------------------------------------------------

// hoist builds a re-entry variant of every chain tape, in either table,
// whose BRC re-enters the clause the tape starts at — its target or its
// fallthrough is its head — and appends it to chains: the tape's again
// names it, and its own again names itself. runWarp runs the variant where
// a terminal re-enters the head with active unchanged, so the tape or its
// variant has just run under the same mask, nothing has run since, and
// every row holds what that trip left. A flat-table chain that shares its
// micro-ops with the heads table's shares its variant.
func (wp *warpProgram) hoist(sc *valueScratch) {
	n := len(wp.clauses)
	for k := 0; k < 2*n; k++ {
		t := &wp.chains[k]
		switch {
		case t.tk != tkBRC || t.tgt != t.head && t.next != t.head:
		case k >= n && t.n == wp.chains[k-n].n: // numberValues shares its micro-ops
			t.again = wp.chains[k-n].again
		default:
			if v, ok := reentry(t, sc); ok {
				t.again, v.again = len(wp.chains), len(wp.chains)
				wp.chains = append(wp.chains, v)
			}
		}
	}
}

// reentry returns t's re-entry variant: t without the micro-ops whose value
// every later trip already finds where its readers read it; ok is false
// when there are none, or t holds a kLaneInterp. It may rename rows of t.
//
// A micro-op is invariant when it is pure and every row it reads holds, at
// that point of the tape, a value the tape never writes or the result of an
// earlier invariant micro-op: it computes the same value on every trip. The
// variant leaves one out under values' abort rule, so that no abort sees a
// register other than the interpreter's:
//   - its destination is a register the tape writes there alone, or a
//     temporary or scratch row the tape writes there alone: every later
//     trip finds the value in it, as the interpreter leaves it;
//   - or its destination is a temporary or scratch row the tape writes
//     again later. When a micro-op the variant keeps reads the value before
//     that write, t writes the value to a hoist row instead, reserved for
//     the whole tape, and its readers up to that write read the hoist row
//     in both tapes; with no hoist row left, the micro-op stays.
//
// The variant's marks are t's, re-based as cut re-bases them: no hoisted
// micro-op can fault, so an abort at a kept one has reached the same marks.
func reentry(t *tape, sc *valueScratch) (v tape, ok bool) {
	ops := t.ops
	if slices.ContainsFunc(ops, func(u uop) bool { return u.kind() == kLaneInterp }) {
		return v, false
	}
	n := len(ops)
	var writes [numRows]int
	for _, u := range ops {
		if u.writes() {
			writes[u.d()]++
		}
	}
	// Forward: keep[i] marks an invariant micro-op, inv[r] a row holding
	// an invariant value.
	sc.keep = resize(sc.keep, n)
	invariant := sc.keep
	var inv [numRows]bool
	for r := range inv {
		inv[r] = writes[r] == 0
	}
	for i, u := range ops {
		if !u.writes() {
			continue
		}
		ra, rb := u.srcs()
		invariant[i] = pure(u.kind()) && (!ra || inv[u.a()]) && (!rb || inv[u.b()])
		inv[u.d()] = invariant[i]
	}
	// Backward, so that every reader is decided before its definition:
	// movable[i] marks a micro-op the variant leaves out, home[i] the
	// hoist row it writes (0: its own destination), nxt[i] the next write
	// of its destination.
	sc.movable, sc.home, sc.nxt = resize(sc.movable, n), resize(sc.home, n), resize(sc.nxt, n)
	hoisted, home, nxt := sc.movable, sc.home, sc.nxt
	var next [numRows]int
	for r := range next {
		next[r] = n
	}
	free := uint8(rowHoist)
	for i := n - 1; i >= 0; i-- {
		u := ops[i]
		if !u.writes() {
			continue
		}
		d := u.d()
		nxt[i] = next[d]
		next[d] = i
		switch {
		case !invariant[i]:
		case writes[d] == 1:
			hoisted[i] = true
		case d < NumGRF || nxt[i] == n: // a register written again, or a row written before only
		case !keptReader(ops, hoisted, i, d):
			hoisted[i] = true
		case free < rowHoist+numHoist:
			hoisted[i], home[i] = true, free
			free++
		}
	}
	if !slices.Contains(hoisted, true) {
		return v, false
	}
	// Rename in t, then copy what the variant keeps.
	for i, h := range home {
		if h == 0 {
			continue
		}
		u := ops[i]
		ops[i] = mkUop(u.kind(), h, u.a(), u.b(), u.imm())
		for j := i + 1; j <= nxt[i]; j++ {
			ops[j] = rename(ops[j], u.d(), h)
		}
	}
	v = *t
	v.ops = make([]uop, 0, n)
	sc.pos = resize(sc.pos, n+1)
	for i, u := range ops {
		sc.pos[i] = int32(len(v.ops))
		if !hoisted[i] {
			v.ops = append(v.ops, u)
		}
	}
	sc.pos[n] = int32(len(v.ops))
	v.marks = slices.Clone(t.marks)
	for k := range v.marks {
		v.marks[k].pos = sc.pos[v.marks[k].pos]
	}
	return v, true
}

// keptReader reports whether a micro-op the variant keeps reads ops[i]'s
// value: reads row d after ops[i], up to and including its next write.
func keptReader(ops []uop, hoisted []bool, i int, d uint8) bool {
	for j := i + 1; j < len(ops); j++ {
		if reads(ops[j], d) && !hoisted[j] {
			return true
		}
		if ops[j].writes() && ops[j].d() == d {
			return false
		}
	}
	return false
}

// reads reports whether u reads row r through a or b.
func reads(u uop, r uint8) bool {
	ra, rb := u.srcs()
	return ra && u.a() == r || rb && u.b() == r
}

// rename returns u reading row to where it reads from.
func rename(u uop, from, to uint8) uop {
	a, b := u.a(), u.b()
	ra, rb := u.srcs()
	if ra && a == from {
		a = to
	}
	if rb && b == from {
		b = to
	}
	return mkUop(u.kind(), u.d(), a, b, u.imm())
}

// --- Branch compares -----------------------------------------------------------

// branchCompares hands the last micro-op of a chain tape to its BRC when it
// is the icmplt the BRC tests, into a temporary nothing reads after the
// terminal: runWarp evaluates the compare there (lessLanes), and no row
// holds its result. A counted loop's i < n so costs no micro-op per trip.
// The compare's counters stay in the marks, and it cannot fault, so an
// abort before it finds every row the interpreter leaves; a mark behind it
// now sits at the tape's end, which only a completed entry reaches. A loop
// whose re-entry variant leaves the compare out reads its row there, so
// the tape keeps it. The micro-ops are resliced, not rewritten: a chain may
// share them with a clause tape or the other table.
func (wp *warpProgram) branchCompares(out []tempMask) {
	n := len(wp.clauses)
	for k := range wp.chains {
		t := &wp.chains[k]
		if !t.lessTest(out, n) || t.again != 0 && !wp.chains[t.again].lessTest(out, n) {
			continue
		}
		last := len(t.ops) - 1
		t.cmp, t.ops = t.ops[last], t.ops[:last:last]
	}
}

// lessTest reports whether t ends in an icmplt into the temporary its BRC
// tests, that no clause reads after the terminal.
func (t *tape) lessTest(out []tempMask, n int) bool {
	if t.tk != tkBRC || !t.pred.vec || t.next == n || len(t.ops) == 0 {
		return false
	}
	switch u := t.ops[len(t.ops)-1]; u.kind() {
	case kVV + uopKind(OpICMPLT), kVU + uopKind(OpICMPLT), kUV + uopKind(OpICMPLT):
		return u.d() == t.pred.row && tempBit(u.d())&^out[t.next-1] != 0
	}
	return false
}
