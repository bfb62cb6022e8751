package clc

import (
	"fmt"

	"mobilesim/internal/gpu"
)

// OpdKind classifies IR operands.
type OpdKind int

// IR operand kinds.
const (
	OpdNone    OpdKind = iota
	OpdVReg            // virtual register
	OpdUniform         // kernel argument slot
	OpdSpecial         // lane/group identifier (gpu.Spec*)
	OpdImm             // 32-bit immediate (int value or float bits)
	OpdROM             // embedded constant table entry
)

// Opd is one IR operand.
type Opd struct {
	Kind OpdKind
	ID   int    // vreg id / uniform slot / special index / ROM index
	Imm  uint32 // immediate payload for OpdImm
}

func vr(id int) Opd        { return Opd{Kind: OpdVReg, ID: id} }
func uni(slot int) Opd     { return Opd{Kind: OpdUniform, ID: slot} }
func special(s uint8) Opd  { return Opd{Kind: OpdSpecial, ID: int(s)} }
func immOpd(v uint32) Opd  { return Opd{Kind: OpdImm, Imm: v} }
func romOpd(idx int) Opd   { return Opd{Kind: OpdROM, ID: idx} }
func (o Opd) isImm() bool  { return o.Kind == OpdImm }
func (o Opd) isVReg() bool { return o.Kind == OpdVReg }

func (o Opd) String() string {
	switch o.Kind {
	case OpdVReg:
		return fmt.Sprintf("v%d", o.ID)
	case OpdUniform:
		return fmt.Sprintf("c%d", o.ID)
	case OpdSpecial:
		return gpu.OperString(gpu.S(uint8(o.ID)))
	case OpdImm:
		return fmt.Sprintf("#%#x", o.Imm)
	case OpdROM:
		return fmt.Sprintf("rom%d", o.ID)
	}
	return "<none>"
}

// IRInst is one IR instruction: a GPU opcode over virtual operands. For
// memory operations MemOff is the folded constant byte offset.
type IRInst struct {
	Op     gpu.Opcode
	Dst    int // defined vreg, or -1
	A, B   Opd
	MemOff int32
}

func (in IRInst) String() string {
	s := in.Op.String()
	if in.Dst >= 0 {
		s += fmt.Sprintf(" v%d,", in.Dst)
	}
	s += " " + in.A.String()
	if in.B.Kind != OpdNone {
		s += ", " + in.B.String()
	}
	if in.MemOff != 0 {
		s += fmt.Sprintf(" +%d", in.MemOff)
	}
	return s
}

// TermKind is a basic block terminator.
type TermKind int

// Block terminators. TermFall and TermBarrier continue into the next block
// in layout order; TermBrc falls through to the next block when the
// condition is zero.
const (
	TermFall TermKind = iota
	TermBr
	TermBrc
	TermRet
	TermBarrier
)

// Block is an IR basic block. Blocks are laid out in execution order;
// fallthrough successors are always the next block.
type Block struct {
	ID     int
	Insts  []IRInst
	Term   TermKind
	Cond   Opd // for TermBrc
	Target int // block id for TermBr/TermBrc
}

// Fn is a lowered kernel body.
type Fn struct {
	Name       string
	Params     []Param
	Blocks     []*Block
	NumVRegs   int
	ROM        []uint64
	LocalBytes uint32
}

// succs returns the CFG successors of block i (indices into Blocks).
func (f *Fn) succs(i int) []int {
	b := f.Blocks[i]
	switch b.Term {
	case TermRet:
		return nil
	case TermBr:
		return []int{b.Target}
	case TermBrc:
		if i+1 < len(f.Blocks) {
			return []int{b.Target, i + 1}
		}
		return []int{b.Target}
	default: // fall, barrier
		if i+1 < len(f.Blocks) {
			return []int{i + 1}
		}
		return nil
	}
}

// postDominators computes the immediate post-dominator block index for
// every block, using the standard iterative set algorithm over the reverse
// CFG with a virtual exit. Blocks whose only path is to exit get -1
// (reconvergence "one past the end").
func (f *Fn) postDominators() []int {
	n := len(f.Blocks)
	const exit = -1
	// pdom[i] = set of post-dominators, represented as bitsets over n+1
	// (index n = virtual exit).
	words := (n + 1 + 63) / 64
	full := make([]uint64, words)
	for i := 0; i <= n; i++ {
		full[i/64] |= 1 << uint(i%64)
	}
	pdom := make([][]uint64, n)
	for i := range pdom {
		pdom[i] = append([]uint64(nil), full...)
	}
	bit := func(set []uint64, i int) bool { return set[i/64]&(1<<uint(i%64)) != 0 }
	setBit := func(set []uint64, i int) { set[i/64] |= 1 << uint(i%64) }

	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			var inter []uint64
			succ := f.succs(i)
			if len(succ) == 0 {
				inter = make([]uint64, words)
				setBit(inter, n) // exit only
			} else {
				inter = append([]uint64(nil), full...)
				for _, s := range succ {
					for w := range inter {
						inter[w] &= pdom[s][w]
					}
				}
			}
			setBit(inter, i)
			same := true
			for w := range inter {
				if inter[w] != pdom[i][w] {
					same = false
					break
				}
			}
			if !same {
				pdom[i] = inter
				changed = true
			}
		}
	}

	// Immediate post-dominator: the strict post-dominator closest in
	// layout order after i that post-dominates i and is post-dominated by
	// all other strict post-dominators. With reducible layouts the
	// earliest strict post-dominator in layout order works: pick the
	// strict pdom j minimising the size of pdom[j] (the "deepest").
	ipdom := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestSize := exit, -1
		for j := 0; j < n; j++ {
			if j == i || !bit(pdom[i], j) {
				continue
			}
			size := 0
			for w := range pdom[j] {
				size += popcount(pdom[j][w])
			}
			if size > bestSize {
				best, bestSize = j, size
			}
		}
		ipdom[i] = best
	}
	return ipdom
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
