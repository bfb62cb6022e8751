package gpu

import (
	"encoding/binary"
	"fmt"
)

// Binary program format. The compiler serialises shader programs into this
// layout; the runtime places the bytes in shared CPU/GPU memory and the
// GPU fetches and decodes them through its MMU, exactly as hardware
// consumes a Mali binary.
//
//	u32 magic 'BFR1'
//	u32 clauseCount
//	u32 regCount      GRF registers used (compiler report)
//	u32 uniformCount  constant-port slots consumed (argument words)
//	u32 romCount      embedded 64-bit constants
//	u32 flags         reserved
//	u64 romData[romCount]
//	per clause:
//	  u32 header: bits[7:0] instruction slots (1..16)
//	  u64 words[slots]
const binaryMagic = 0x31524642 // "BFR1"

// Clause is a decoded instruction bundle: up to MaxTuples tuples (2 slots
// each) that execute unconditionally once entered.
type Clause struct {
	Instrs []Instr
	// Addr is the clause's byte offset within the binary, used as the
	// block address in divergence CFGs (Fig 6 shows these addresses).
	Addr uint64
}

// Slots returns the number of instruction slots in the clause.
func (c *Clause) Slots() int { return len(c.Instrs) }

// Tuples returns the number of issue tuples (pairs of slots, rounded up).
// Static "arithmetic cycles" in compiler reports count tuples.
func (c *Clause) Tuples() int { return (len(c.Instrs) + 1) / 2 }

// Program is a fully decoded shader.
type Program struct {
	Clauses  []Clause
	ROM      []uint64
	RegCount int
	Uniforms int

	// regRows is how many rows of a warp's register file, from r0 up, the
	// instructions can name: one past the highest general-purpose register
	// any decoded operand byte references. ParseBinary computes it; it is
	// what a workgroup's register reset trusts, where RegCount is only the
	// compiler's report (a claim guest assembly can get wrong).
	regRows int
	// idRows has bit i set when an operand names lane-id row rowGID+i (gid.x
	// to lid.z): the ones a workgroup writes into its warps.
	idRows uint8

	// warp holds the lazily built warp-engine tapes, compiled at most
	// once per decoded program, under the owning ProgramCache's lock when
	// the program is shared across sessions (see engine.go).
	warp *warpProgram
}

// MaxTuples is the architectural clause limit in tuples.
const MaxTuples = 8

// Serialize encodes the program into the binary wire format.
func Serialize(p *Program) ([]byte, error) {
	for i, c := range p.Clauses {
		if len(c.Instrs) == 0 || len(c.Instrs) > MaxClauseSlotsBinary {
			return nil, fmt.Errorf("gpu: clause %d has %d slots (1..%d allowed)", i, len(c.Instrs), MaxClauseSlotsBinary)
		}
	}
	size := 24 + 8*len(p.ROM)
	for _, c := range p.Clauses {
		size += 4 + 8*len(c.Instrs)
	}
	out := make([]byte, 0, size)
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		out = append(out, b[:]...)
	}
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		out = append(out, b[:]...)
	}
	u32(binaryMagic)
	u32(uint32(len(p.Clauses)))
	u32(uint32(p.RegCount))
	u32(uint32(p.Uniforms))
	u32(uint32(len(p.ROM)))
	u32(0)
	for _, r := range p.ROM {
		u64(r)
	}
	for _, c := range p.Clauses {
		u32(uint32(len(c.Instrs)))
		for _, in := range c.Instrs {
			u64(in.Pack())
		}
	}
	return out, nil
}

// MaxClauseSlotsBinary is the instruction-slot limit per clause.
const MaxClauseSlotsBinary = MaxTuples * 2

// ParseBinary decodes a serialized shader. This is the GPU-side decode
// phase; the program cache keeps its results so each program is decoded
// once per process (§III-B3).
func ParseBinary(b []byte) (*Program, error) {
	if len(b) < 24 {
		return nil, fmt.Errorf("gpu: binary too short (%d bytes)", len(b))
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
	if u32(0) != binaryMagic {
		return nil, fmt.Errorf("gpu: bad binary magic %#x", u32(0))
	}
	clauseCount := int(u32(4))
	regCount := int(u32(8))
	uniforms := int(u32(12))
	romCount := int(u32(16))
	if regCount > NumGRF || uniforms > NumUniforms {
		return nil, fmt.Errorf("gpu: binary declares %d registers and %d uniforms (at most %d and %d)", regCount, uniforms, NumGRF, NumUniforms)
	}
	off := 24
	if len(b) < off+8*romCount {
		return nil, fmt.Errorf("gpu: truncated ROM table")
	}
	p := &Program{RegCount: regCount, Uniforms: uniforms}
	for i := 0; i < romCount; i++ {
		p.ROM = append(p.ROM, binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	for i := 0; i < clauseCount; i++ {
		if len(b) < off+4 {
			return nil, fmt.Errorf("gpu: truncated clause header %d", i)
		}
		slots := int(u32(off) & 0xFF)
		addr := uint64(off)
		off += 4
		if slots == 0 || slots > MaxClauseSlotsBinary {
			return nil, fmt.Errorf("gpu: clause %d has invalid slot count %d", i, slots)
		}
		if len(b) < off+8*slots {
			return nil, fmt.Errorf("gpu: truncated clause body %d", i)
		}
		c := Clause{Addr: addr, Instrs: make([]Instr, slots)}
		for j := 0; j < slots; j++ {
			c.Instrs[j] = Unpack(binary.LittleEndian.Uint64(b[off:]))
			off += 8
		}
		p.Clauses = append(p.Clauses, c)
	}
	if off != len(b) {
		return nil, fmt.Errorf("gpu: %d trailing bytes in binary", len(b)-off)
	}
	// Validate branch targets so execution cannot escape the program, and
	// clause-temporary indices so a register operand cannot escape its file.
	for i, c := range p.Clauses {
		for _, in := range c.Instrs {
			for _, o := range [...]uint8{in.Dst, in.A, in.B} {
				switch kind, idx := OperKind(o); {
				case kind == OperTemp && idx >= NumTemp:
					return nil, fmt.Errorf("gpu: clause %d uses missing clause temporary t%d", i, idx)
				case kind == OperGRF:
					p.regRows = max(p.regRows, int(idx)+1)
				case kind == OperSpecial && idx >= SpecGIDX && idx <= SpecLIDZ:
					p.idRows |= 1 << (idx - SpecGIDX)
				}
			}
			switch in.Op {
			case OpBR:
				if in.BranchTarget() >= len(p.Clauses) {
					return nil, fmt.Errorf("gpu: clause %d branches to missing clause %d", i, in.BranchTarget())
				}
			case OpBRC:
				if in.BranchTarget() >= len(p.Clauses) || in.Reconverge() > len(p.Clauses) {
					return nil, fmt.Errorf("gpu: clause %d conditional branch out of range", i)
				}
			}
		}
	}
	return p, nil
}

// Disassemble renders the whole program, one clause per block.
func (p *Program) Disassemble() string {
	s := fmt.Sprintf("; %d clauses, %d GRF, %d uniforms, %d ROM words\n",
		len(p.Clauses), p.RegCount, p.Uniforms, len(p.ROM))
	for i, c := range p.Clauses {
		s += fmt.Sprintf("clause %d (@%#x, %d slots):\n", i, c.Addr, c.Slots())
		for _, in := range c.Instrs {
			s += "    " + in.String() + "\n"
		}
	}
	return s
}

// StaticCounts reports the compiler-visible static metrics used by the
// offline report (Fig 1): arithmetic/LS cycles and instruction counts.
// Address-generation ops (ADD64/MUL64) issue on the LS path, so they count
// toward LS cycles; hazard NOPs occupy arithmetic issue slots.
func (p *Program) StaticCounts() (arithCycles, arithInstrs, lsCycles, lsInstrs int) {
	for _, c := range p.Clauses {
		hasIssue := false
		for _, in := range c.Instrs {
			switch Classify(in.Op) {
			case ClassArith:
				arithInstrs++
				hasIssue = true
				if in.Op == OpADD64 || in.Op == OpMUL64 {
					lsCycles++
				}
			case ClassLS:
				lsInstrs++
				lsCycles++ // one LS-pipe issue per memory instruction
			case ClassNop:
				hasIssue = true // padding occupies issue slots
			}
		}
		if hasIssue {
			arithCycles += c.Tuples()
		}
	}
	return
}
