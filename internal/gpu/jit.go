package gpu

import (
	"math"

	"mobilesim/internal/mem"
)

// JIT-compiled shader execution — the paper's stated future work
// ("JIT-compiled execution of GPU code", §VII-A), in the spirit of the
// authors' partial-evaluation work on DBT simulators [20]: at decode time
// each ALU instruction is specialised into a closure with its operand
// accessors pre-resolved, so the hot execution loop pays neither the
// opcode switch nor the operand-kind decoding. Load/store instructions
// compile to closures that capture the walker's combined
// translate-and-access fast path (TLB-cached host page views), so the
// memory-bound hot loop skips both the interpreter switch and the
// general translate + bus machinery. Control-flow and special-cased
// instructions (FMA/SEL accumulator forms) fall back to the interpreter.
//
// Enabled per device with Config.JITClauses; validated by the same
// differential suites as the interpreter.

// jitOp executes one pre-specialised instruction for one lane.
type jitOp func(e *execContext, w *warp, lane int) error

// jitProgram mirrors Program.Clauses with a closure (or nil) per slot.
type jitProgram struct {
	clauses [][]jitOp
}

// readFn fetches one source operand for a lane, bumping the data-access
// counters exactly as the interpreter does.
type readFn func(e *execContext, w *warp, lane int) uint64

//simlint:commit -- compiled closures carry the interpreter's read counters
func compileReader(o uint8, imm uint32, prog *Program) readFn {
	kind, idx := OperKind(o)
	switch kind {
	case OperGRF:
		i := int(idx)
		return func(e *execContext, w *warp, lane int) uint64 {
			e.gs.GRFRead++
			return w.rows[i][lane]
		}
	case OperTemp:
		i := int(idx)
		return func(e *execContext, w *warp, lane int) uint64 {
			e.gs.TempAcc++
			return w.rows[NumGRF+i][lane]
		}
	case OperUniform:
		i := int(idx)
		return func(e *execContext, w *warp, lane int) uint64 {
			e.gs.ConstRead++
			if i < len(e.uniforms) {
				return e.uniforms[i]
			}
			return 0
		}
	default:
		switch idx {
		case SpecImm:
			v := uint64(imm)
			return func(e *execContext, w *warp, lane int) uint64 {
				e.gs.ROMRead++
				return v
			}
		case SpecROM:
			// Resolve the ROM value at compile time: the table is
			// immutable per program.
			var v uint64
			if int(imm) < len(prog.ROM) {
				v = prog.ROM[imm]
			}
			return func(e *execContext, w *warp, lane int) uint64 {
				e.gs.ROMRead++
				return v
			}
		case SpecZero:
			return func(*execContext, *warp, int) uint64 { return 0 }
		case SpecGIDX, SpecGIDY, SpecGIDZ:
			row := rowGID + int(idx-SpecGIDX)
			return func(e *execContext, w *warp, lane int) uint64 { return w.rows[row][lane] }
		case SpecLIDX, SpecLIDY, SpecLIDZ:
			row := rowLID + int(idx-SpecLIDX)
			return func(e *execContext, w *warp, lane int) uint64 { return w.rows[row][lane] }
		case SpecWGIDX, SpecWGIDY, SpecWGIDZ:
			d := int(idx - SpecWGIDX)
			return func(e *execContext, w *warp, lane int) uint64 { return uint64(e.wgid[d]) }
		case SpecGSZX, SpecGSZY, SpecGSZZ:
			d := int(idx - SpecGSZX)
			return func(e *execContext, w *warp, lane int) uint64 { return uint64(e.gsz[d]) }
		case SpecLSZX, SpecLSZY, SpecLSZZ:
			d := int(idx - SpecLSZX)
			return func(e *execContext, w *warp, lane int) uint64 { return uint64(e.lsz[d]) }
		}
		return func(*execContext, *warp, int) uint64 { return 0 }
	}
}

// writeFn stores a result operand for a lane.
type writeFn func(e *execContext, w *warp, lane int, v uint64)

//simlint:commit -- compiled closures carry the interpreter's write counters
func compileWriter(o uint8) writeFn {
	kind, idx := OperKind(o)
	switch kind {
	case OperGRF:
		i := int(idx)
		return func(e *execContext, w *warp, lane int, v uint64) {
			e.gs.GRFWrite++
			w.rows[i][lane] = v
		}
	case OperTemp:
		i := int(idx)
		return func(e *execContext, w *warp, lane int, v uint64) {
			e.gs.TempAcc++
			w.rows[NumGRF+i][lane] = v
		}
	default:
		return func(*execContext, *warp, int, uint64) {}
	}
}

// binFns maps two-source ALU opcodes to their value functions.
var binFns = map[Opcode]func(a, b uint64) uint64{
	OpIADD:   func(a, b uint64) uint64 { return uint64(uint32(a) + uint32(b)) },
	OpISUB:   func(a, b uint64) uint64 { return uint64(uint32(a) - uint32(b)) },
	OpIMUL:   func(a, b uint64) uint64 { return uint64(uint32(a) * uint32(b)) },
	OpSHL:    func(a, b uint64) uint64 { return uint64(uint32(a) << (uint32(b) & 31)) },
	OpSHR:    func(a, b uint64) uint64 { return uint64(uint32(a) >> (uint32(b) & 31)) },
	OpSAR:    func(a, b uint64) uint64 { return uint64(uint32(int32(a) >> (uint32(b) & 31))) },
	OpAND:    func(a, b uint64) uint64 { return a & b },
	OpOR:     func(a, b uint64) uint64 { return a | b },
	OpXOR:    func(a, b uint64) uint64 { return a ^ b },
	OpADD64:  func(a, b uint64) uint64 { return a + b },
	OpMUL64:  func(a, b uint64) uint64 { return a * b },
	OpFADD:   func(a, b uint64) uint64 { return fbits(f32(a) + f32(b)) },
	OpFSUB:   func(a, b uint64) uint64 { return fbits(f32(a) - f32(b)) },
	OpFMUL:   func(a, b uint64) uint64 { return fbits(f32(a) * f32(b)) },
	OpFDIV:   func(a, b uint64) uint64 { return fbits(f32(a) / f32(b)) },
	OpICMPEQ: func(a, b uint64) uint64 { return b2u(uint32(a) == uint32(b)) },
	OpICMPNE: func(a, b uint64) uint64 { return b2u(uint32(a) != uint32(b)) },
	OpICMPLT: func(a, b uint64) uint64 { return b2u(int32(a) < int32(b)) },
	OpICMPLE: func(a, b uint64) uint64 { return b2u(int32(a) <= int32(b)) },
	OpUCMPLT: func(a, b uint64) uint64 { return b2u(uint32(a) < uint32(b)) },
	OpFCMPEQ: func(a, b uint64) uint64 { return b2u(f32(a) == f32(b)) },
	OpFCMPLT: func(a, b uint64) uint64 { return b2u(f32(a) < f32(b)) },
	OpFCMPLE: func(a, b uint64) uint64 { return b2u(f32(a) <= f32(b)) },
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
	OpIMIN: func(a, b uint64) uint64 {
		if int32(a) < int32(b) {
			return uint64(uint32(a))
		}
		return uint64(uint32(b))
	},
	OpIMAX: func(a, b uint64) uint64 {
		if int32(a) > int32(b) {
			return uint64(uint32(a))
		}
		return uint64(uint32(b))
	},
	OpFMIN: func(a, b uint64) uint64 {
		return fbits(float32(math.Min(float64(f32(a)), float64(f32(b)))))
	},
	OpFMAX: func(a, b uint64) uint64 {
		return fbits(float32(math.Max(float64(f32(a)), float64(f32(b)))))
	},
}

// unFns maps one-source ALU opcodes to their value functions.
var unFns = map[Opcode]func(a uint64) uint64{
	OpMOV:    func(a uint64) uint64 { return a },
	OpI2F:    func(a uint64) uint64 { return fbits(float32(int32(a))) },
	OpF2I:    func(a uint64) uint64 { return uint64(uint32(int32(f32(a)))) },
	OpFABS:   func(a uint64) uint64 { return fbits(float32(math.Abs(float64(f32(a))))) },
	OpFNEG:   func(a uint64) uint64 { return fbits(-f32(a)) },
	OpFSQRT:  func(a uint64) uint64 { return fbits(float32(math.Sqrt(float64(f32(a))))) },
	OpFEXP:   func(a uint64) uint64 { return fbits(float32(math.Exp(float64(f32(a))))) },
	OpFLOG:   func(a uint64) uint64 { return fbits(float32(math.Log(float64(f32(a))))) },
	OpFSIN:   func(a uint64) uint64 { return fbits(float32(math.Sin(float64(f32(a))))) },
	OpFCOS:   func(a uint64) uint64 { return fbits(float32(math.Cos(float64(f32(a))))) },
	OpFFLOOR: func(a uint64) uint64 { return fbits(float32(math.Floor(float64(f32(a))))) },
}

// compileMem specialises a load/store instruction into a closure over the
// walker fast path, or returns nil for non-memory opcodes. The closures
// bump the same Fig 12 counters as the interpreter path in exec.go.
//
//simlint:commit -- compiled closures carry the interpreter's memory counters
func compileMem(in *Instr, p *Program) jitOp {
	imm := uint64(int64(int32(in.Imm)))
	switch in.Op {
	case OpLDG, OpLDG64, OpLDGB:
		size := 4
		switch in.Op {
		case OpLDG64:
			size = 8
		case OpLDGB:
			size = 1
		}
		ra := compileReader(in.A, in.Imm, p)
		wr := compileWriter(in.Dst)
		return func(e *execContext, w *warp, lane int) error {
			e.gs.GlobalLS++
			e.gs.MainMemAcc++
			v, err := e.walker.Load(ra(e, w, lane)+imm, size, mem.Read)
			if err != nil {
				return err
			}
			wr(e, w, lane, v)
			return nil
		}

	case OpSTG, OpSTG64, OpSTGB:
		size := 4
		switch in.Op {
		case OpSTG64:
			size = 8
		case OpSTGB:
			size = 1
		}
		ra := compileReader(in.A, in.Imm, p)
		rb := compileReader(in.B, in.Imm, p)
		return func(e *execContext, w *warp, lane int) error {
			addr := ra(e, w, lane) + imm
			v := rb(e, w, lane)
			e.gs.GlobalLS++
			e.gs.MainMemAcc++
			return e.walker.Store(addr, size, v)
		}

	case OpLDL:
		ra := compileReader(in.A, in.Imm, p)
		wr := compileWriter(in.Dst)
		return func(e *execContext, w *warp, lane int) error {
			e.gs.LocalLS++
			e.gs.LocalAcc++
			v, err := e.local.load(ra(e, w, lane) + imm)
			if err != nil {
				return err
			}
			wr(e, w, lane, uint64(v))
			return nil
		}

	case OpSTL:
		ra := compileReader(in.A, in.Imm, p)
		rb := compileReader(in.B, in.Imm, p)
		return func(e *execContext, w *warp, lane int) error {
			off := ra(e, w, lane) + imm
			v := rb(e, w, lane)
			e.gs.LocalLS++
			e.gs.LocalAcc++
			return e.local.store(off, uint32(v))
		}
	}
	return nil
}

// jitCompile specialises all JIT-able instructions of a program. Slots
// holding control-flow, FMA/SEL (accumulator forms) or NOPs stay nil and
// take the interpreter path.
func jitCompile(p *Program) *jitProgram {
	jp := &jitProgram{clauses: make([][]jitOp, len(p.Clauses))}
	for ci := range p.Clauses {
		c := &p.Clauses[ci]
		ops := make([]jitOp, len(c.Instrs))
		for ii := range c.Instrs {
			in := &c.Instrs[ii]
			if op := compileMem(in, p); op != nil {
				ops[ii] = op
				continue
			}
			if bf, ok := binFns[in.Op]; ok {
				ra := compileReader(in.A, in.Imm, p)
				rb := compileReader(in.B, in.Imm, p)
				wr := compileWriter(in.Dst)
				f := bf
				ops[ii] = func(e *execContext, w *warp, lane int) error {
					wr(e, w, lane, f(ra(e, w, lane), rb(e, w, lane)))
					return nil
				}
				continue
			}
			if uf, ok := unFns[in.Op]; ok {
				ra := compileReader(in.A, in.Imm, p)
				wr := compileWriter(in.Dst)
				f := uf
				ops[ii] = func(e *execContext, w *warp, lane int) error {
					wr(e, w, lane, f(ra(e, w, lane)))
					return nil
				}
				continue
			}
		}
		jp.clauses[ci] = ops
	}
	return jp
}
