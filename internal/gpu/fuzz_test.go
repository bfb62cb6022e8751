package gpu_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mobilesim/internal/gpu"
	"mobilesim/internal/workloads"
)

// The paper validates its shader-core model against Arm's reference
// simulator with "fuzzing techniques for rigorous instruction testing,
// covering an extensive range of inputs" (§V-A2). These tests are that
// campaign: for every ALU opcode, random operands are pushed through a
// one-instruction shader program and checked against an independently
// written Go reference.

type refFn func(a, b uint32) uint64

func f32ref(f func(a, b float32) float32) refFn {
	return func(a, b uint32) uint64 {
		return uint64(math.Float32bits(f(math.Float32frombits(a), math.Float32frombits(b))))
	}
}

func i32ref(f func(a, b int32) int32) refFn {
	return func(a, b uint32) uint64 { return uint64(uint32(f(int32(a), int32(b)))) }
}

func boolref(f func(a, b uint32) bool) refFn {
	return func(a, b uint32) uint64 {
		if f(a, b) {
			return 1
		}
		return 0
	}
}

var aluRefs = map[gpu.Opcode]refFn{
	gpu.OpIADD: i32ref(func(a, b int32) int32 { return a + b }),
	gpu.OpISUB: i32ref(func(a, b int32) int32 { return a - b }),
	gpu.OpIMUL: i32ref(func(a, b int32) int32 { return a * b }),
	gpu.OpIDIV: i32ref(func(a, b int32) int32 {
		if b == 0 {
			return 0
		}
		if a == math.MinInt32 && b == -1 {
			return a
		}
		return a / b
	}),
	gpu.OpIMOD: i32ref(func(a, b int32) int32 {
		if b == 0 || (a == math.MinInt32 && b == -1) {
			return 0
		}
		return a % b
	}),
	gpu.OpSHL: func(a, b uint32) uint64 { return uint64(a << (b & 31)) },
	gpu.OpSHR: func(a, b uint32) uint64 { return uint64(a >> (b & 31)) },
	gpu.OpSAR: i32ref(func(a, b int32) int32 { return a >> (uint32(b) & 31) }),
	gpu.OpIMIN: i32ref(func(a, b int32) int32 {
		if a < b {
			return a
		}
		return b
	}),
	gpu.OpIMAX: i32ref(func(a, b int32) int32 {
		if a > b {
			return a
		}
		return b
	}),
	gpu.OpFADD: f32ref(func(a, b float32) float32 { return a + b }),
	gpu.OpFSUB: f32ref(func(a, b float32) float32 { return a - b }),
	gpu.OpFMUL: f32ref(func(a, b float32) float32 { return a * b }),
	gpu.OpFDIV: f32ref(func(a, b float32) float32 { return a / b }),
	gpu.OpFMIN: f32ref(func(a, b float32) float32 {
		return float32(math.Min(float64(a), float64(b)))
	}),
	gpu.OpFMAX: f32ref(func(a, b float32) float32 {
		return float32(math.Max(float64(a), float64(b)))
	}),
	gpu.OpICMPEQ: boolref(func(a, b uint32) bool { return a == b }),
	gpu.OpICMPNE: boolref(func(a, b uint32) bool { return a != b }),
	gpu.OpICMPLT: boolref(func(a, b uint32) bool { return int32(a) < int32(b) }),
	gpu.OpICMPLE: boolref(func(a, b uint32) bool { return int32(a) <= int32(b) }),
	gpu.OpUCMPLT: boolref(func(a, b uint32) bool { return a < b }),
	gpu.OpFCMPEQ: boolref(func(a, b uint32) bool {
		return math.Float32frombits(a) == math.Float32frombits(b)
	}),
	gpu.OpFCMPLT: boolref(func(a, b uint32) bool {
		return math.Float32frombits(a) < math.Float32frombits(b)
	}),
	gpu.OpFCMPLE: boolref(func(a, b uint32) bool {
		return math.Float32frombits(a) <= math.Float32frombits(b)
	}),
	gpu.OpAND: func(a, b uint32) uint64 { return uint64(a) & uint64(b) },
	gpu.OpOR:  func(a, b uint32) uint64 { return uint64(a) | uint64(b) },
	gpu.OpXOR: func(a, b uint32) uint64 { return uint64(a) ^ uint64(b) },
}

// aluProgram builds: load a, load b, OP, store result.
// Uniforms: c0 = &a, c1 = &b, c2 = &out. One thread.
func aluProgram(op gpu.Opcode) *gpu.Program {
	return &gpu.Program{
		RegCount: 3,
		Uniforms: 3,
		Clauses: []gpu.Clause{{Instrs: []gpu.Instr{
			{Op: gpu.OpLDG, Dst: gpu.R(0), A: gpu.C(0)},
			{Op: gpu.OpLDG, Dst: gpu.R(1), A: gpu.C(1)},
			{Op: op, Dst: gpu.R(2), A: gpu.R(0), B: gpu.R(1)},
			{Op: gpu.OpSTG64, A: gpu.C(2), B: gpu.R(2)},
			{Op: gpu.OpRET},
		}}},
	}
}

func TestFuzzALUOpsAgainstReference(t *testing.T) {
	r := newRig(t, gpu.DefaultConfig())
	aBuf, bBuf, outBuf := r.allocBuf(8), r.allocBuf(8), r.allocBuf(8)

	// Interesting corner values plus random ones.
	corners := []uint32{0, 1, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF,
		math.Float32bits(0), math.Float32bits(1), math.Float32bits(-1),
		math.Float32bits(float32(math.Inf(1))),
		math.Float32bits(1e-38), math.Float32bits(3.5)}
	rnd := rand.New(rand.NewSource(42))

	for op, ref := range aluRefs {
		progVA, progSize := r.loadProgram(aluProgram(op))
		check := func(a, b uint32) {
			if err := r.bus.Write(aBuf, 4, uint64(a)); err != nil {
				t.Fatal(err)
			}
			if err := r.bus.Write(bBuf, 4, uint64(b)); err != nil {
				t.Fatal(err)
			}
			raw := r.submit(&gpu.JobDescriptor{
				JobType:    gpu.JobTypeCompute,
				GlobalSize: [3]uint32{1, 1, 1},
				LocalSize:  [3]uint32{1, 1, 1},
				ShaderVA:   progVA,
				ShaderSize: progSize,
			}, []uint64{aBuf, bBuf, outBuf})
			if raw&gpu.IRQJobDone == 0 {
				t.Fatalf("%v: fault rawstat=%#x", op, raw)
			}
			got, err := r.bus.Read(outBuf, 8)
			if err != nil {
				t.Fatal(err)
			}
			want := ref(a, b)
			// NaN payloads may differ legitimately for float ops.
			if got != want && !(bothNaN32(uint32(got), uint32(want))) {
				t.Errorf("%v(%#x, %#x) = %#x, want %#x", op, a, b, got, want)
			}
		}
		for _, a := range corners {
			for _, b := range corners {
				check(a, b)
			}
		}
		for i := 0; i < 30; i++ {
			check(rnd.Uint32(), rnd.Uint32())
		}
	}
}

func bothNaN32(a, b uint32) bool {
	fa, fb := math.Float32frombits(a), math.Float32frombits(b)
	return fa != fa && fb != fb
}

// FuzzGPUParseBinary: the GPU decodes the shader bytes it reads from guest
// memory at a job descriptor's ShaderVA, so they cross a trust boundary.
// For any bytes ParseBinary returns a program or an error; a program it
// accepts survives Serialize and ParseBinary unchanged and compiles for the
// warp engine. The seeds are the binaries of every registered workload's
// kernels. Run with
//
//	go test -run=NONE -fuzz=FuzzGPUParseBinary -fuzztime=60s ./internal/gpu/
func FuzzGPUParseBinary(f *testing.F) {
	seen := map[string]bool{}
	for _, spec := range workloads.All() {
		progs, _ := specRun(f, spec)
		for _, p := range progs {
			raw, err := gpu.Serialize(p)
			if err != nil {
				f.Fatal(err)
			}
			if !seen[string(raw)] {
				seen[string(raw)] = true
				f.Add(raw)
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := gpu.ParseBinary(b)
		if (p == nil) == (err == nil) {
			t.Fatalf("ParseBinary returned %v and %v", p, err)
		}
		if err != nil {
			return
		}
		raw, err := gpu.Serialize(p)
		if err != nil {
			t.Fatalf("Serialize of an accepted program: %v", err)
		}
		q, err := gpu.ParseBinary(raw)
		if err != nil {
			t.Fatalf("ParseBinary of a serialized program: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("program changed through Serialize and ParseBinary\n%s\n%s", p.Disassemble(), q.Disassemble())
		}
		gpu.CompileWarp(q)
	})
}
