package clc_test

import (
	"fmt"
	"strings"
	"testing"

	"mobilesim/internal/clc"
	"mobilesim/internal/gpu"
	"mobilesim/internal/simtest"
)

const vecAddSrc = `
kernel void vecadd(global float* a, global float* b, global float* c, int n) {
    int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}
`

func compile(t *testing.T, src, name, version string) *clc.CompiledKernel {
	t.Helper()
	k, err := clc.Compile(src, name, clc.Options{Version: version})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return k
}

func TestCompileVecAddAllVersions(t *testing.T) {
	for _, ver := range clc.VersionNames() {
		t.Run(ver, func(t *testing.T) {
			k := compile(t, vecAddSrc, "vecadd", ver)
			if k.Report.Registers <= 0 {
				t.Errorf("registers = %d", k.Report.Registers)
			}
			if k.Report.LSInstrs != 3 {
				t.Errorf("LS instrs = %d, want 3 (2 loads + 1 store)", k.Report.LSInstrs)
			}
			// The binary must be parseable by the GPU decoder.
			if _, err := gpu.ParseBinary(k.Binary); err != nil {
				t.Errorf("binary does not decode: %v", err)
			}
		})
	}
}

func TestVersionsGenerateDifferentCode(t *testing.T) {
	reports := map[string]clc.StaticReport{}
	for _, ver := range clc.VersionNames() {
		reports[ver] = compile(t, vecAddSrc, "vecadd", ver).Report
	}
	if reports["5.6"] == reports["6.1"] {
		t.Error("5.6 and 6.1 produced identical reports; versions should differ")
	}
	if reports["6.1"] != reports["6.2"] {
		t.Error("6.1 and 6.2 should be identical (as in the paper)")
	}
	// Hazard padding makes 5.6 cost more arithmetic cycles than 6.1.
	if reports["5.6"].ArithCycles <= reports["6.1"].ArithCycles {
		t.Errorf("5.6 arith cycles (%d) should exceed 6.1 (%d)",
			reports["5.6"].ArithCycles, reports["6.1"].ArithCycles)
	}
	// Address folding gives 6.1 fewer LS cycles than 5.6.
	if reports["6.1"].LSCycles >= reports["5.6"].LSCycles {
		t.Errorf("6.1 LS cycles (%d) should be below 5.6 (%d)",
			reports["6.1"].LSCycles, reports["5.6"].LSCycles)
	}
	// 5.7 disables temp registers, inflating GRF use.
	if reports["5.7"].Registers <= reports["6.1"].Registers {
		t.Errorf("5.7 registers (%d) should exceed 6.1 (%d)",
			reports["5.7"].Registers, reports["6.1"].Registers)
	}
}

func TestVecAddExecutesCorrectlyAllVersions(t *testing.T) {
	for _, ver := range clc.VersionNames() {
		t.Run(ver, func(t *testing.T) {
			h := simtest.New(t, gpu.DefaultConfig())
			const n = 1000
			a, b, c := h.AllocBuf(4*n), h.AllocBuf(4*n), h.AllocBuf(4*n)
			av, bv := make([]float32, n), make([]float32, n)
			for i := range av {
				av[i] = float32(i) * 0.5
				bv[i] = float32(i) * 0.25
			}
			h.WriteF32(a, av)
			h.WriteF32(b, bv)
			k := compile(t, vecAddSrc, "vecadd", ver)
			h.RunKernel(k, [3]uint32{1024, 1, 1}, [3]uint32{64, 1, 1},
				[]uint64{a, b, c, n})
			got := h.ReadF32(c, n)
			for i := range got {
				if got[i] != av[i]+bv[i] {
					t.Fatalf("c[%d] = %g, want %g", i, got[i], av[i]+bv[i])
				}
			}
		})
	}
}

func TestControlFlowKernels(t *testing.T) {
	h := simtest.New(t, gpu.DefaultConfig())

	t.Run("for loop with accumulator", func(t *testing.T) {
		src := `
kernel void sumto(global int* out) {
    int i = get_global_id(0);
    int acc = 0;
    for (int j = 0; j <= i; j++) {
        acc += j;
    }
    out[i] = acc;
}
`
		out := h.AllocBuf(4 * 64)
		h.CompileAndRun(src, "sumto", [3]uint32{64, 1, 1}, [3]uint32{16, 1, 1}, []uint64{out})
		got := h.ReadI32(out, 64)
		for i, g := range got {
			if want := int32(i * (i + 1) / 2); g != want {
				t.Fatalf("out[%d] = %d, want %d", i, g, want)
			}
		}
	})

	t.Run("while with break and continue", func(t *testing.T) {
		src := `
kernel void quirky(global int* out) {
    int i = get_global_id(0);
    int acc = 0;
    int j = 0;
    while (1) {
        j++;
        if (j > 100) { break; }
        if ((j & 1) == 0) { continue; }
        acc += j;
        if (j >= i) { break; }
    }
    out[i] = acc;
}
`
		out := h.AllocBuf(4 * 32)
		h.CompileAndRun(src, "quirky", [3]uint32{32, 1, 1}, [3]uint32{8, 1, 1}, []uint64{out})
		got := h.ReadI32(out, 32)
		// Reference semantics in Go.
		ref := func(i int) int32 {
			acc, j := int32(0), 0
			for {
				j++
				if j > 100 {
					break
				}
				if j&1 == 0 {
					continue
				}
				acc += int32(j)
				if j >= i {
					break
				}
			}
			return acc
		}
		for i, g := range got {
			if g != ref(i) {
				t.Fatalf("out[%d] = %d, want %d", i, g, ref(i))
			}
		}
	})

	t.Run("nested if else", func(t *testing.T) {
		src := `
kernel void classify(global int* in, global int* out) {
    int i = get_global_id(0);
    int v = in[i];
    if (v < 10) {
        if (v < 5) { out[i] = 1; } else { out[i] = 2; }
    } else if (v < 20) {
        out[i] = 3;
    } else {
        out[i] = 4;
    }
}
`
		const n = 40
		in, out := h.AllocBuf(4*n), h.AllocBuf(4*n)
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(i)
		}
		h.WriteI32(in, vals)
		h.CompileAndRun(src, "classify", [3]uint32{n, 1, 1}, [3]uint32{8, 1, 1}, []uint64{in, out})
		got := h.ReadI32(out, n)
		for i, g := range got {
			var want int32
			switch {
			case i < 5:
				want = 1
			case i < 10:
				want = 2
			case i < 20:
				want = 3
			default:
				want = 4
			}
			if g != want {
				t.Fatalf("out[%d] = %d, want %d", i, g, want)
			}
		}
	})

	t.Run("ternary", func(t *testing.T) {
		src := `
kernel void clampit(global int* in, global int* out, int lo, int hi) {
    int i = get_global_id(0);
    int v = in[i];
    out[i] = v < lo ? lo : (v > hi ? hi : v);
}
`
		const n = 32
		in, out := h.AllocBuf(4*n), h.AllocBuf(4*n)
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(i - 10)
		}
		h.WriteI32(in, vals)
		h.CompileAndRun(src, "clampit", [3]uint32{n, 1, 1}, [3]uint32{8, 1, 1},
			[]uint64{in, out, 0, 15})
		got := h.ReadI32(out, n)
		for i, g := range got {
			want := vals[i]
			if want < 0 {
				want = 0
			}
			if want > 15 {
				want = 15
			}
			if g != want {
				t.Fatalf("out[%d] = %d, want %d", i, g, want)
			}
		}
	})
}

func TestLocalMemoryAndBarrier(t *testing.T) {
	h := simtest.New(t, gpu.DefaultConfig())
	src := `
kernel void wgreverse(global int* in, global int* out) {
    local int tile[64];
    int l = get_local_id(0);
    int g = get_global_id(0);
    int wg = get_local_size(0);
    tile[l] = in[g];
    barrier();
    out[g] = tile[wg - 1 - l];
}
`
	const n, wg = 256, 64
	in, out := h.AllocBuf(4*n), h.AllocBuf(4*n)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i * 7)
	}
	h.WriteI32(in, vals)
	k := h.CompileAndRun(src, "wgreverse", [3]uint32{n, 1, 1}, [3]uint32{wg, 1, 1}, []uint64{in, out})
	if k.LocalBytes != 64*4 {
		t.Errorf("LocalBytes = %d, want 256", k.LocalBytes)
	}
	got := h.ReadI32(out, n)
	for i, g := range got {
		group := i / wg
		want := vals[group*wg+(wg-1-i%wg)]
		if g != want {
			t.Fatalf("out[%d] = %d, want %d", i, g, want)
		}
	}
}

func TestMathBuiltins(t *testing.T) {
	h := simtest.New(t, gpu.DefaultConfig())
	src := `
kernel void mathy(global float* in, global float* out) {
    int i = get_global_id(0);
    float x = in[i];
    if (i == 0) { out[i] = sqrt(x); }
    if (i == 1) { out[i] = fabs(-x); }
    if (i == 2) { out[i] = exp(x); }
    if (i == 3) { out[i] = log(x); }
    if (i == 4) { out[i] = floor(x); }
    if (i == 5) { out[i] = fmin(x, 2.0f); }
    if (i == 6) { out[i] = fmax(x, 2.0f); }
    if (i == 7) { out[i] = sin(x) * sin(x) + cos(x) * cos(x); }
}
`
	in, out := h.AllocBuf(4*8), h.AllocBuf(4*8)
	h.WriteF32(in, []float32{4, 3, 1, 2.718281828, 2.9, 1.5, 1.5, 0.7})
	h.CompileAndRun(src, "mathy", [3]uint32{8, 1, 1}, [3]uint32{8, 1, 1}, []uint64{in, out})
	got := h.ReadF32(out, 8)
	approx := func(a, b float32) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d < 1e-4
	}
	want := []float32{2, 3, 2.7182817, 0.99999994, 2, 1.5, 2, 1}
	for i := range want {
		if !approx(got[i], want[i]) {
			t.Errorf("out[%d] = %g, want ~%g", i, got[i], want[i])
		}
	}
}

func TestIntOpsAndCasts(t *testing.T) {
	h := simtest.New(t, gpu.DefaultConfig())
	src := `
kernel void intops(global int* out) {
    int i = get_global_id(0);
    if (i == 0) { out[i] = 17 / 5; }
    if (i == 1) { out[i] = 17 % 5; }
    if (i == 2) { out[i] = -17 / 5; }
    if (i == 3) { out[i] = 3 << 4; }
    if (i == 4) { out[i] = 256 >> 3; }
    if (i == 5) { out[i] = (12 & 10) | (1 ^ 3); }
    if (i == 6) { out[i] = (int)(3.9f); }
    if (i == 7) { out[i] = (int)((float)7 / 2.0f * 2.0f); }
    if (i == 8) { out[i] = min(4, 9) + max(4, 9); }
    if (i == 9) { out[i] = abs(-42); }
    if (i == 10) { out[i] = !5; }
    if (i == 11) { out[i] = ~0; }
}
`
	out := h.AllocBuf(4 * 12)
	h.CompileAndRun(src, "intops", [3]uint32{12, 1, 1}, [3]uint32{4, 1, 1}, []uint64{out})
	got := h.ReadI32(out, 12)
	want := []int32{3, 2, -3, 48, 32, 10, 3, 7, 13, 42, 0, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestUCharBuffers(t *testing.T) {
	h := simtest.New(t, gpu.DefaultConfig())
	src := `
kernel void brighten(global uchar* in, global uchar* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        int v = in[i] + 40;
        out[i] = min(v, 255);
    }
}
`
	const n = 100
	in, out := h.AllocBuf(n), h.AllocBuf(n)
	pix := make([]byte, n)
	for i := range pix {
		pix[i] = byte(i * 2)
	}
	h.WriteU8(in, pix)
	h.CompileAndRun(src, "brighten", [3]uint32{128, 1, 1}, [3]uint32{32, 1, 1}, []uint64{in, out, n})
	got := h.ReadU8(out, n)
	for i := range got {
		want := int(pix[i]) + 40
		if want > 255 {
			want = 255
		}
		if int(got[i]) != want {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want)
		}
	}
}

func Test2DKernel(t *testing.T) {
	h := simtest.New(t, gpu.DefaultConfig())
	src := `
kernel void transpose(global float* in, global float* out, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < w && y < h) {
        out[x * h + y] = in[y * w + x];
    }
}
`
	const w, hh = 32, 16
	in, out := h.AllocBuf(4*w*hh), h.AllocBuf(4*w*hh)
	vals := make([]float32, w*hh)
	for i := range vals {
		vals[i] = float32(i)
	}
	h.WriteF32(in, vals)
	h.CompileAndRun(src, "transpose", [3]uint32{w, hh, 1}, [3]uint32{8, 8, 1},
		[]uint64{in, out, w, hh})
	got := h.ReadF32(out, w*hh)
	for y := 0; y < hh; y++ {
		for x := 0; x < w; x++ {
			if got[x*hh+y] != vals[y*w+x] {
				t.Fatalf("transpose[%d,%d] = %g, want %g", x, y, got[x*hh+y], vals[y*w+x])
			}
		}
	}
}

func TestScalarFloatArgs(t *testing.T) {
	h := simtest.New(t, gpu.DefaultConfig())
	src := `
kernel void saxpy(global float* x, global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
`
	const n = 64
	x, y := h.AllocBuf(4*n), h.AllocBuf(4*n)
	xv, yv := make([]float32, n), make([]float32, n)
	for i := range xv {
		xv[i], yv[i] = float32(i), float32(2*i)
	}
	h.WriteF32(x, xv)
	h.WriteF32(y, yv)
	h.CompileAndRun(src, "saxpy", [3]uint32{n, 1, 1}, [3]uint32{16, 1, 1},
		[]uint64{x, y, simtest.F32Arg(1.5), n})
	got := h.ReadF32(y, n)
	for i := range got {
		want := 1.5*xv[i] + yv[i]
		if got[i] != want {
			t.Fatalf("y[%d] = %g, want %g", i, got[i], want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"no kernel", "int x;", "expected"},
		{"undefined var", "kernel void k(global int* o) { o[0] = zzz; }", "undefined"},
		{"assign to param", "kernel void k(int n) { n = 3; }", "cannot assign"},
		{"bad dim", "kernel void k(global int* o) { o[0] = get_global_id(7); }", "dimension"},
		{"unknown builtin", "kernel void k(global int* o) { o[0] = frob(1); }", "unknown builtin"},
		{"break outside loop", "kernel void k(global int* o) { break; }", "break outside"},
		{"unterminated comment", "kernel void k(global int* o) { /* o[0] = 1; }", "unterminated"},
		{"duplicate kernel", "kernel void k(int a) { } kernel void k(int b) { }", "duplicate"},
		{"not indexable", "kernel void k(int a) { a[0] = 1; }", "not indexable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := clc.CompileAll(c.src, clc.Options{})
			if err == nil {
				t.Fatalf("expected error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err.Error(), c.wantSub)
			}
		})
	}
}

// TestParameterLimit: the uniform file holds gpu.NumUniforms kernel
// arguments. One more is a compile error naming the kernel and the limit,
// whether or not the surplus parameter is ever read (reading it used to
// panic in the operand encoder; not reading it produced a binary whose
// argument block the GPU cannot address).
func TestParameterLimit(t *testing.T) {
	kernel := func(params int, body string) string {
		var b strings.Builder
		b.WriteString("kernel void wide(global int* o")
		for i := 1; i < params; i++ {
			fmt.Fprintf(&b, ", int p%d", i)
		}
		return b.String() + ") { " + body + " }"
	}
	if _, err := clc.CompileAll(kernel(gpu.NumUniforms, "o[0] = p63;"), clc.Options{}); err != nil {
		t.Fatalf("%d parameters, the last one read: %v", gpu.NumUniforms, err)
	}
	for _, c := range []struct {
		params int
		body   string
	}{
		{gpu.NumUniforms + 1, "o[0] = 1;"},
		{gpu.NumUniforms + 2, "o[0] = p65;"},
	} {
		_, err := clc.CompileAll(kernel(c.params, c.body), clc.Options{})
		if err == nil {
			t.Fatalf("%d parameters (%s) compiled", c.params, c.body)
		}
		for _, want := range []string{`"wide"`, fmt.Sprint(c.params), fmt.Sprint(gpu.NumUniforms)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%d parameters: error %q does not mention %s", c.params, err, want)
			}
		}
	}
}

func TestClauseLimitsRespected(t *testing.T) {
	// A long straight-line kernel must be split into clauses within the
	// version's limit.
	src := `
kernel void longk(global float* a, global float* o) {
    int i = get_global_id(0);
    float x = a[i];
    x = x * 1.5f + 2.0f;
    x = x * 2.5f + 3.0f;
    x = x * 3.5f + 4.0f;
    x = x * 4.5f + 5.0f;
    x = x * 5.5f + 6.0f;
    x = x * 6.5f + 7.0f;
    o[i] = x;
}
`
	for _, ver := range []string{"5.6", "6.1"} {
		k := compile(t, src, "longk", ver)
		limit := clc.Versions[ver].MaxClauseSlots
		for i, c := range k.Program.Clauses {
			if c.Slots() > limit {
				t.Errorf("version %s clause %d has %d slots (limit %d)", ver, i, c.Slots(), limit)
			}
		}
	}
}

func TestTempPromotionUsesTempRegisters(t *testing.T) {
	k := compile(t, vecAddSrc, "vecadd", "6.1")
	foundTemp := false
	for _, c := range k.Program.Clauses {
		for _, in := range c.Instrs {
			for _, o := range []uint8{in.Dst, in.A, in.B} {
				if kind, _ := gpu.OperKind(o); kind == gpu.OperTemp {
					foundTemp = true
				}
			}
		}
	}
	if !foundTemp {
		t.Error("6.1 should promote clause-local values to temp registers")
	}
	// 5.7 must not use temps at all.
	k57 := compile(t, vecAddSrc, "vecadd", "5.7")
	for _, c := range k57.Program.Clauses {
		for _, in := range c.Instrs {
			for _, o := range []uint8{in.Dst, in.A, in.B} {
				if kind, _ := gpu.OperKind(o); kind == gpu.OperTemp && in.Op != gpu.OpNOP {
					t.Fatal("5.7 used a temp register")
				}
			}
		}
	}
}

func TestROMPoolingPerVersion(t *testing.T) {
	src := `
kernel void consts(global float* o) {
    int i = get_global_id(0);
    o[i] = 3.14159f * 2.71828f + 1.41421f;
}
`
	kPool := compile(t, src, "consts", "6.1")
	if len(kPool.Program.ROM) == 0 {
		t.Error("6.1 should pool float constants into ROM")
	}
	kInline := compile(t, src, "consts", "5.6")
	if len(kInline.Program.ROM) != 0 {
		t.Error("5.6 should inline constants, not pool them")
	}
}
