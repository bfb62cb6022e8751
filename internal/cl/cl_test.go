package cl_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/clc"
	"mobilesim/internal/cpu"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
)

var bg = context.Background()

// newStack boots a platform and opens a CL context on it — the full-system
// path: runtime -> driver (guest code) -> MMIO -> Job Manager -> shader
// cores -> IRQ -> guest ISR.
func newStack(t *testing.T) (*platform.Platform, *cl.Context) {
	t.Helper()
	p, err := platform.New(platform.Config{RAMSize: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	c, err := cl.NewContext(p, "")
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

const saxpySrc = `
kernel void saxpy(global float* x, global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
`

func TestFullStackSaxpy(t *testing.T) {
	p, c := newStack(t)
	const n = 4096

	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
		ys[i] = float32(3 * i)
	}
	bx, err := c.CreateBuffer(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	by, err := c.CreateBuffer(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteF32(bg, bx, xs); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteF32(bg, by, ys); err != nil {
		t.Fatal(err)
	}

	prog, err := c.BuildProgram(bg, saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, bx); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(1, by); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgFloat(2, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt(3, n); err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueKernel(bg, k, cl.G1(n), cl.G1(64)); err != nil {
		t.Fatal(err)
	}

	got, err := c.ReadF32(bg, by, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := 2.5*xs[i] + ys[i]
		if got[i] != want {
			t.Fatalf("y[%d] = %g, want %g", i, got[i], want)
		}
	}

	// Full-system accounting: the driver's register traffic and IRQ path
	// must be visible in system statistics (Table III machinery).
	_, sys := p.GPU.Stats()
	if sys.ComputeJobs != 1 {
		t.Errorf("compute jobs = %d, want 1", sys.ComputeJobs)
	}
	if sys.IRQsAsserted == 0 {
		t.Error("no GPU interrupts recorded")
	}
	if sys.CtrlRegWrites == 0 || sys.CtrlRegReads == 0 {
		t.Errorf("control register traffic not recorded: %+v", sys)
	}
	if sys.PagesAccessed == 0 {
		t.Error("GPU page accesses not recorded")
	}
	if sys.KernelLaunch != 1 {
		t.Errorf("kernel launches = %d, want 1", sys.KernelLaunch)
	}
	// The driver work ran as guest code on core 0.
	if p.CPU.Instret == 0 {
		t.Error("driver executed no guest instructions")
	}
}

func TestJITCompilerVersionSelectable(t *testing.T) {
	for _, ver := range []string{"5.6", "6.1"} {
		t.Run(ver, func(t *testing.T) {
			p, err := platform.New(platform.Config{RAMSize: 128 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			c, err := cl.NewContext(p, ver)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := c.BuildProgram(bg, saxpySrc)
			if err != nil {
				t.Fatal(err)
			}
			k, err := prog.CreateKernel("saxpy")
			if err != nil {
				t.Fatal(err)
			}
			if k.Report().Registers == 0 {
				t.Error("empty compiler report")
			}
		})
	}
}

func TestUnsetArgumentRejected(t *testing.T) {
	_, c := newStack(t)
	prog, err := c.BuildProgram(bg, saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnqueueKernel(bg, k, cl.G1(16), cl.G1(16)); err == nil {
		t.Error("enqueue with unset arguments should fail")
	}
}

// TestNDRangeValidatedHostSide: a global size that is empty or not a
// multiple of the local size, or a workgroup above the device limit, is
// refused with a typed error naming both sizes, before any descriptor
// reaches the GPU (where it would only surface as a job fault).
func TestNDRangeValidatedHostSide(t *testing.T) {
	p, c := newStack(t)
	prog, err := c.BuildProgram(bg, saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	// A zero-length buffer is a legal argument.
	empty, err := c.CreateBuffer(0)
	if err != nil {
		t.Fatalf("zero-length buffer: %v", err)
	}
	if empty.Size != 0 || empty.VA == 0 {
		t.Errorf("zero-length buffer = %+v, want size 0 at a real address", empty)
	}
	_ = k.SetArgBuffer(0, empty)
	_ = k.SetArgBuffer(1, empty)
	_ = k.SetArgFloat(2, 1)
	_ = k.SetArgInt(3, 0)
	for _, dims := range [][2][3]uint32{
		{cl.G2(4, 4), cl.G2(8, 8)},
		{cl.G1(100), cl.G1(64)},
		{cl.G1(0), cl.G1(64)},
		{{64, 1, 3}, {64, 1, 2}},
		{cl.G1(2 * gpu.MaxWorkgroupThreads), cl.G1(2 * gpu.MaxWorkgroupThreads)},
		{cl.G2(65536, 65536), cl.G2(65536, 65536)},
	} {
		err := c.EnqueueKernel(bg, k, dims[0], dims[1])
		var nd *cl.NDRangeError
		if !errors.As(err, &nd) {
			t.Errorf("global %v local %v: err = %v, want an NDRangeError", dims[0], dims[1], err)
			continue
		}
		if nd.Global != dims[0] || nd.Local != dims[1] || nd.Kernel != "saxpy" {
			t.Errorf("error %+v does not name the caller's sizes %v / %v", nd, dims[0], dims[1])
		}
	}
	if _, sys := p.GPU.Stats(); sys.ComputeJobs != 0 {
		t.Errorf("%d jobs reached the GPU", sys.ComputeJobs)
	}
	// Unset trailing dimensions and an unset local size still mean 1.
	if err := c.EnqueueKernel(bg, k, [3]uint32{64}, [3]uint32{}); err != nil {
		t.Errorf("1-D dispatch with unset dimensions: %v", err)
	}
}

func TestArgTypeChecking(t *testing.T) {
	_, c := newStack(t)
	prog, err := c.BuildProgram(bg, saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(2, &cl.Buffer{VA: 0x1000, Size: 16}); err == nil {
		t.Error("binding a buffer to a float parameter should fail")
	}
	if err := k.SetArgInt(9, 1); err == nil {
		t.Error("out-of-range argument index should fail")
	}
	if _, err := prog.CreateKernel("nope"); err == nil {
		t.Error("unknown kernel name should fail")
	}
}

// TestHandOffSchedulingDoesNotLeakIntoCounters pins the driver↔GPU
// hand-off against host scheduling: the same job list must leave the same
// system statistics and guest instruction count whether the driver reaches
// WaitJob before the GPU finishes (no hook) or only after the interrupt is
// already pending (the hook spins until it is), on one host thread or two.
// WaitJob used to poll the interrupt status once before blocking, so the
// first case cost one register read, one write and four guest instructions
// more per job than the second.
func TestHandOffSchedulingDoesNotLeakIntoCounters(t *testing.T) {
	src := `
kernel void addc(global int* a, int c, int n) {
    int i = get_global_id(0);
    if (i < n) { a[i] = a[i] + c; }
}
`
	type counters struct {
		sys    any
		instrs uint64
	}
	run := func(procs int, gpuFirst bool) counters {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p, c := newStack(t)
		if gpuFirst {
			c.Drv.HandOff = func() {
				for !p.Intc.Pending() {
					runtime.Gosched()
				}
			}
		}
		prog, err := c.BuildProgram(bg, src)
		if err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("addc")
		if err != nil {
			t.Fatal(err)
		}
		// A job list from one workgroup to a few hundred: short jobs the
		// GPU finishes at once and longer ones the driver has to wait for.
		for _, n := range []int{32, 8192, 64, 4096, 32} {
			buf, err := c.CreateBuffer(4 * n)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.SetArgBuffer(0, buf); err != nil {
				t.Fatal(err)
			}
			_ = k.SetArgInt(1, 3)
			_ = k.SetArgInt(2, int32(n))
			if err := c.EnqueueKernel(bg, k, cl.G1(uint32(n)), cl.G1(32)); err != nil {
				t.Fatal(err)
			}
		}
		_, sys := p.GPU.Stats()
		return counters{sys: sys, instrs: p.CPU.Instret}
	}
	want := run(1, false)
	for _, cfg := range []struct {
		procs    int
		gpuFirst bool
	}{{1, true}, {2, false}, {2, true}} {
		if got := run(cfg.procs, cfg.gpuFirst); got != want {
			t.Errorf("GOMAXPROCS=%d gpuFirst=%v: counters depend on host scheduling:\n got %+v\nwant %+v",
				cfg.procs, cfg.gpuFirst, got, want)
		}
	}
}

func TestLocalMemoryThroughFullStack(t *testing.T) {
	_, c := newStack(t)
	src := `
kernel void wgsum(global int* in, global int* out) {
    local int tile[64];
    int l = get_local_id(0);
    int g = get_global_id(0);
    int wg = get_local_size(0);
    tile[l] = in[g];
    barrier();
    if (l == 0) {
        int s = 0;
        for (int j = 0; j < wg; j++) { s += tile[j]; }
        out[get_group_id(0)] = s;
    }
}
`
	const n, wg = 512, 64
	prog, err := c.BuildProgram(bg, src)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := c.CreateBuffer(4 * n)
	out, _ := c.CreateBuffer(4 * (n / wg))
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i % 100)
	}
	if err := c.WriteI32(bg, in, vals); err != nil {
		t.Fatal(err)
	}
	k, _ := prog.CreateKernel("wgsum")
	_ = k.SetArgBuffer(0, in)
	_ = k.SetArgBuffer(1, out)
	if err := c.EnqueueKernel(bg, k, cl.G1(n), cl.G1(wg)); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadI32(bg, out, n/wg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < n/wg; g++ {
		var want int32
		for j := 0; j < wg; j++ {
			want += vals[g*wg+j]
		}
		if got[g] != want {
			t.Fatalf("group %d sum = %d, want %d", g, got[g], want)
		}
	}
}

func TestFaultSurfacesAsError(t *testing.T) {
	_, c := newStack(t)
	prog, err := c.BuildProgram(bg, saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := prog.CreateKernel("saxpy")
	// Bogus unmapped buffer.
	_ = k.SetArgBuffer(0, &cl.Buffer{VA: 0xdead0000, Size: 1024})
	_ = k.SetArgBuffer(1, &cl.Buffer{VA: 0xdead8000, Size: 1024})
	_ = k.SetArgFloat(2, 1)
	_ = k.SetArgInt(3, 16)
	if err := c.EnqueueKernel(bg, k, cl.G1(16), cl.G1(16)); err == nil {
		t.Error("kernel on unmapped buffers should report a fault")
	}
}

func TestDriverScalesWithInputOnInterpVsDBT(t *testing.T) {
	// The Fig 9 mechanism in miniature: CPU-side driver cost (guest
	// memcpy) is much cheaper per byte under DBT than under the
	// per-instruction interpreter used by the Multi2Sim-style baseline.
	run := func(engine cpu.Engine) uint64 {
		p, err := platform.New(platform.Config{RAMSize: 128 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		p.CPU.SetEngine(engine)
		c, err := cl.NewContext(p, "")
		if err != nil {
			t.Fatal(err)
		}
		buf, err := c.CreateBuffer(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteBuffer(bg, buf, make([]byte, 1<<20)); err != nil {
			t.Fatal(err)
		}
		return p.CPU.Instret
	}
	dbt := run(cpu.EngineDBT)
	interp := run(cpu.EngineInterp)
	if dbt == 0 || interp == 0 {
		t.Fatalf("no guest work measured: dbt=%d interp=%d", dbt, interp)
	}
	// Same architectural work: identical instruction counts; the engines
	// differ in host cost, not in guest semantics.
	if dbt != interp {
		t.Errorf("engines retired different instruction counts: %d vs %d", dbt, interp)
	}
	// Instruction count scales with the copy size (~6 instr / 8 bytes).
	if dbt < (1<<20)/8 {
		t.Errorf("driver copy work suspiciously small: %d instr", dbt)
	}
}

var _ = gpu.DefaultConfig // keep import for potential extension

// TestSharedKernelIsReadOnly: contexts that build the same source share its
// compiled kernels (clc's compile memo), so nothing one context's kernel
// hands out may reach another's. The first context overwrites every
// parameter Params returned it — names, kinds, element types — and runs;
// the second builds the same source, sees the declared parameters, and runs
// the kernel to the same bytes and counters.
func TestSharedKernelIsReadOnly(t *testing.T) {
	const n = 256
	run := func(vandal bool) ([]clc.Param, []float32, [2]any) {
		p, c := newStack(t)
		prog, err := c.BuildProgram(bg, saxpySrc)
		if err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("saxpy")
		if err != nil {
			t.Fatal(err)
		}
		if vandal {
			params := k.Params()
			for i := range params {
				params[i] = clc.Param{Name: "vandal", Type: clc.Type{Kind: clc.TypeInt, Elem: clc.ElemInt}}
			}
		}
		xs, ys := make([]float32, n), make([]float32, n)
		for i := range xs {
			xs[i], ys[i] = float32(i), float32(n-i)
		}
		bx, _ := c.CreateBuffer(4 * n)
		by, _ := c.CreateBuffer(4 * n)
		if err := c.WriteF32(bg, bx, xs); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteF32(bg, by, ys); err != nil {
			t.Fatal(err)
		}
		for _, err := range []error{k.SetArgBuffer(0, bx), k.SetArgBuffer(1, by), k.SetArgFloat(2, 0.5), k.SetArgInt(3, n)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := c.EnqueueKernel(bg, k, cl.G1(n), cl.G1(32)); err != nil {
			t.Fatal(err)
		}
		out, err := c.ReadF32(bg, by, n)
		if err != nil {
			t.Fatal(err)
		}
		gs, sys := p.GPU.Stats()
		return k.Params(), out, [2]any{gs, sys}
	}
	_, out1, stats1 := run(true)
	params, out2, stats2 := run(false)
	var names []string
	for _, p := range params {
		names = append(names, p.Name)
	}
	if fmt.Sprint(names) != "[x y a n]" || params[0].Type.Kind != clc.TypeGlobalPtr || params[2].Type.Kind != clc.TypeFloat {
		t.Errorf("the second context's kernel declares %+v: the first context's edits reached it", params)
	}
	if fmt.Sprint(out1) != fmt.Sprint(out2) || stats1 != stats2 {
		t.Errorf("the two contexts ran the shared kernel differently:\nfirst:  %v %+v\nsecond: %v %+v", out1, stats1, out2, stats2)
	}
}

// TestBuildProgramRefusesOversizedBinary: a kernel whose binary the GPU
// would refuse to fetch (gpu.MaxShaderBytes) is refused at build time with
// the device's typed error, before anything is staged.
func TestBuildProgramRefusesOversizedBinary(t *testing.T) {
	_, c := newStack(t)
	var b strings.Builder
	b.WriteString("kernel void big(global int* o) { int i = get_global_id(0);")
	for j := 0; j < 12000; j++ {
		fmt.Fprintf(&b, " o[i+%d] = i*%d;", j, j+3)
	}
	b.WriteString(" }")
	staged := c.Drv.CaptureState()
	_, err := c.BuildProgram(bg, b.String())
	var tooBig *gpu.ShaderSizeError
	if !errors.As(err, &tooBig) || tooBig.Size <= gpu.MaxShaderBytes {
		t.Fatalf("BuildProgram of a long kernel: %v, want a ShaderSizeError", err)
	}
	if c.Drv.CaptureState() != staged {
		t.Errorf("the refused build allocated or staged through the driver")
	}
}
