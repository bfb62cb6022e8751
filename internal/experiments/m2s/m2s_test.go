package m2s_test

import (
	"testing"

	"mobilesim/internal/experiments/m2s"
	"mobilesim/internal/gpu"
)

const vecScaleSrc = `
kernel void vecscale(global float* a, global float* out, float s, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = a[i] * s;
    }
}
`

func TestInterceptedRuntimeRunsKernels(t *testing.T) {
	c, err := m2s.New(64<<20, gpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 512
	in, err := c.CreateBuffer(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.CreateBuffer(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := c.WriteF32(in, vals); err != nil {
		t.Fatal(err)
	}
	k, err := c.BuildKernel(vecScaleSrc, "vecscale")
	if err != nil {
		t.Fatal(err)
	}
	k.SetArgBuffer(0, in)
	k.SetArgBuffer(1, out)
	k.SetArgFloat(2, 3)
	k.SetArgInt(3, n)
	if err := c.Enqueue(k, [3]uint32{n, 1, 1}, [3]uint32{64, 1, 1}); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadF32(out, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != vals[i]*3 {
			t.Fatalf("out[%d] = %g", i, got[i])
		}
	}
	if c.KernelLaunches != 1 {
		t.Errorf("launches = %d", c.KernelLaunches)
	}
	if c.CPUTime == 0 {
		t.Error("runtime-side CPU time not accounted")
	}
}

// TestArchitecturalDifferences checks the properties that distinguish the
// baseline from the full-system stack: flat addressing (no page-table
// walks, so no page statistics) and interpreter-mode CPU copies.
func TestArchitecturalDifferences(t *testing.T) {
	c, err := m2s.New(64<<20, gpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in, _ := c.CreateBuffer(4 * 256)
	out, _ := c.CreateBuffer(4 * 256)
	if err := c.WriteF32(in, make([]float32, 256)); err != nil {
		t.Fatal(err)
	}
	k, err := c.BuildKernel(vecScaleSrc, "vecscale")
	if err != nil {
		t.Fatal(err)
	}
	k.SetArgBuffer(0, in)
	k.SetArgBuffer(1, out)
	k.SetArgFloat(2, 1)
	k.SetArgInt(3, 256)
	if err := c.Enqueue(k, [3]uint32{256, 1, 1}, [3]uint32{64, 1, 1}); err != nil {
		t.Fatal(err)
	}
	_, sys := c.Device().Stats()
	if sys.PagesAccessed != 0 {
		t.Errorf("flat address space should record no page accesses, got %d", sys.PagesAccessed)
	}
	if c.CPUInstret() == 0 {
		t.Error("runtime copies should run on the interpreter core")
	}
}
