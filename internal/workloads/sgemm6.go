package workloads

import (
	"context"
	"fmt"
	"strings"

	"mobilesim/internal/cl"
	"mobilesim/internal/costmodel"
)

// The six SGEMM variants of Fig 15, following the myGEMM/CLBlast
// optimisation ladder the paper evaluates ([27], [28]): each variant is an
// optimisation developed for NVIDIA GPUs, applied unchanged to the mobile
// target. Dimensions must be multiples of 16. Each rung is registered as a
// workload whose scale is the matrix dimension in units of 16 (the
// ladder's tile size), so scale 4 is a 64×64×64 multiply; its small scale
// is the smallest its own tile of C divides.

func init() {
	for _, v := range SgemmVariants() {
		v := v
		register(&Spec{
			Name: v.WorkloadName(), Kind: KindSgemm, Suite: "myGEMM",
			Description: fmt.Sprintf("SGEMM ladder step %d (%s), scale = dim/16", v.ID, v.Name),
			Profile:     &v.Profile,
			SmallScale:  v.smallScale(), DefaultScale: 4, PaperScale: 16,
			Make: func(scale int) *Instance { return makeSgemmRung(v, 16*scale) },
		})
	}
}

func makeSgemmRung(v SgemmVariant, dim int) *Instance {
	a, b := SgemmInputs(dim, dim, dim)
	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			return RunSgemmVariant(ctx, c, v, a, b, dim, dim, dim)
		},
		Native: func() any { return SgemmNative(a, b, dim, dim, dim) },
		Tol:    1e-2,
	}
}

// SgemmVariant is one rung of the optimisation ladder.
type SgemmVariant struct {
	// ID is 1..6, matching the paper's numbering.
	ID int
	// Name matches the Fig 15 legend.
	Name string
	// Kernel is the CLite source; entry point "sgemm".
	Kernel string
	// Global/Local compute the dispatch dimensions for (m, n).
	Global func(m, n int) [3]uint32
	Local  [3]uint32
	// TransposeB indicates the host must pass Bᵀ.
	TransposeB bool
	// Profile is the access-pattern annotation consumed by the desktop
	// cost model (coalescing and register blocking are not visible in
	// aggregate counters).
	Profile costmodel.KernelProfile
}

// tiles reports whether the rung's workgroups tile an m×n C. Each variant
// tiles C by its own workgroup footprint (threads per group × elements per
// thread), which for the blocked variants is coarser than 16.
func (v SgemmVariant) tiles(m, n int) bool {
	g := v.Global(m, n)
	return g[0]%v.Local[0] == 0 && g[1]%v.Local[1] == 0
}

// smallScale is the smallest scale whose matrix the rung's workgroups tile.
func (v SgemmVariant) smallScale() int {
	s := 1
	for !v.tiles(16*s, 16*s) {
		s++
	}
	return s
}

// WorkloadName is the rung's registry name, e.g. "sgemm6/naive".
func (v SgemmVariant) WorkloadName() string { return "sgemm6/" + strings.ToLower(v.Name) }

// SgemmVariants returns the ladder in paper order.
func SgemmVariants() []SgemmVariant {
	return []SgemmVariant{
		{
			ID: 1, Name: "Naive",
			Kernel: sgemm1Src,
			Global: func(m, n int) [3]uint32 { return [3]uint32{uint32(n), uint32(m), 1} },
			Local:  [3]uint32{16, 16, 1},
			// Per-thread strided walks through A defeat coalescing; no ILP.
			Profile: costmodel.KernelProfile{CoalescedFraction: 0.30, RegisterBlocking: 1, CacheHitFraction: 0.20},
		},
		{
			ID: 2, Name: "LocalMemTiling",
			Kernel: sgemm2Src,
			Global: func(m, n int) [3]uint32 { return [3]uint32{uint32(n), uint32(m), 1} },
			Local:  [3]uint32{16, 16, 1},
			// Cooperative tile loads are unit-stride.
			Profile: costmodel.KernelProfile{CoalescedFraction: 0.95, RegisterBlocking: 1, CacheHitFraction: 0.30},
		},
		{
			ID: 3, Name: "MoreWork/Thread",
			Kernel:  sgemm3Src,
			Global:  func(m, n int) [3]uint32 { return [3]uint32{uint32(n), uint32(m / 4), 1} },
			Local:   [3]uint32{16, 4, 1},
			Profile: costmodel.KernelProfile{CoalescedFraction: 0.95, RegisterBlocking: 2, CacheHitFraction: 0.30},
		},
		{
			ID: 4, Name: "WiderDataTypes",
			Kernel:  sgemm4Src,
			Global:  func(m, n int) [3]uint32 { return [3]uint32{uint32(n / 4), uint32(m), 1} },
			Local:   [3]uint32{4, 16, 1},
			Profile: costmodel.KernelProfile{CoalescedFraction: 0.97, RegisterBlocking: 2, CacheHitFraction: 0.30},
		},
		{
			ID: 5, Name: "TransInput",
			Kernel:     sgemm5Src,
			Global:     func(m, n int) [3]uint32 { return [3]uint32{uint32(n), uint32(m / 4), 1} },
			Local:      [3]uint32{16, 4, 1},
			TransposeB: true,
			Profile:    costmodel.KernelProfile{CoalescedFraction: 0.98, RegisterBlocking: 2, CacheHitFraction: 0.30},
		},
		{
			ID: 6, Name: "2DRegBlocking",
			Kernel: sgemm6Src,
			Global: func(m, n int) [3]uint32 { return [3]uint32{uint32(n / 4), uint32(m / 4), 1} },
			Local:  [3]uint32{8, 8, 1},
			// Big register tiles expose ILP; the row walks of A stay
			// reasonably coalesced through the L2 on desktop parts.
			Profile: costmodel.KernelProfile{CoalescedFraction: 0.85, RegisterBlocking: 4, CacheHitFraction: 0.85},
		},
	}
}

// RunSgemmVariant executes one variant on the given context and returns
// the C matrix.
func RunSgemmVariant(ctx context.Context, c *cl.Context, v SgemmVariant, a, b []float32, m, n, k int) ([]float32, error) {
	if m%16 != 0 || n%16 != 0 || k%16 != 0 {
		return nil, fmt.Errorf("workloads: sgemm dims must be multiples of 16 (got %dx%dx%d)", m, n, k)
	}
	if !v.tiles(m, n) {
		g := v.Global(m, n)
		return nil, fmt.Errorf("workloads: sgemm variant %s tiles C in %dx%d blocks; m=%d n=%d is not a multiple",
			v.Name, uint32(m)/g[1]*v.Local[1], uint32(n)/g[0]*v.Local[0], m, n)
	}
	bIn := b
	if v.TransposeB {
		bIn = make([]float32, len(b))
		for i := 0; i < k; i++ {
			for j := 0; j < n; j++ {
				bIn[j*k+i] = b[i*n+j]
			}
		}
	}
	ba, err := newBufF32(ctx, c, a)
	if err != nil {
		return nil, err
	}
	bb, err := newBufF32(ctx, c, bIn)
	if err != nil {
		return nil, err
	}
	bc, err := c.CreateBuffer(4 * m * n)
	if err != nil {
		return nil, err
	}
	kk, err := kernel1(ctx, c, v.Kernel, "sgemm", ba, bb, bc, m, n, k)
	if err != nil {
		return nil, err
	}
	if err := c.EnqueueKernel(ctx, kk, v.Global(m, n), v.Local); err != nil {
		return nil, err
	}
	return c.ReadF32(ctx, bc, m*n)
}

// SgemmNative is the float32 reference (also the verification oracle).
func SgemmNative(a, b []float32, m, n, k int) []float32 {
	out := make([]float32, m*n)
	for row := 0; row < m; row++ {
		for col := 0; col < n; col++ {
			var acc float32
			for i := 0; i < k; i++ {
				acc += a[row*k+i] * b[i*n+col]
			}
			out[row*n+col] = acc
		}
	}
	return out
}

// SgemmInputs generates deterministic inputs.
func SgemmInputs(m, n, k int) (a, b []float32) {
	r := rng(2020)
	return randF32s(r, m*k, -1, 1), randF32s(r, k*n, -1, 1)
}

const sgemm1Src = `
kernel void sgemm(global float* a, global float* b, global float* c, int m, int n, int k) {
    int col = get_global_id(0);
    int row = get_global_id(1);
    float acc = 0.0f;
    for (int i = 0; i < k; i++) {
        acc += a[row * k + i] * b[i * n + col];
    }
    c[row * n + col] = acc;
}
`

const sgemm2Src = `
kernel void sgemm(global float* a, global float* b, global float* c, int m, int n, int k) {
    local float As[256];
    local float Bs[256];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int col = get_global_id(0);
    int row = get_global_id(1);
    float acc = 0.0f;
    for (int t = 0; t < k; t += 16) {
        As[ly * 16 + lx] = a[row * k + t + lx];
        Bs[ly * 16 + lx] = b[(t + ly) * n + col];
        barrier();
        for (int i = 0; i < 16; i++) {
            acc += As[ly * 16 + i] * Bs[i * 16 + lx];
        }
        barrier();
    }
    c[row * n + col] = acc;
}
`

const sgemm3Src = `
kernel void sgemm(global float* a, global float* b, global float* c, int m, int n, int k) {
    local float As[256];
    local float Bs[256];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int col = get_global_id(0);
    int grow = get_group_id(1) * 16;
    float acc0 = 0.0f;
    float acc1 = 0.0f;
    float acc2 = 0.0f;
    float acc3 = 0.0f;
    for (int t = 0; t < k; t += 16) {
        for (int w = 0; w < 4; w++) {
            As[(ly + 4 * w) * 16 + lx] = a[(grow + ly + 4 * w) * k + t + lx];
            Bs[(ly + 4 * w) * 16 + lx] = b[(t + ly + 4 * w) * n + col];
        }
        barrier();
        for (int i = 0; i < 16; i++) {
            float bv = Bs[i * 16 + lx];
            acc0 += As[ly * 16 + i] * bv;
            acc1 += As[(ly + 4) * 16 + i] * bv;
            acc2 += As[(ly + 8) * 16 + i] * bv;
            acc3 += As[(ly + 12) * 16 + i] * bv;
        }
        barrier();
    }
    c[(grow + ly) * n + col] = acc0;
    c[(grow + ly + 4) * n + col] = acc1;
    c[(grow + ly + 8) * n + col] = acc2;
    c[(grow + ly + 12) * n + col] = acc3;
}
`

const sgemm4Src = `
kernel void sgemm(global float* a, global float* b, global float* c, int m, int n, int k) {
    local float As[256];
    local float Bs[256];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int col0 = get_group_id(0) * 16 + 4 * lx;
    int row = get_global_id(1);
    float acc0 = 0.0f; float acc1 = 0.0f; float acc2 = 0.0f; float acc3 = 0.0f;
    for (int t = 0; t < k; t += 16) {
        int ai = row * k + t + 4 * lx;
        int li = ly * 16 + 4 * lx;
        As[li] = a[ai];
        As[li + 1] = a[ai + 1];
        As[li + 2] = a[ai + 2];
        As[li + 3] = a[ai + 3];
        int bi = (t + ly) * n + col0;
        Bs[li] = b[bi];
        Bs[li + 1] = b[bi + 1];
        Bs[li + 2] = b[bi + 2];
        Bs[li + 3] = b[bi + 3];
        barrier();
        for (int i = 0; i < 16; i++) {
            float av = As[ly * 16 + i];
            int bj = i * 16 + 4 * lx;
            acc0 += av * Bs[bj];
            acc1 += av * Bs[bj + 1];
            acc2 += av * Bs[bj + 2];
            acc3 += av * Bs[bj + 3];
        }
        barrier();
    }
    int ci = row * n + col0;
    c[ci] = acc0;
    c[ci + 1] = acc1;
    c[ci + 2] = acc2;
    c[ci + 3] = acc3;
}
`

// sgemm5: b is passed transposed (bt[col * k + i]).
const sgemm5Src = `
kernel void sgemm(global float* a, global float* bt, global float* c, int m, int n, int k) {
    local float As[256];
    local float Bs[256];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int col = get_global_id(0);
    int gcol = get_group_id(0) * 16;
    int grow = get_group_id(1) * 16;
    float acc0 = 0.0f;
    float acc1 = 0.0f;
    float acc2 = 0.0f;
    float acc3 = 0.0f;
    for (int t = 0; t < k; t += 16) {
        for (int w = 0; w < 4; w++) {
            As[(ly + 4 * w) * 16 + lx] = a[(grow + ly + 4 * w) * k + t + lx];
            Bs[(ly + 4 * w) * 16 + lx] = bt[(gcol + ly + 4 * w) * k + t + lx];
        }
        barrier();
        for (int i = 0; i < 16; i++) {
            float bv = Bs[(col - gcol) * 16 + i];
            acc0 += As[ly * 16 + i] * bv;
            acc1 += As[(ly + 4) * 16 + i] * bv;
            acc2 += As[(ly + 8) * 16 + i] * bv;
            acc3 += As[(ly + 12) * 16 + i] * bv;
        }
        barrier();
    }
    c[(grow + ly) * n + col] = acc0;
    c[(grow + ly + 4) * n + col] = acc1;
    c[(grow + ly + 8) * n + col] = acc2;
    c[(grow + ly + 12) * n + col] = acc3;
}
`

const sgemm6Src = `
kernel void sgemm(global float* a, global float* b, global float* c, int m, int n, int k) {
    int col0 = get_global_id(0) * 4;
    int row0 = get_global_id(1) * 4;
    float acc00 = 0.0f; float acc01 = 0.0f; float acc02 = 0.0f; float acc03 = 0.0f;
    float acc10 = 0.0f; float acc11 = 0.0f; float acc12 = 0.0f; float acc13 = 0.0f;
    float acc20 = 0.0f; float acc21 = 0.0f; float acc22 = 0.0f; float acc23 = 0.0f;
    float acc30 = 0.0f; float acc31 = 0.0f; float acc32 = 0.0f; float acc33 = 0.0f;
    for (int i = 0; i < k; i++) {
        float a0 = a[row0 * k + i];
        float a1 = a[(row0 + 1) * k + i];
        float a2 = a[(row0 + 2) * k + i];
        float a3 = a[(row0 + 3) * k + i];
        int bi = i * n + col0;
        float b0 = b[bi];
        float b1 = b[bi + 1];
        float b2 = b[bi + 2];
        float b3 = b[bi + 3];
        acc00 += a0 * b0; acc01 += a0 * b1; acc02 += a0 * b2; acc03 += a0 * b3;
        acc10 += a1 * b0; acc11 += a1 * b1; acc12 += a1 * b2; acc13 += a1 * b3;
        acc20 += a2 * b0; acc21 += a2 * b1; acc22 += a2 * b2; acc23 += a2 * b3;
        acc30 += a3 * b0; acc31 += a3 * b1; acc32 += a3 * b2; acc33 += a3 * b3;
    }
    int ci = row0 * n + col0;
    c[ci] = acc00; c[ci + 1] = acc01; c[ci + 2] = acc02; c[ci + 3] = acc03;
    ci = (row0 + 1) * n + col0;
    c[ci] = acc10; c[ci + 1] = acc11; c[ci + 2] = acc12; c[ci + 3] = acc13;
    ci = (row0 + 2) * n + col0;
    c[ci] = acc20; c[ci + 1] = acc21; c[ci + 2] = acc22; c[ci + 3] = acc23;
    ci = (row0 + 3) * n + col0;
    c[ci] = acc30; c[ci + 1] = acc31; c[ci + 2] = acc32; c[ci + 3] = acc33;
}
`
