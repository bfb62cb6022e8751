package workloads

import (
	"context"
	"math"

	"mobilesim/internal/cl"
)

// --- DCT (AMD APP 2.5) ---------------------------------------------------------
//
// 8x8 block discrete cosine transform: out = C · block · Cᵀ, one thread
// per output element.

const dctSrc = `
kernel void dct8(global float* in, global float* out, global float* c, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < w && y < h) {
        int bx = (x / 8) * 8;
        int by = (y / 8) * 8;
        int u = x % 8;
        int v = y % 8;
        float acc = 0.0f;
        for (int i = 0; i < 8; i++) {
            float row = 0.0f;
            for (int j = 0; j < 8; j++) {
                row += in[(by + i) * w + bx + j] * c[u * 8 + j];
            }
            acc += c[v * 8 + i] * row;
        }
        out[y * w + x] = acc;
    }
}
`

func init() {
	register(&Spec{
		Name:       "DCT",
		Suite:      "AMD APP 2.5",
		PaperInput: "10000x1000 matrix",
		SmallScale: 32, DefaultScale: 128, PaperScale: 3168, // ~10M elements
		Make: makeDCT,
	})
}

func dctCoeffs() []float32 {
	c := make([]float32, 64)
	for u := 0; u < 8; u++ {
		for j := 0; j < 8; j++ {
			a := float32(math.Sqrt(2.0 / 8.0))
			if u == 0 {
				a = float32(math.Sqrt(1.0 / 8.0))
			}
			c[u*8+j] = a * float32(math.Cos(float64(2*j+1)*float64(u)*math.Pi/16))
		}
	}
	return c
}

func makeDCT(dim int) *Instance {
	w := roundUp(dim, 8)
	h := w
	r := rng(505)
	data := randF32s(r, w*h, -128, 128)
	coef := dctCoeffs()

	return &Instance{
		Tol: 2e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			in, err := newBufF32(ctx, c, data)
			if err != nil {
				return nil, err
			}
			out, err := c.CreateBuffer(4 * w * h)
			if err != nil {
				return nil, err
			}
			cb, err := newBufF32(ctx, c, coef)
			if err != nil {
				return nil, err
			}
			k, err := kernel1(ctx, c, dctSrc, "dct8", in, out, cb, w, h)
			if err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, k, cl.G2(uint32(w), uint32(h)), cl.G2(8, 8)); err != nil {
				return nil, err
			}
			return c.ReadF32(ctx, out, w*h)
		},
		Native: func() any {
			out := make([]float32, w*h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					bx, by := x/8*8, y/8*8
					u, v := x%8, y%8
					var acc float32
					for i := 0; i < 8; i++ {
						var row float32
						for j := 0; j < 8; j++ {
							row += data[(by+i)*w+bx+j] * coef[u*8+j]
						}
						acc += coef[v*8+i] * row
					}
					out[y*w+x] = acc
				}
			}
			return out
		},
	}
}

// --- DwtHaar1D (AMD APP 2.5) -----------------------------------------------------
//
// Hierarchical 1-D Haar wavelet: log2(n) kernel launches, each halving the
// approximation region while passing prior detail coefficients through.

const haarSrc = `
kernel void haar(global float* in, global float* out, int halfn, int total) {
    int i = get_global_id(0);
    if (i < halfn) {
        float s = 0.70710678f;
        float a = in[2 * i];
        float b = in[2 * i + 1];
        out[i] = (a + b) * s;
        out[halfn + i] = (a - b) * s;
    } else if (i >= 2 * halfn && i < total) {
        out[i] = in[i];
    }
}
`

func init() {
	register(&Spec{
		Name:       "DwtHaar1D",
		Suite:      "AMD APP 2.5",
		PaperInput: "8388608-sample signal",
		SmallScale: 1 << 10, DefaultScale: 1 << 14, PaperScale: 1 << 23,
		Make: makeHaar,
	})
}

func makeHaar(n int) *Instance {
	n = nextPow2(n)
	r := rng(606)
	signal := randF32s(r, n, -1, 1)

	return &Instance{
		Tol: 1e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			a, err := newBufF32(ctx, c, signal)
			if err != nil {
				return nil, err
			}
			b, err := c.CreateBuffer(4 * n)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, haarSrc)
			if err != nil {
				return nil, err
			}
			k, err := prog.CreateKernel("haar")
			if err != nil {
				return nil, err
			}
			src, dst := a, b
			for half := n / 2; half >= 1; half /= 2 {
				if err := k.SetArgs(src, dst, half, n); err != nil {
					return nil, err
				}
				wg := uint32(64)
				g := uint32(roundUp(n, 64))
				if err := c.EnqueueKernel(ctx, k, cl.G1(g), cl.G1(wg)); err != nil {
					return nil, err
				}
				src, dst = dst, src
			}
			return c.ReadF32(ctx, src, n)
		},
		Native: func() any {
			cur := append([]float32(nil), signal...)
			next := make([]float32, n)
			const s = float32(0.70710678)
			for half := n / 2; half >= 1; half /= 2 {
				copy(next, cur)
				for i := 0; i < half; i++ {
					a, b := cur[2*i], cur[2*i+1]
					next[i] = (a + b) * s
					next[half+i] = (a - b) * s
				}
				cur, next = next, cur
			}
			return cur
		},
	}
}

// --- Reduction (AMD APP 2.5) -------------------------------------------------------
//
// Tree reduction through local memory, relaunched until one value remains.
// Its many tiny barrier-separated clauses make it one of the empty-slot-
// heavy kernels in Fig 11.

const reductionSrc = `
kernel void reduce(global int* in, global int* out, int n) {
    local int scratch[256];
    int l = get_local_id(0);
    int g = get_global_id(0);
    int v = 0;
    if (g < n) { v = in[g]; }
    scratch[l] = v;
    barrier();
    for (int s = 128; s > 0; s = s >> 1) {
        if (l < s) { scratch[l] = scratch[l] + scratch[l + s]; }
        barrier();
    }
    if (l == 0) { out[get_group_id(0)] = scratch[0]; }
}
`

func init() {
	register(&Spec{
		Name:       "Reduction",
		Suite:      "AMD APP 2.5",
		PaperInput: "9999360 elements",
		SmallScale: 1 << 12, DefaultScale: 1 << 16, PaperScale: 9999360,
		Make: makeReduction,
	})
}

func makeReduction(n int) *Instance {
	r := rng(707)
	data := randI32s(r, n, 1000)

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			in, err := newBufI32(ctx, c, data)
			if err != nil {
				return nil, err
			}
			groups := (n + 255) / 256
			out, err := c.CreateBuffer(4 * groups)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, reductionSrc)
			if err != nil {
				return nil, err
			}
			k, err := prog.CreateKernel("reduce")
			if err != nil {
				return nil, err
			}
			cur, curN := in, n
			dst := out
			for curN > 1 {
				g := (curN + 255) / 256
				if err := k.SetArgs(cur, dst, curN); err != nil {
					return nil, err
				}
				if err := c.EnqueueKernel(ctx, k, cl.G1(uint32(g*256)), cl.G1(256)); err != nil {
					return nil, err
				}
				cur, dst = dst, cur
				curN = g
			}
			return c.ReadI32(ctx, cur, 1)
		},
		Native: func() any {
			var sum int32
			for _, v := range data {
				sum += v
			}
			return []int32{sum}
		},
	}
}

// --- ScanLargeArrays (AMD APP 2.5) ----------------------------------------------------
//
// Hillis-Steele inclusive scan per workgroup, recursive scan of the group
// sums, then a uniform add — three kernels, multiple passes.

const scanSrc = `
kernel void group_scan(global int* in, global int* out, global int* sums, int n) {
    local int a[256];
    local int b[256];
    int l = get_local_id(0);
    int g = get_global_id(0);
    int v = 0;
    if (g < n) { v = in[g]; }
    a[l] = v;
    barrier();
    int src = 0;
    for (int off = 1; off < 256; off = off << 1) {
        if (src == 0) {
            if (l >= off) { b[l] = a[l] + a[l - off]; } else { b[l] = a[l]; }
        } else {
            if (l >= off) { a[l] = b[l] + b[l - off]; } else { a[l] = b[l]; }
        }
        src = 1 - src;
        barrier();
    }
    int r = a[l];
    if (g < n) { out[g] = r; }
    if (l == 255) { sums[get_group_id(0)] = r; }
}

kernel void add_sums(global int* out, global int* sums, int n) {
    int g = get_global_id(0);
    int grp = get_group_id(0);
    if (grp > 0 && g < n) {
        out[g] = out[g] + sums[grp - 1];
    }
}
`

func init() {
	register(&Spec{
		Name:       "ScanLargeArrays",
		Suite:      "AMD APP 2.5",
		PaperInput: "1048576 elements",
		SmallScale: 1 << 11, DefaultScale: 1 << 15, PaperScale: 1 << 20,
		Make: makeScan,
	})
}

func makeScan(n int) *Instance {
	r := rng(808)
	data := randI32s(r, n, 100)

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			prog, err := c.BuildProgram(ctx, scanSrc)
			if err != nil {
				return nil, err
			}
			kScan, err := prog.CreateKernel("group_scan")
			if err != nil {
				return nil, err
			}
			kAdd, err := prog.CreateKernel("add_sums")
			if err != nil {
				return nil, err
			}
			in, err := newBufI32(ctx, c, data)
			if err != nil {
				return nil, err
			}
			out, err := c.CreateBuffer(4 * roundUp(n, 256))
			if err != nil {
				return nil, err
			}

			// Recursive scan.
			var scan func(in, out *cl.Buffer, n int) error
			scan = func(in, out *cl.Buffer, n int) error {
				groups := (n + 255) / 256
				sums, err := c.CreateBuffer(4 * roundUp(groups, 256))
				if err != nil {
					return err
				}
				if err := kScan.SetArgs(in, out, sums, n); err != nil {
					return err
				}
				if err := c.EnqueueKernel(ctx, kScan, cl.G1(uint32(groups*256)), cl.G1(256)); err != nil {
					return err
				}
				if groups > 1 {
					sumsScanned, err := c.CreateBuffer(4 * roundUp(groups, 256))
					if err != nil {
						return err
					}
					if err := scan(sums, sumsScanned, groups); err != nil {
						return err
					}
					if err := kAdd.SetArgs(out, sumsScanned, n); err != nil {
						return err
					}
					if err := c.EnqueueKernel(ctx, kAdd, cl.G1(uint32(groups*256)), cl.G1(256)); err != nil {
						return err
					}
				}
				return nil
			}
			if err := scan(in, out, n); err != nil {
				return nil, err
			}
			return c.ReadI32(ctx, out, n)
		},
		Native: func() any {
			out := make([]int32, n)
			var acc int32
			for i, v := range data {
				acc += v
				out[i] = acc
			}
			return out
		},
	}
}
