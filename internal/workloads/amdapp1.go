package workloads

import (
	"context"
	"sort"

	"mobilesim/internal/cl"
)

// --- BinarySearch (AMD APP 2.5) ---------------------------------------------
//
// The AMD formulation: the sorted array is cut into segments, one work-item
// per segment checks whether the key falls inside its segment, and the host
// narrows the range and relaunches — an iterative workload with tiny
// kernels and heavy CPU interaction, which is why it neither benefits from
// host-thread scaling (Fig 10) nor flatters full-system simulation (Fig 8).

const binarySearchSrc = `
kernel void bsearch_step(global int* arr, global int* res, int key, int lo, int seg, int n) {
    int i = get_global_id(0);
    int first = lo + i * seg;
    int last = first + seg - 1;
    if (last > n - 1) { last = n - 1; }
    if (first <= last) {
        int a = arr[first];
        int b = arr[last];
        if (a <= key && key <= b) {
            res[0] = first;
            res[1] = last;
        }
    }
}
`

func init() {
	register(&Spec{
		Name:       "BinarySearch",
		Suite:      "AMD APP 2.5",
		PaperInput: "16777216 elements",
		SmallScale: 1 << 12, DefaultScale: 1 << 16, PaperScale: 1 << 24,
		Make: makeBinarySearch,
	})
}

func makeBinarySearch(n int) *Instance {
	const segments = 256
	const numKeys = 8
	r := rng(101)
	arr := make([]int32, n)
	v := int32(0)
	for i := range arr {
		v += r.Int31n(3)
		arr[i] = v
	}
	keys := make([]int32, numKeys)
	for i := range keys {
		keys[i] = arr[r.Intn(n)]
	}

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			bArr, err := newBufI32(ctx, c, arr)
			if err != nil {
				return nil, err
			}
			bRes, err := c.CreateBuffer(8)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, binarySearchSrc)
			if err != nil {
				return nil, err
			}
			k, err := prog.CreateKernel("bsearch_step")
			if err != nil {
				return nil, err
			}
			out := make([]int32, numKeys)
			for ki, key := range keys {
				lo, size := 0, n
				for size > 1 {
					seg := (size + segments - 1) / segments
					if err := c.WriteI32(ctx, bRes, []int32{int32(lo), int32(lo + size - 1)}); err != nil {
						return nil, err
					}
					if err := k.SetArgs(bArr, bRes, key, lo, seg, n); err != nil {
						return nil, err
					}
					if err := c.EnqueueKernel(ctx, k, cl.G1(segments), cl.G1(64)); err != nil {
						return nil, err
					}
					res, err := c.ReadI32(ctx, bRes, 2)
					if err != nil {
						return nil, err
					}
					lo = int(res[0])
					size = int(res[1]-res[0]) + 1
				}
				out[ki] = arr[lo]
			}
			return out, nil
		},
		Native: func() any {
			out := make([]int32, numKeys)
			for ki, key := range keys {
				i := sort.Search(n, func(i int) bool { return arr[i] >= key })
				out[ki] = arr[i]
			}
			return out
		},
	}
}

// --- BitonicSort (AMD APP 2.5) ------------------------------------------------
//
// log²(n) kernel launches of the classic compare-exchange network.

const bitonicSrc = `
kernel void bitonic(global int* a, int stage, int dist) {
    int t = get_global_id(0);
    int lo = (t % dist) + (t / dist) * 2 * dist;
    int hi = lo + dist;
    int l = a[lo];
    int r = a[hi];
    int up = ((t >> stage) & 1) == 0;
    int less = min(l, r);
    int more = max(l, r);
    if (up) {
        a[lo] = less;
        a[hi] = more;
    } else {
        a[lo] = more;
        a[hi] = less;
    }
}
`

func init() {
	register(&Spec{
		Name:       "BitonicSort",
		Suite:      "AMD APP 2.5",
		PaperInput: "2048 elements",
		SmallScale: 256, DefaultScale: 2048, PaperScale: 2048,
		Make: makeBitonicSort,
	})
}

func makeBitonicSort(n int) *Instance {
	n = nextPow2(n)
	r := rng(202)
	data := randI32s(r, n, 1<<30)

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			buf, err := newBufI32(ctx, c, data)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, bitonicSrc)
			if err != nil {
				return nil, err
			}
			k, err := prog.CreateKernel("bitonic")
			if err != nil {
				return nil, err
			}
			half := n / 2
			wg := 64
			if half < wg {
				wg = half
			}
			for stage := 0; 1<<(stage+1) <= n; stage++ {
				for dist := 1 << stage; dist > 0; dist >>= 1 {
					if err := k.SetArgs(buf, stage, dist); err != nil {
						return nil, err
					}
					if err := c.EnqueueKernel(ctx, k, cl.G1(uint32(half)), cl.G1(uint32(wg))); err != nil {
						return nil, err
					}
				}
			}
			return c.ReadI32(ctx, buf, n)
		},
		Native: func() any {
			out := append([]int32(nil), data...)
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		},
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// --- MatrixTranspose (AMD APP 2.5) ---------------------------------------------
//
// Tiled transpose staging 16x16 tiles through local memory.

const transposeSrc = `
kernel void mtranspose(global float* in, global float* out, int w, int h) {
    local float tile[256];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int x = get_global_id(0);
    int y = get_global_id(1);
    tile[ly * 16 + lx] = in[y * w + x];
    barrier();
    int ox = get_group_id(1) * 16 + lx;
    int oy = get_group_id(0) * 16 + ly;
    out[oy * h + ox] = tile[lx * 16 + ly];
}
`

func init() {
	register(&Spec{
		Name:       "MatrixTranspose",
		Suite:      "AMD APP 2.5",
		PaperInput: "3008x3008 matrix",
		SmallScale: 64, DefaultScale: 256, PaperScale: 3008,
		Make: makeTranspose,
	})
}

func makeTranspose(dim int) *Instance {
	w := roundUp(dim, 16)
	h := w
	r := rng(303)
	data := randF32s(r, w*h, -10, 10)

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			in, err := newBufF32(ctx, c, data)
			if err != nil {
				return nil, err
			}
			out, err := c.CreateBuffer(4 * w * h)
			if err != nil {
				return nil, err
			}
			k, err := kernel1(ctx, c, transposeSrc, "mtranspose", in, out, w, h)
			if err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, k, cl.G2(uint32(w), uint32(h)), cl.G2(16, 16)); err != nil {
				return nil, err
			}
			return c.ReadF32(ctx, out, w*h)
		},
		Native: func() any {
			out := make([]float32, w*h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					out[x*h+y] = data[y*w+x]
				}
			}
			return out
		},
	}
}

// --- FloydWarshall (AMD APP 2.5) -----------------------------------------------
//
// n kernel launches, one per pivot vertex.

const floydSrc = `
kernel void floyd(global int* d, int n, int k) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < n && y < n) {
        int direct = d[y * n + x];
        int through = d[y * n + k] + d[k * n + x];
        d[y * n + x] = min(direct, through);
    }
}
`

func init() {
	register(&Spec{
		Name:       "FloydWarshall",
		Suite:      "AMD APP 2.5",
		PaperInput: "256 nodes",
		SmallScale: 32, DefaultScale: 128, PaperScale: 256,
		Make: makeFloyd,
	})
}

func makeFloyd(n int) *Instance {
	n = roundUp(n, 16)
	r := rng(404)
	const inf = 1 << 20
	d0 := make([]int32, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			switch {
			case x == y:
				d0[y*n+x] = 0
			case r.Intn(100) < 20:
				d0[y*n+x] = 1 + r.Int31n(100)
			default:
				d0[y*n+x] = inf
			}
		}
	}

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			buf, err := newBufI32(ctx, c, d0)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, floydSrc)
			if err != nil {
				return nil, err
			}
			k, err := prog.CreateKernel("floyd")
			if err != nil {
				return nil, err
			}
			for piv := 0; piv < n; piv++ {
				if err := k.SetArgs(buf, n, piv); err != nil {
					return nil, err
				}
				if err := c.EnqueueKernel(ctx, k, cl.G2(uint32(n), uint32(n)), cl.G2(16, 16)); err != nil {
					return nil, err
				}
			}
			return c.ReadI32(ctx, buf, n*n)
		},
		Native: func() any {
			d := append([]int32(nil), d0...)
			for k := 0; k < n; k++ {
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						if t := d[y*n+k] + d[k*n+x]; t < d[y*n+x] {
							d[y*n+x] = t
						}
					}
				}
			}
			return d
		},
	}
}
