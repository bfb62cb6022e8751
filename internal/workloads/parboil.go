package workloads

import (
	"context"
	"math"

	"mobilesim/internal/cl"
)

// --- Breadth First Search (Parboil) ---------------------------------------------
//
// Level-synchronous BFS: one kernel launch per frontier level with a
// host-read "changed" flag — the job-count and control-traffic heavy
// workload of Table III, and the divergence showcase of Fig 6.

const bfsSrc = `
kernel void bfs_step(global int* offsets, global int* edges, global int* dist,
                     global int* changed, int level, int n) {
    int u = get_global_id(0);
    if (u < n) {
        if (dist[u] == level) {
            int first = offsets[u];
            int last = offsets[u + 1];
            for (int e = first; e < last; e++) {
                int v = edges[e];
                if (dist[v] == -1) {
                    dist[v] = level + 1;
                    changed[0] = 1;
                }
            }
        }
    }
}
`

func init() {
	register(&Spec{
		Name:       "BFS",
		Suite:      "Parboil",
		PaperInput: "1257001 nodes",
		SmallScale: 1 << 10, DefaultScale: 1 << 13, PaperScale: 1257001,
		Make: makeBFS,
	})
}

// bfsGraph builds a connected random graph in CSR form.
func bfsGraph(n int, seed int64) (offsets, edges []int32) {
	r := rng(seed)
	adj := make([][]int32, n)
	// Spanning chain for connectivity plus random extra edges.
	for v := 1; v < n; v++ {
		u := r.Intn(v)
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	extra := n * 2
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			adj[u] = append(adj[u], int32(v))
		}
	}
	offsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int32(len(adj[v]))
		edges = append(edges, adj[v]...)
	}
	return offsets, edges
}

func makeBFS(n int) *Instance {
	offsets, edges := bfsGraph(n, 1313)

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			bo, err := newBufI32(ctx, c, offsets)
			if err != nil {
				return nil, err
			}
			be, err := newBufI32(ctx, c, edges)
			if err != nil {
				return nil, err
			}
			dist := make([]int32, n)
			for i := range dist {
				dist[i] = -1
			}
			dist[0] = 0
			bd, err := newBufI32(ctx, c, dist)
			if err != nil {
				return nil, err
			}
			bc, err := c.CreateBuffer(4)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, bfsSrc)
			if err != nil {
				return nil, err
			}
			k, err := prog.CreateKernel("bfs_step")
			if err != nil {
				return nil, err
			}
			for level := 0; ; level++ {
				if err := c.WriteI32(ctx, bc, []int32{0}); err != nil {
					return nil, err
				}
				if err := k.SetArgs(bo, be, bd, bc, level, n); err != nil {
					return nil, err
				}
				if err := c.EnqueueKernel(ctx, k, cl.G1(uint32(roundUp(n, 64))), cl.G1(64)); err != nil {
					return nil, err
				}
				ch, err := c.ReadI32(ctx, bc, 1)
				if err != nil {
					return nil, err
				}
				if ch[0] == 0 {
					break
				}
			}
			return c.ReadI32(ctx, bd, n)
		},
		Native: func() any {
			dist := make([]int32, n)
			for i := range dist {
				dist[i] = -1
			}
			dist[0] = 0
			frontier := []int32{0}
			for level := int32(0); len(frontier) > 0; level++ {
				var next []int32
				for _, u := range frontier {
					for e := offsets[u]; e < offsets[u+1]; e++ {
						v := edges[e]
						if dist[v] == -1 {
							dist[v] = level + 1
							next = append(next, v)
						}
					}
				}
				frontier = next
			}
			return dist
		},
	}
}

// --- Cutoff Coulombic Potential (Parboil cutcp) ------------------------------------

const cutcpSrc = `
kernel void cutcp(global float* atoms, global float* grid,
                  int nx, int ny, int nz, int natoms, float cutoff2, float spacing) {
    int i = get_global_id(0);
    int total = nx * ny * nz;
    if (i < total) {
        int z = i / (nx * ny);
        int rem = i % (nx * ny);
        int y = rem / nx;
        int x = rem % nx;
        float gx = (float)x * spacing;
        float gy = (float)y * spacing;
        float gz = (float)z * spacing;
        float e = 0.0f;
        for (int a = 0; a < natoms; a++) {
            float dx = atoms[4 * a] - gx;
            float dy = atoms[4 * a + 1] - gy;
            float dz = atoms[4 * a + 2] - gz;
            float r2 = dx * dx + dy * dy + dz * dz;
            if (r2 < cutoff2 && r2 > 0.0001f) {
                float s = 1.0f - r2 / cutoff2;
                e += atoms[4 * a + 3] / sqrt(r2) * s * s;
            }
        }
        grid[i] = e;
    }
}
`

func init() {
	register(&Spec{
		Name:       "Cutcp",
		Suite:      "Parboil",
		PaperInput: "67 atoms",
		SmallScale: 8, DefaultScale: 16, PaperScale: 32, // grid edge; 67 atoms fixed
		Make: makeCutcp,
	})
}

func makeCutcp(edge int) *Instance {
	const natoms = 67
	nx, ny, nz := edge, edge, edge
	const spacing = float32(0.5)
	const cutoff = float32(4.0)
	cutoff2 := cutoff * cutoff
	r := rng(1414)
	atoms := make([]float32, 4*natoms)
	for a := 0; a < natoms; a++ {
		atoms[4*a] = r.Float32()*float32(nx)*spacing + 0.123
		atoms[4*a+1] = r.Float32()*float32(ny)*spacing + 0.217
		atoms[4*a+2] = r.Float32()*float32(nz)*spacing + 0.391
		atoms[4*a+3] = r.Float32()*2 - 1
	}
	total := nx * ny * nz

	return &Instance{
		Tol: 2e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			ba, err := newBufF32(ctx, c, atoms)
			if err != nil {
				return nil, err
			}
			bg, err := c.CreateBuffer(4 * total)
			if err != nil {
				return nil, err
			}
			k, err := kernel1(ctx, c, cutcpSrc, "cutcp", ba, bg, nx, ny, nz, natoms, cutoff2, spacing)
			if err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, k, cl.G1(uint32(roundUp(total, 64))), cl.G1(64)); err != nil {
				return nil, err
			}
			return c.ReadF32(ctx, bg, total)
		},
		Native: func() any {
			grid := make([]float32, total)
			for i := 0; i < total; i++ {
				z := i / (nx * ny)
				rem := i % (nx * ny)
				y := rem / nx
				x := rem % nx
				gx := float32(x) * spacing
				gy := float32(y) * spacing
				gz := float32(z) * spacing
				var e float32
				for a := 0; a < natoms; a++ {
					dx := atoms[4*a] - gx
					dy := atoms[4*a+1] - gy
					dz := atoms[4*a+2] - gz
					r2 := dx*dx + dy*dy + dz*dz
					if r2 < cutoff2 && r2 > 0.0001 {
						s := 1 - r2/cutoff2
						e += atoms[4*a+3] / float32(math.Sqrt(float64(r2))) * s * s
					}
				}
				grid[i] = e
			}
			return grid
		},
	}
}

// --- SGEMM (Parboil) -----------------------------------------------------------------

// SgemmSrc is the straightforward SGEMM kernel; it is also variant 1 of
// the Fig 15 study.
const SgemmSrc = `
kernel void sgemm(global float* a, global float* b, global float* c,
                  int m, int n, int k, float alpha, float beta) {
    int col = get_global_id(0);
    int row = get_global_id(1);
    if (row < m && col < n) {
        float acc = 0.0f;
        for (int i = 0; i < k; i++) {
            acc += a[row * k + i] * b[i * n + col];
        }
        c[row * n + col] = alpha * acc + beta * c[row * n + col];
    }
}
`

func init() {
	register(&Spec{
		Name:       "SGEMM",
		Suite:      "Parboil",
		PaperInput: "128x96, 96x160 matrices",
		SmallScale: 32, DefaultScale: 96, PaperScale: 96,
		Make: func(scale int) *Instance {
			// Paper shapes at PaperScale: m=128, k=96, n=160.
			m := roundUp(scale*4/3, 16)
			k := roundUp(scale, 16)
			n := roundUp(scale*5/3, 16)
			return makeSgemm(m, n, k, 1313)
		},
	})
}

func makeSgemm(m, n, k int, seed int64) *Instance {
	r := rng(seed)
	a := randF32s(r, m*k, -1, 1)
	b := randF32s(r, k*n, -1, 1)
	c0 := randF32s(r, m*n, -1, 1)
	const alpha, beta = float32(1.5), float32(0.5)

	return &Instance{
		Tol: 1e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			ba, err := newBufF32(ctx, c, a)
			if err != nil {
				return nil, err
			}
			bb, err := newBufF32(ctx, c, b)
			if err != nil {
				return nil, err
			}
			bc, err := newBufF32(ctx, c, c0)
			if err != nil {
				return nil, err
			}
			kk, err := kernel1(ctx, c, SgemmSrc, "sgemm", ba, bb, bc, m, n, k, alpha, beta)
			if err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, kk, cl.G2(uint32(n), uint32(m)), cl.G2(16, 16)); err != nil {
				return nil, err
			}
			return c.ReadF32(ctx, bc, m*n)
		},
		Native: func() any {
			out := make([]float32, m*n)
			for row := 0; row < m; row++ {
				for col := 0; col < n; col++ {
					var acc float32
					for i := 0; i < k; i++ {
						acc += a[row*k+i] * b[i*n+col]
					}
					out[row*n+col] = alpha*acc + beta*c0[row*n+col]
				}
			}
			return out
		},
	}
}

// --- SpMV (Parboil) -------------------------------------------------------------------

const spmvSrc = `
kernel void spmv(global int* rowptr, global int* cols, global float* vals,
                 global float* x, global float* y, int n) {
    int row = get_global_id(0);
    if (row < n) {
        float acc = 0.0f;
        for (int j = rowptr[row]; j < rowptr[row + 1]; j++) {
            acc += vals[j] * x[cols[j]];
        }
        y[row] = acc;
    }
}
`

func init() {
	register(&Spec{
		Name:       "SPMV",
		Suite:      "Parboil",
		PaperInput: "1138x1138 matrix, 2596 non-zeros",
		SmallScale: 256, DefaultScale: 1138, PaperScale: 1138,
		Make: makeSpmv,
	})
}

func makeSpmv(n int) *Instance {
	r := rng(1515)
	nnzPerRow := 3
	rowptr := make([]int32, n+1)
	var cols []int32
	var vals []float32
	for row := 0; row < n; row++ {
		cnt := 1 + r.Intn(nnzPerRow*2)
		for j := 0; j < cnt; j++ {
			cols = append(cols, int32(r.Intn(n)))
			vals = append(vals, r.Float32()*2-1)
		}
		rowptr[row+1] = int32(len(cols))
	}
	x := randF32s(r, n, -1, 1)

	return &Instance{
		Tol: 1e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			br, err := newBufI32(ctx, c, rowptr)
			if err != nil {
				return nil, err
			}
			bc, err := newBufI32(ctx, c, cols)
			if err != nil {
				return nil, err
			}
			bv, err := newBufF32(ctx, c, vals)
			if err != nil {
				return nil, err
			}
			bx, err := newBufF32(ctx, c, x)
			if err != nil {
				return nil, err
			}
			by, err := c.CreateBuffer(4 * n)
			if err != nil {
				return nil, err
			}
			k, err := kernel1(ctx, c, spmvSrc, "spmv", br, bc, bv, bx, by, n)
			if err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, k, cl.G1(uint32(roundUp(n, 64))), cl.G1(64)); err != nil {
				return nil, err
			}
			return c.ReadF32(ctx, by, n)
		},
		Native: func() any {
			y := make([]float32, n)
			for row := 0; row < n; row++ {
				var acc float32
				for j := rowptr[row]; j < rowptr[row+1]; j++ {
					acc += vals[j] * x[cols[j]]
				}
				y[row] = acc
			}
			return y
		},
	}
}

// --- Stencil (Parboil) ---------------------------------------------------------------
//
// 3-D 7-point Jacobi stencil, iterated with ping-pong buffers: one compute
// job per iteration (Table III shows stencil submitting 100 jobs).

const stencilSrc = `
kernel void stencil7(global float* in, global float* out,
                     int nx, int ny, int nz, float c0, float c1) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int z = get_global_id(2);
    if (x < nx && y < ny && z < nz) {
        int i = z * nx * ny + y * nx + x;
        if (x > 0 && x < nx - 1 && y > 0 && y < ny - 1 && z > 0 && z < nz - 1) {
            float s = in[i - 1] + in[i + 1]
                    + in[i - nx] + in[i + nx]
                    + in[i - nx * ny] + in[i + nx * ny];
            out[i] = c1 * s + c0 * in[i];
        } else {
            out[i] = in[i];
        }
    }
}
`

func init() {
	register(&Spec{
		Name:       "Stencil",
		Suite:      "Parboil",
		PaperInput: "128x128x32 grid, 100 iterations",
		SmallScale: 8, DefaultScale: 16, PaperScale: 64,
		Make: makeStencil,
	})
}

func makeStencil(edge int) *Instance {
	nx, ny := roundUp(edge, 8), roundUp(edge, 8)
	nz := nx / 2
	if nz < 4 {
		nz = 4
	}
	iters := 100
	if edge < 16 {
		iters = 10 // keep unit tests quick; the bench uses larger scales
	}
	const c0, c1 = float32(0.5), float32(1.0 / 12.0)
	r := rng(1616)
	total := nx * ny * nz
	init0 := randF32s(r, total, 0, 1)

	return &Instance{
		Tol: 1e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			a, err := newBufF32(ctx, c, init0)
			if err != nil {
				return nil, err
			}
			b, err := c.CreateBuffer(4 * total)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, stencilSrc)
			if err != nil {
				return nil, err
			}
			k, err := prog.CreateKernel("stencil7")
			if err != nil {
				return nil, err
			}
			src, dst := a, b
			for it := 0; it < iters; it++ {
				if err := k.SetArgs(src, dst, nx, ny, nz, c0, c1); err != nil {
					return nil, err
				}
				if err := c.EnqueueKernel(ctx, k,
					[3]uint32{uint32(nx), uint32(ny), uint32(nz)},
					[3]uint32{8, 8, 1}); err != nil {
					return nil, err
				}
				src, dst = dst, src
			}
			return c.ReadF32(ctx, src, total)
		},
		Native: func() any {
			cur := append([]float32(nil), init0...)
			next := make([]float32, total)
			for it := 0; it < iters; it++ {
				for z := 0; z < nz; z++ {
					for y := 0; y < ny; y++ {
						for x := 0; x < nx; x++ {
							i := z*nx*ny + y*nx + x
							if x > 0 && x < nx-1 && y > 0 && y < ny-1 && z > 0 && z < nz-1 {
								s := cur[i-1] + cur[i+1] + cur[i-nx] + cur[i+nx] +
									cur[i-nx*ny] + cur[i+nx*ny]
								next[i] = c1*s + c0*cur[i]
							} else {
								next[i] = cur[i]
							}
						}
					}
				}
				cur, next = next, cur
			}
			return cur
		},
	}
}
