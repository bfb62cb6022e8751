package workloads

import (
	"context"
	"math"

	"mobilesim/internal/cl"
)

// --- Back Propagation (Rodinia 3.1) ---------------------------------------------
//
// One forward pass of a two-layer perceptron (input -> 16 hidden units)
// plus the weight-adjust kernel. The layerforward kernel stages input
// slices and the weight tile through local memory, then tree-reduces; the
// adjust kernel is the global-traffic-heavy part that dominates backprop's
// data-access profile in Fig 12.

const backpropSrc = `
kernel void layerforward(global float* input, global float* weights, global float* partial,
                         int hid) {
    local float inputNode[16];
    local float weightMatrix[256];
    int by = get_group_id(1);
    int tx = get_local_id(0);
    int ty = get_local_id(1);
    int inputIndex = 16 * by + ty + 1;
    if (tx == 0) {
        inputNode[ty] = input[inputIndex];
    }
    barrier();
    int widx = inputIndex * (hid + 1) + tx + 1;
    weightMatrix[ty * 16 + tx] = weights[widx];
    barrier();
    weightMatrix[ty * 16 + tx] = weightMatrix[ty * 16 + tx] * inputNode[ty];
    barrier();
    for (int s = 8; s > 0; s = s >> 1) {
        if (ty < s) {
            weightMatrix[ty * 16 + tx] = weightMatrix[ty * 16 + tx] + weightMatrix[(ty + s) * 16 + tx];
        }
        barrier();
    }
    if (ty == 0) {
        partial[by * hid + tx] = weightMatrix[tx];
    }
}

kernel void adjust_weights(global float* delta, global float* ly, global float* w,
                           global float* oldw, int hid) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (j < hid) {
        int idx = (i + 1) * (hid + 1) + j + 1;
        float dw = 0.3f * delta[j + 1] * ly[i + 1] + 0.3f * oldw[idx];
        w[idx] = w[idx] + dw;
        oldw[idx] = dw;
    }
}
`

func init() {
	register(&Spec{
		Name:       "Backprop",
		Suite:      "Rodinia 3.1",
		PaperInput: "65536 input nodes",
		SmallScale: 256, DefaultScale: 1024, PaperScale: 65536,
		Make: makeBackprop,
	})
}

func makeBackprop(inN int) *Instance {
	const hid = 16
	inN = roundUp(inN, 16)
	r := rng(1717)
	// Layout mirrors Rodinia: units are 1-indexed, weights[(i)*(hid+1)+j].
	input := randF32s(r, inN+1, 0, 1)
	weights := randF32s(r, (inN+1)*(hid+1), -0.5, 0.5)
	oldw := make([]float32, (inN+1)*(hid+1))
	delta := randF32s(r, hid+1, -0.1, 0.1)

	type outputs struct {
		hidden []float32
		w      []float32
		oldw   []float32
	}
	flatten := func(o outputs) []float32 {
		out := append([]float32(nil), o.hidden...)
		out = append(out, o.w...)
		out = append(out, o.oldw...)
		return out
	}

	return &Instance{
		Tol: 2e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			bi, err := newBufF32(ctx, c, input)
			if err != nil {
				return nil, err
			}
			bw, err := newBufF32(ctx, c, weights)
			if err != nil {
				return nil, err
			}
			numBlocks := inN / 16
			bp, err := c.CreateBuffer(4 * numBlocks * hid)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, backpropSrc)
			if err != nil {
				return nil, err
			}
			kf, err := prog.CreateKernel("layerforward")
			if err != nil {
				return nil, err
			}
			if err := kf.SetArgs(bi, bw, bp, hid); err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, kf,
				cl.G2(16, uint32(numBlocks*16)), cl.G2(16, 16)); err != nil {
				return nil, err
			}
			partial, err := c.ReadF32(ctx, bp, numBlocks*hid)
			if err != nil {
				return nil, err
			}
			// Host-side: sum partials and squash (as Rodinia's host code does).
			hidden := make([]float32, hid+1)
			for j := 0; j < hid; j++ {
				var sum float32
				for b := 0; b < numBlocks; b++ {
					sum += partial[b*hid+j]
				}
				sum += weights[j+1] // bias row 0
				hidden[j+1] = float32(1.0 / (1.0 + math.Exp(-float64(sum))))
			}

			// Adjust weights.
			bd, err := newBufF32(ctx, c, delta)
			if err != nil {
				return nil, err
			}
			bo, err := newBufF32(ctx, c, oldw)
			if err != nil {
				return nil, err
			}
			ka, err := prog.CreateKernel("adjust_weights")
			if err != nil {
				return nil, err
			}
			if err := ka.SetArgs(bd, bi, bw, bo, hid); err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, ka, cl.G2(16, uint32(inN)), cl.G2(16, 16)); err != nil {
				return nil, err
			}
			wOut, err := c.ReadF32(ctx, bw, len(weights))
			if err != nil {
				return nil, err
			}
			oOut, err := c.ReadF32(ctx, bo, len(oldw))
			if err != nil {
				return nil, err
			}
			return flatten(outputs{hidden: hidden, w: wOut, oldw: oOut}), nil
		},
		Native: func() any {
			hidden := make([]float32, hid+1)
			numBlocks := inN / 16
			for j := 0; j < hid; j++ {
				var sum float32
				// Mirror the GPU's block-then-tree order for float parity.
				for b := 0; b < numBlocks; b++ {
					part := make([]float32, 16)
					for ty := 0; ty < 16; ty++ {
						idx := 16*b + ty + 1
						part[ty] = weights[idx*(hid+1)+j+1] * input[idx]
					}
					for s := 8; s > 0; s >>= 1 {
						for ty := 0; ty < s; ty++ {
							part[ty] += part[ty+s]
						}
					}
					sum += part[0]
				}
				sum += weights[j+1]
				hidden[j+1] = float32(1.0 / (1.0 + math.Exp(-float64(sum))))
			}
			w := append([]float32(nil), weights...)
			o := append([]float32(nil), oldw...)
			for i := 0; i < inN; i++ {
				for j := 0; j < hid; j++ {
					idx := (i+1)*(hid+1) + j + 1
					dw := 0.3*delta[j+1]*input[i+1] + 0.3*o[idx]
					w[idx] += dw
					o[idx] = dw
				}
			}
			out := append([]float32(nil), hidden...)
			out = append(out, w...)
			out = append(out, o...)
			return out
		},
	}
}

// --- Nearest Neighbor (Rodinia nn) -----------------------------------------------

const nnSrc = `
kernel void nn_dist(global float* lat, global float* lng, global float* dist,
                    int n, float tlat, float tlng) {
    int i = get_global_id(0);
    if (i < n) {
        float dlat = lat[i] - tlat;
        float dlng = lng[i] - tlng;
        dist[i] = sqrt(dlat * dlat + dlng * dlng);
    }
}
`

func init() {
	register(&Spec{
		Name:       "NearestNeighbor",
		Suite:      "Rodinia 3.1",
		PaperInput: "5 records, 30 lat, 90 long",
		SmallScale: 1 << 10, DefaultScale: 1 << 14, PaperScale: 1 << 16,
		Make: makeNN,
	})
}

func makeNN(n int) *Instance {
	r := rng(1818)
	lat := randF32s(r, n, 0, 60)
	lng := randF32s(r, n, 0, 180)
	const tlat, tlng = float32(30), float32(90)

	return &Instance{
		Tol: 1e-4,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			bla, err := newBufF32(ctx, c, lat)
			if err != nil {
				return nil, err
			}
			blo, err := newBufF32(ctx, c, lng)
			if err != nil {
				return nil, err
			}
			bd, err := c.CreateBuffer(4 * n)
			if err != nil {
				return nil, err
			}
			k, err := kernel1(ctx, c, nnSrc, "nn_dist", bla, blo, bd, n, tlat, tlng)
			if err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, k, cl.G1(uint32(roundUp(n, 64))), cl.G1(64)); err != nil {
				return nil, err
			}
			return c.ReadF32(ctx, bd, n)
		},
		Native: func() any {
			out := make([]float32, n)
			for i := range out {
				dlat := lat[i] - tlat
				dlng := lng[i] - tlng
				out[i] = float32(math.Sqrt(float64(dlat*dlat + dlng*dlng)))
			}
			return out
		},
	}
}

// --- clBLAS SGEMM ------------------------------------------------------------------

func init() {
	register(&Spec{
		Name:       "clBLAS-SGEMM",
		Suite:      "clBLAS",
		PaperInput: "1024x1024 matrices",
		SmallScale: 32, DefaultScale: 128, PaperScale: 1024,
		Make: func(scale int) *Instance {
			d := roundUp(scale, 16)
			return makeSgemm(d, d, d, 1919)
		},
	})
}
