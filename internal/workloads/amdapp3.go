package workloads

import (
	"context"
	"math"

	"mobilesim/internal/cl"
)

// --- SobelFilter (AMD APP 2.5) ----------------------------------------------------
//
// 3x3 Sobel edge detection over an 8-bit image: the compute-dense,
// straight-line kernel of Fig 11 and the scaling star of Figs 9/10.

const sobelSrc = `
kernel void sobel(global uchar* in, global uchar* out, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        int i00 = in[(y - 1) * w + x - 1];
        int i10 = in[(y - 1) * w + x];
        int i20 = in[(y - 1) * w + x + 1];
        int i01 = in[y * w + x - 1];
        int i21 = in[y * w + x + 1];
        int i02 = in[(y + 1) * w + x - 1];
        int i12 = in[(y + 1) * w + x];
        int i22 = in[(y + 1) * w + x + 1];
        int gx = i00 + 2 * i01 + i02 - i20 - 2 * i21 - i22;
        int gy = i00 + 2 * i10 + i20 - i02 - 2 * i12 - i22;
        float m = sqrt((float)(gx * gx + gy * gy)) / 2.0f;
        out[y * w + x] = min((int)m, 255);
    } else if (x < w && y < h) {
        out[y * w + x] = 0;
    }
}
`

func init() {
	register(&Spec{
		Name:       "SobelFilter",
		Suite:      "AMD APP 2.5",
		PaperInput: "1536x1536 image",
		SmallScale: 64, DefaultScale: 256, PaperScale: 1536,
		Make: makeSobel,
	})
}

func makeSobel(dim int) *Instance {
	w := roundUp(dim, 16)
	h := w
	r := rng(909)
	img := randBytes(r, w*h)

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			in, err := newBufU8(ctx, c, img)
			if err != nil {
				return nil, err
			}
			out, err := c.CreateBuffer(w * h)
			if err != nil {
				return nil, err
			}
			k, err := kernel1(ctx, c, sobelSrc, "sobel", in, out, w, h)
			if err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, k, cl.G2(uint32(w), uint32(h)), cl.G2(16, 16)); err != nil {
				return nil, err
			}
			return c.ReadBuffer(ctx, out, w*h)
		},
		Native: func() any {
			out := make([]byte, w*h)
			for y := 1; y < h-1; y++ {
				for x := 1; x < w-1; x++ {
					i00 := int(img[(y-1)*w+x-1])
					i10 := int(img[(y-1)*w+x])
					i20 := int(img[(y-1)*w+x+1])
					i01 := int(img[y*w+x-1])
					i21 := int(img[y*w+x+1])
					i02 := int(img[(y+1)*w+x-1])
					i12 := int(img[(y+1)*w+x])
					i22 := int(img[(y+1)*w+x+1])
					gx := i00 + 2*i01 + i02 - i20 - 2*i21 - i22
					gy := i00 + 2*i10 + i20 - i02 - 2*i12 - i22
					m := float32(math.Sqrt(float64(float32(gx*gx+gy*gy)))) / 2
					v := int(m)
					if v > 255 {
						v = 255
					}
					out[y*w+x] = byte(v)
				}
			}
			return out
		},
	}
}

// --- URNG (AMD APP 2.5) --------------------------------------------------------------
//
// Uniform random noise generator: per-pixel LCG noise injection.

const urngSrc = `
kernel void urng(global uchar* in, global uchar* out, int factor, int n) {
    int i = get_global_id(0);
    if (i < n) {
        int seed = i * 214013 + 2531011;
        seed = seed * 214013 + 2531011;
        int r = (seed >> 16) & 255;
        int noise = (r % (2 * factor + 1)) - factor;
        int v = in[i] + noise;
        out[i] = min(max(v, 0), 255);
    }
}
`

func init() {
	register(&Spec{
		Name:       "URNG",
		Suite:      "AMD APP 2.5",
		PaperInput: "1536x1536 image",
		SmallScale: 64, DefaultScale: 256, PaperScale: 1536,
		Make: makeURNG,
	})
}

func makeURNG(dim int) *Instance {
	n := dim * dim
	r := rng(1010)
	img := randBytes(r, n)
	const factor = 15

	return &Instance{
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			in, err := newBufU8(ctx, c, img)
			if err != nil {
				return nil, err
			}
			out, err := c.CreateBuffer(n)
			if err != nil {
				return nil, err
			}
			k, err := kernel1(ctx, c, urngSrc, "urng", in, out, factor, n)
			if err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, k, cl.G1(uint32(roundUp(n, 64))), cl.G1(64)); err != nil {
				return nil, err
			}
			return c.ReadBuffer(ctx, out, n)
		},
		Native: func() any {
			out := make([]byte, n)
			for i := range out {
				seed := int32(i)*214013 + 2531011
				seed = seed*214013 + 2531011
				r := (seed >> 16) & 255
				noise := int(r%(2*factor+1)) - factor
				v := int(img[i]) + noise
				if v < 0 {
					v = 0
				}
				if v > 255 {
					v = 255
				}
				out[i] = byte(v)
			}
			return out
		},
	}
}

// --- RecursiveGaussian (AMD APP 2.5) ----------------------------------------------------
//
// Recursive (IIR) Gaussian approximation: forward+backward passes along
// rows, then along columns. One thread per row/column — long sequential
// inner loops, the bimodal clause-size benchmark of Fig 13.

const rgaussSrc = `
kernel void rgauss_rows(global float* in, global float* out, int w, int h, float a) {
    int y = get_global_id(0);
    if (y < h) {
        float yp = in[y * w];
        out[y * w] = yp;
        for (int x = 1; x < w; x++) {
            float xc = in[y * w + x];
            float yc = xc + (yp - xc) * a;
            out[y * w + x] = yc;
            yp = yc;
        }
        yp = out[y * w + w - 1];
        for (int x = w - 2; x >= 0; x--) {
            float xc = out[y * w + x];
            float yc = xc + (yp - xc) * a;
            out[y * w + x] = yc;
            yp = yc;
        }
    }
}

kernel void rgauss_cols(global float* in, global float* out, int w, int h, float a) {
    int x = get_global_id(0);
    if (x < w) {
        float yp = in[x];
        out[x] = yp;
        for (int y = 1; y < h; y++) {
            float xc = in[y * w + x];
            float yc = xc + (yp - xc) * a;
            out[y * w + x] = yc;
            yp = yc;
        }
        yp = out[(h - 1) * w + x];
        for (int y = h - 2; y >= 0; y--) {
            float xc = out[y * w + x];
            float yc = xc + (yp - xc) * a;
            out[y * w + x] = yc;
            yp = yc;
        }
    }
}
`

func init() {
	register(&Spec{
		Name:       "RecursiveGaussian",
		Suite:      "AMD APP 2.5",
		PaperInput: "1536x1536 image",
		SmallScale: 32, DefaultScale: 128, PaperScale: 1536,
		Make: makeRGauss,
	})
}

func makeRGauss(dim int) *Instance {
	w, h := dim, dim
	r := rng(1111)
	img := randF32s(r, w*h, 0, 255)
	const alpha = float32(0.6)

	rowPass := func(src, dst []float32) {
		for y := 0; y < h; y++ {
			yp := src[y*w]
			dst[y*w] = yp
			for x := 1; x < w; x++ {
				xc := src[y*w+x]
				yc := xc + (yp-xc)*alpha
				dst[y*w+x] = yc
				yp = yc
			}
			yp = dst[y*w+w-1]
			for x := w - 2; x >= 0; x-- {
				xc := dst[y*w+x]
				yc := xc + (yp-xc)*alpha
				dst[y*w+x] = yc
				yp = yc
			}
		}
	}
	colPass := func(src, dst []float32) {
		for x := 0; x < w; x++ {
			yp := src[x]
			dst[x] = yp
			for y := 1; y < h; y++ {
				xc := src[y*w+x]
				yc := xc + (yp-xc)*alpha
				dst[y*w+x] = yc
				yp = yc
			}
			yp = dst[(h-1)*w+x]
			for y := h - 2; y >= 0; y-- {
				xc := dst[y*w+x]
				yc := xc + (yp-xc)*alpha
				dst[y*w+x] = yc
				yp = yc
			}
		}
	}

	return &Instance{
		Tol: 1e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			in, err := newBufF32(ctx, c, img)
			if err != nil {
				return nil, err
			}
			tmp, err := c.CreateBuffer(4 * w * h)
			if err != nil {
				return nil, err
			}
			out, err := c.CreateBuffer(4 * w * h)
			if err != nil {
				return nil, err
			}
			prog, err := c.BuildProgram(ctx, rgaussSrc)
			if err != nil {
				return nil, err
			}
			kr, err := prog.CreateKernel("rgauss_rows")
			if err != nil {
				return nil, err
			}
			kc, err := prog.CreateKernel("rgauss_cols")
			if err != nil {
				return nil, err
			}
			if err := kr.SetArgs(in, tmp, w, h, alpha); err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, kr, cl.G1(uint32(roundUp(h, 32))), cl.G1(32)); err != nil {
				return nil, err
			}
			if err := kc.SetArgs(tmp, out, w, h, alpha); err != nil {
				return nil, err
			}
			if err := c.EnqueueKernel(ctx, kc, cl.G1(uint32(roundUp(w, 32))), cl.G1(32)); err != nil {
				return nil, err
			}
			return c.ReadF32(ctx, out, w*h)
		},
		Native: func() any {
			tmp := make([]float32, w*h)
			out := make([]float32, w*h)
			rowPass(img, tmp)
			colPass(tmp, out)
			return out
		},
	}
}

// --- BinomialOption (AMD APP 2.5) ----------------------------------------------------
//
// Binomial option pricing: one workgroup per option, the lattice walked
// backward through local memory with a barrier per step.

const binomialSrc = `
kernel void binomial(global float* randArr, global float* output, int steps) {
    local float callA[256];
    local float callB[256];
    int tid = get_local_id(0);
    int bid = get_group_id(0);
    float inRand = randArr[bid];
    float sPrice = (1.0f - inRand) * 5.0f + inRand * 30.0f;
    float strike = (1.0f - inRand) * 1.0f + inRand * 100.0f;
    float years = (1.0f - inRand) * 0.25f + inRand * 10.0f;
    float dt = years / (float)steps;
    float vsdt = 0.3f * sqrt(dt);
    float rdt = 0.02f * dt;
    float rr = exp(rdt);
    float rInv = 1.0f / rr;
    float u = exp(vsdt);
    float d = 1.0f / u;
    float pu = (rr - d) / (u - d);
    float pd = 1.0f - pu;
    float puByr = pu * rInv;
    float pdByr = pd * rInv;
    float price = sPrice * exp(vsdt * (2.0f * (float)tid - (float)steps));
    callA[tid] = fmax(price - strike, 0.0f);
    barrier();
    for (int j = steps; j > 0; j--) {
        if (tid < j) {
            callB[tid] = puByr * callA[tid + 1] + pdByr * callA[tid];
        }
        barrier();
        if (tid < j) {
            callA[tid] = callB[tid];
        }
        barrier();
    }
    if (tid == 0) { output[bid] = callA[0]; }
}
`

func init() {
	register(&Spec{
		Name:       "BinomialOption",
		Suite:      "AMD APP 2.5",
		PaperInput: "512 samples",
		SmallScale: 4, DefaultScale: 64, PaperScale: 512,
		Make: makeBinomial,
	})
}

func makeBinomial(numOptions int) *Instance {
	const steps = 63 // lattice steps; workgroup = steps+1 threads
	r := rng(1212)
	rands := randF32s(r, numOptions, 0.05, 0.95)

	native := func() []float32 {
		out := make([]float32, numOptions)
		callA := make([]float32, steps+2)
		callB := make([]float32, steps+2)
		for b := 0; b < numOptions; b++ {
			inRand := rands[b]
			sPrice := (1-inRand)*5 + inRand*30
			strike := (1-inRand)*1 + inRand*100
			years := (1-inRand)*0.25 + inRand*10
			dt := years / steps
			vsdt := 0.3 * float32(math.Sqrt(float64(dt)))
			rdt := 0.02 * dt
			rr := float32(math.Exp(float64(rdt)))
			rInv := 1 / rr
			u := float32(math.Exp(float64(vsdt)))
			d := 1 / u
			pu := (rr - d) / (u - d)
			pd := 1 - pu
			puByr := pu * rInv
			pdByr := pd * rInv
			for t := 0; t <= steps; t++ {
				price := sPrice * float32(math.Exp(float64(vsdt*(2*float32(t)-steps))))
				v := price - strike
				if v < 0 {
					v = 0
				}
				callA[t] = v
			}
			for j := steps; j > 0; j-- {
				for t := 0; t < j; t++ {
					callB[t] = puByr*callA[t+1] + pdByr*callA[t]
				}
				copy(callA[:j], callB[:j])
			}
			out[b] = callA[0]
		}
		return out
	}

	return &Instance{
		Tol: 5e-3,
		Sim: func(ctx context.Context, c *cl.Context) (any, error) {
			in, err := newBufF32(ctx, c, rands)
			if err != nil {
				return nil, err
			}
			out, err := c.CreateBuffer(4 * numOptions)
			if err != nil {
				return nil, err
			}
			k, err := kernel1(ctx, c, binomialSrc, "binomial", in, out, steps)
			if err != nil {
				return nil, err
			}
			wg := uint32(steps + 1)
			if err := c.EnqueueKernel(ctx, k, cl.G1(uint32(numOptions)*wg), cl.G1(wg)); err != nil {
				return nil, err
			}
			return c.ReadF32(ctx, out, numOptions)
		},
		Native: func() any { return native() },
	}
}
