// Package slam implements the paper's SLAMBench use case (§V-E1): a
// KFusion-style dense-SLAM pipeline of nine OpenCL kernels whose dataflow
// is orchestrated by CPU-side code, executed frame by frame on the full
// simulated stack. The original consumes an RGB-D trajectory and runs tens
// of thousands of kernels; the paper's point is that a full-system
// simulator can host such a workload at all, and that its simulated
// metrics track hardware performance across configurations. Input frames
// here are synthetic depth images (an animated sphere over a plane), and
// the three configurations mirror SLAMBench's standard / fast3 / express
// presets: resolution, tracking-iteration and integration-rate knobs.
package slam

import (
	"context"
	"fmt"

	"mobilesim/internal/cl"
)

// Config is one SLAMBench preset.
type Config struct {
	Name string
	// Width and Height are the input depth resolution.
	Width, Height int
	// Levels is the pyramid depth.
	Levels int
	// TrackIters is the per-level ICP iteration count, coarse to fine;
	// len(TrackIters) == Levels.
	TrackIters []int
	// VolumeSize is the TSDF volume edge length.
	VolumeSize int
	// IntegrateEvery integrates each Nth frame.
	IntegrateEvery int
	// Frames is the number of frames processed.
	Frames int
}

// Standard returns the baseline configuration. Scale multiplies the
// resolution (1 = 64x64 input, volume 64: laptop-sized; the original runs
// 320x240).
func Standard(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	return Config{
		Name:  "standard",
		Width: 64 * scale, Height: 64 * scale,
		Levels:         3,
		TrackIters:     []int{4, 5, 10}, // coarse..fine, KFusion defaults
		VolumeSize:     32 * scale,
		IntegrateEvery: 1,
		Frames:         8,
	}
}

// Fast3 is the reduced-accuracy preset.
func Fast3(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	return Config{
		Name:  "fast3",
		Width: 32 * scale, Height: 32 * scale,
		Levels:         3,
		TrackIters:     []int{4, 4, 6},
		VolumeSize:     16 * scale,
		IntegrateEvery: 2,
		Frames:         8,
	}
}

// Express is the fastest preset.
func Express(scale int) Config {
	if scale < 1 {
		scale = 1
	}
	return Config{
		Name:  "express",
		Width: 16 * scale, Height: 16 * scale,
		Levels:         2,
		TrackIters:     []int{3, 4},
		VolumeSize:     8 * scale,
		IntegrateEvery: 4,
		Frames:         8,
	}
}

const kernelsSrc = `
kernel void mm2meters(global int* in, global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = (float)in[i] * 0.001f;
    }
}

kernel void bilateral(global float* in, global float* out, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < w && y < h) {
        float center = in[y * w + x];
        float sum = 0.0f;
        float wsum = 0.0f;
        for (int dy = -2; dy <= 2; dy++) {
            for (int dx = -2; dx <= 2; dx++) {
                int xx = min(max(x + dx, 0), w - 1);
                int yy = min(max(y + dy, 0), h - 1);
                float v = in[yy * w + xx];
                float dist2 = (float)(dx * dx + dy * dy);
                float diff = v - center;
                float wgt = exp(-dist2 * 0.125f) * exp(-diff * diff * 10.0f);
                sum += v * wgt;
                wsum += wgt;
            }
        }
        out[y * w + x] = sum / wsum;
    }
}

kernel void halfsample(global float* in, global float* out, int ow, int oh) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < ow && y < oh) {
        int iw = ow * 2;
        float s = in[2 * y * iw + 2 * x] + in[2 * y * iw + 2 * x + 1]
                + in[(2 * y + 1) * iw + 2 * x] + in[(2 * y + 1) * iw + 2 * x + 1];
        out[y * ow + x] = s * 0.25f;
    }
}

kernel void depth2vertex(global float* depth, global float* vx, global float* vy, global float* vz,
                         int w, int h, float fx, float fy, float cx, float cy) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < w && y < h) {
        int i = y * w + x;
        float d = depth[i];
        vx[i] = d * ((float)x - cx) / fx;
        vy[i] = d * ((float)y - cy) / fy;
        vz[i] = d;
    }
}

kernel void vertex2normal(global float* vx, global float* vy, global float* vz,
                          global float* nx, global float* ny, global float* nz, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < w && y < h) {
        int xl = max(x - 1, 0);
        int xr = min(x + 1, w - 1);
        int yu = max(y - 1, 0);
        int yd = min(y + 1, h - 1);
        float ax = vx[y * w + xr] - vx[y * w + xl];
        float ay = vy[y * w + xr] - vy[y * w + xl];
        float az = vz[y * w + xr] - vz[y * w + xl];
        float bx = vx[yd * w + x] - vx[yu * w + x];
        float by = vy[yd * w + x] - vy[yu * w + x];
        float bz = vz[yd * w + x] - vz[yu * w + x];
        float cx = ay * bz - az * by;
        float cy = az * bx - ax * bz;
        float cz = ax * by - ay * bx;
        float len = sqrt(cx * cx + cy * cy + cz * cz) + 0.000001f;
        int i = y * w + x;
        nx[i] = cx / len;
        ny[i] = cy / len;
        nz[i] = cz / len;
    }
}

kernel void track(global float* vx, global float* vy, global float* vz,
                  global float* rx, global float* ry, global float* rz,
                  global float* nx, global float* ny, global float* nz,
                  global float* residual, int n, float thresh) {
    int i = get_global_id(0);
    if (i < n) {
        float dx = vx[i] - rx[i];
        float dy = vy[i] - ry[i];
        float dz = vz[i] - rz[i];
        float e = nx[i] * dx + ny[i] * dy + nz[i] * dz;
        if (fabs(e) < thresh) {
            residual[i] = e * e;
        } else {
            residual[i] = 0.0f;
        }
    }
}

kernel void reduce_residual(global float* in, global float* out, int n) {
    local float scratch[256];
    int l = get_local_id(0);
    int g = get_global_id(0);
    float v = 0.0f;
    if (g < n) { v = in[g]; }
    scratch[l] = v;
    barrier();
    for (int s = 128; s > 0; s = s >> 1) {
        if (l < s) { scratch[l] = scratch[l] + scratch[l + s]; }
        barrier();
    }
    if (l == 0) { out[get_group_id(0)] = scratch[0]; }
}

kernel void integrate(global float* vol, global float* wvol, global float* depth,
                      int vsize, int w, int h, float scale) {
    int i = get_global_id(0);
    int total = vsize * vsize * vsize;
    if (i < total) {
        int z = i / (vsize * vsize);
        int rem = i % (vsize * vsize);
        int vy = rem / vsize;
        int vx = rem % vsize;
        int px = vx * w / vsize;
        int py = vy * h / vsize;
        float d = depth[py * w + px];
        float depthVox = (float)z * scale;
        float sdf = d - depthVox;
        if (sdf > -0.1f) {
            float tsdf = fmin(1.0f, sdf * 5.0f);
            float wOld = wvol[i];
            vol[i] = (vol[i] * wOld + tsdf) / (wOld + 1.0f);
            wvol[i] = fmin(wOld + 1.0f, 100.0f);
        }
    }
}

kernel void raycast(global float* vol, global float* out, int vsize, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < w && y < h) {
        int vx = x * vsize / w;
        int vy = y * vsize / h;
        float prev = 1.0f;
        float hit = 0.0f;
        for (int z = 0; z < vsize; z++) {
            float v = vol[(z * vsize + vy) * vsize + vx];
            if (prev > 0.0f && v <= 0.0f && hit == 0.0f) {
                hit = (float)z;
            }
            prev = v;
        }
        out[y * w + x] = hit;
    }
}
`

// Metrics summarises one pipeline run.
type Metrics struct {
	Config        Config
	KernelsRun    int
	FinalResidual float64
}

// level holds the per-pyramid-level buffers.
type level struct {
	w, h                      int
	depth                     *cl.Buffer
	vx, vy, vz                *cl.Buffer
	nx, ny, nz                *cl.Buffer
	rx, ry, rz, rnx, rny, rnz *cl.Buffer
}

// Run executes the pipeline for cfg.Frames synthetic frames.
func Run(ctx context.Context, c *cl.Context, cfg Config) (*Metrics, error) {
	if len(cfg.TrackIters) != cfg.Levels {
		return nil, fmt.Errorf("slam: %d track iteration counts for %d levels", len(cfg.TrackIters), cfg.Levels)
	}
	prog, err := c.BuildProgram(ctx, kernelsSrc)
	if err != nil {
		return nil, err
	}
	get := func(name string) *cl.Kernel {
		k, kerr := prog.CreateKernel(name)
		if kerr != nil && err == nil {
			err = kerr
		}
		return k
	}
	kMM := get("mm2meters")
	kBil := get("bilateral")
	kHalf := get("halfsample")
	kD2V := get("depth2vertex")
	kV2N := get("vertex2normal")
	kTrack := get("track")
	kReduce := get("reduce_residual")
	kInt := get("integrate")
	kRay := get("raycast")
	if err != nil {
		return nil, err
	}

	w, h := cfg.Width, cfg.Height
	n := w * h
	newBuf := func(elems int) *cl.Buffer {
		b, berr := c.CreateBuffer(4 * elems)
		if berr != nil && err == nil {
			err = berr
		}
		return b
	}
	rawDepth := newBuf(n)
	meters := newBuf(n)
	filtered := newBuf(n)

	levels := make([]*level, cfg.Levels)
	lw, lh := w, h
	for li := 0; li < cfg.Levels; li++ {
		lv := &level{w: lw, h: lh}
		lv.depth = newBuf(lw * lh)
		lv.vx, lv.vy, lv.vz = newBuf(lw*lh), newBuf(lw*lh), newBuf(lw*lh)
		lv.nx, lv.ny, lv.nz = newBuf(lw*lh), newBuf(lw*lh), newBuf(lw*lh)
		lv.rx, lv.ry, lv.rz = newBuf(lw*lh), newBuf(lw*lh), newBuf(lw*lh)
		lv.rnx, lv.rny, lv.rnz = newBuf(lw*lh), newBuf(lw*lh), newBuf(lw*lh)
		levels[li] = lv
		lw /= 2
		lh /= 2
	}
	vs := cfg.VolumeSize
	vol := newBuf(vs * vs * vs)
	wvol := newBuf(vs * vs * vs)
	rayOut := newBuf(n)
	residual := newBuf(n)
	partial := newBuf(roundUp(n, 256) / 256)
	if err != nil {
		return nil, err
	}

	m := &Metrics{Config: cfg}
	enq := func(k *cl.Kernel, global, local [3]uint32, args ...any) error {
		if e := k.SetArgs(args...); e != nil {
			return e
		}
		m.KernelsRun++
		return c.EnqueueKernel(ctx, k, global, local)
	}
	dims2 := func(w, h int) ([3]uint32, [3]uint32) {
		return [3]uint32{uint32(roundUp(w, 8)), uint32(roundUp(h, 8)), 1}, [3]uint32{8, 8, 1}
	}

	const fx, fy = 100.0, 100.0
	cx, cy := float32(w)/2, float32(h)/2

	for frame := 0; frame < cfg.Frames; frame++ {
		// Cancellation between frames is free; mid-frame it falls to the
		// per-kernel clause-boundary soft-stop inside EnqueueKernel.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Camera input (the app writes the frame into the device buffer).
		if err := c.WriteI32(ctx, rawDepth, syntheticDepth(w, h, frame)); err != nil {
			return nil, err
		}

		// Preprocess.
		if err := enq(kMM, [3]uint32{uint32(roundUp(n, 64)), 1, 1}, [3]uint32{64, 1, 1},
			rawDepth, meters, n); err != nil {
			return nil, err
		}
		g, l := dims2(w, h)
		if err := enq(kBil, g, l, meters, filtered, w, h); err != nil {
			return nil, err
		}

		// Pyramid.
		prevDepth := filtered
		for li, lv := range levels {
			if li == 0 {
				lv.depth = filtered
			} else {
				g, l := dims2(lv.w, lv.h)
				if err := enq(kHalf, g, l, prevDepth, lv.depth, lv.w, lv.h); err != nil {
					return nil, err
				}
			}
			prevDepth = lv.depth
			g, l := dims2(lv.w, lv.h)
			scale := float32(int(1) << li)
			if err := enq(kD2V, g, l, lv.depth, lv.vx, lv.vy, lv.vz,
				lv.w, lv.h, float32(fx)/scale, float32(fy)/scale, cx/scale, cy/scale); err != nil {
				return nil, err
			}
			if err := enq(kV2N, g, l, lv.vx, lv.vy, lv.vz, lv.nx, lv.ny, lv.nz, lv.w, lv.h); err != nil {
				return nil, err
			}
		}

		// Tracking (skip frame 0: no reference yet), coarse to fine.
		if frame > 0 {
			for li := cfg.Levels - 1; li >= 0; li-- {
				lv := levels[li]
				ln := lv.w * lv.h
				for it := 0; it < cfg.TrackIters[li]; it++ {
					if err := enq(kTrack, [3]uint32{uint32(roundUp(ln, 64)), 1, 1}, [3]uint32{64, 1, 1},
						lv.vx, lv.vy, lv.vz, lv.rx, lv.ry, lv.rz,
						lv.rnx, lv.rny, lv.rnz, residual, ln, float32(0.2)); err != nil {
						return nil, err
					}
					groups := roundUp(ln, 256) / 256
					if err := enq(kReduce, [3]uint32{uint32(groups * 256), 1, 1}, [3]uint32{256, 1, 1},
						residual, partial, ln); err != nil {
						return nil, err
					}
					sums, rerr := c.ReadF32(ctx, partial, groups)
					if rerr != nil {
						return nil, rerr
					}
					var total float64
					for _, s := range sums {
						total += float64(s)
					}
					m.FinalResidual = total / float64(ln)
				}
			}
		}

		// Integration.
		if frame%cfg.IntegrateEvery == 0 {
			voxels := vs * vs * vs
			if err := enq(kInt, [3]uint32{uint32(roundUp(voxels, 64)), 1, 1}, [3]uint32{64, 1, 1},
				vol, wvol, filtered, vs, w, h, float32(0.02)); err != nil {
				return nil, err
			}
		}

		// Raycast the model for the next frame's reference.
		g, l = dims2(w, h)
		if err := enq(kRay, g, l, vol, rayOut, vs, w, h); err != nil {
			return nil, err
		}

		// New reference = this frame's vertex/normal maps.
		for _, lv := range levels {
			lv.rx, lv.vx = lv.vx, lv.rx
			lv.ry, lv.vy = lv.vy, lv.ry
			lv.rz, lv.vz = lv.vz, lv.rz
			lv.rnx, lv.nx = lv.nx, lv.rnx
			lv.rny, lv.ny = lv.ny, lv.rny
			lv.rnz, lv.nz = lv.nz, lv.rnz
		}
	}
	return m, nil
}

// syntheticDepth renders a moving sphere over a slanted plane, in
// millimetres.
func syntheticDepth(w, h, frame int) []int32 {
	out := make([]int32, w*h)
	cx := float64(w)/2 + float64(frame)*0.8
	cy := float64(h)/2 + float64(frame)*0.3
	r := float64(w) / 4
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			// Background plane sloping away.
			d := 2000.0 + 4.0*float64(y)
			dx, dy := float64(x)-cx, float64(y)-cy
			if rr := dx*dx + dy*dy; rr < r*r {
				// Sphere bulging toward the camera.
				d = 1200.0 - (r*r-rr)/r*0.5
			}
			out[y*w+x] = int32(d)
		}
	}
	return out
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }
