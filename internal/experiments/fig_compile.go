package experiments

import (
	"context"
	"fmt"
	"io"

	"mobilesim/internal/cl"
	"mobilesim/internal/clc"
	"mobilesim/internal/platform"
	"mobilesim/internal/workloads"
)

// matrixMulSrc is the MatrixMul kernel of Fig 1: the sample's 2x4
// register-blocked formulation, whose constant-offset element accesses are
// where compiler generations differ most (address folding, clause packing,
// hazard padding, temp promotion).
const matrixMulSrc = `
kernel void matrixmul(global float* a, global float* b, global float* c, int n) {
    int col = get_global_id(0) * 4;
    int row = get_global_id(1) * 2;
    float acc00 = 0.0f; float acc01 = 0.0f; float acc02 = 0.0f; float acc03 = 0.0f;
    float acc10 = 0.0f; float acc11 = 0.0f; float acc12 = 0.0f; float acc13 = 0.0f;
    for (int i = 0; i < n; i++) {
        float a0 = a[row * n + i];
        float a1 = a[(row + 1) * n + i];
        int bi = i * n + col;
        float b0 = b[bi];
        float b1 = b[bi + 1];
        float b2 = b[bi + 2];
        float b3 = b[bi + 3];
        acc00 += a0 * b0; acc01 += a0 * b1; acc02 += a0 * b2; acc03 += a0 * b3;
        acc10 += a1 * b0; acc11 += a1 * b1; acc12 += a1 * b2; acc13 += a1 * b3;
    }
    int ci = row * n + col;
    c[ci] = acc00; c[ci + 1] = acc01; c[ci + 2] = acc02; c[ci + 3] = acc03;
    ci = (row + 1) * n + col;
    c[ci] = acc10; c[ci + 1] = acc11; c[ci + 2] = acc12; c[ci + 3] = acc13;
}
`

// Fig1Row is one compiler version's static metrics relative to 5.6.
type Fig1Row struct {
	Version     string
	ArithCycles float64
	ArithInstrs float64
	LSCycles    float64
	LSInstrs    float64
	Registers   float64
	Absolute    clc.StaticReport
}

// Fig1 compiles MatrixMul with every compiler version and reports the
// offline-compiler metrics relative to version 5.6, as Fig 1 does.
func Fig1(w io.Writer) ([]Fig1Row, error) {
	header(w, "Fig 1: MatrixMul across OpenCL compiler versions (relative to 5.6)")
	var base clc.StaticReport
	var rows []Fig1Row
	for i, ver := range clc.VersionNames() {
		k, err := clc.Compile(matrixMulSrc, "matrixmul", clc.Options{Version: ver})
		if err != nil {
			return nil, err
		}
		r := k.Report
		if i == 0 {
			base = r
		}
		rel := func(v, b int) float64 {
			if b == 0 {
				return 0
			}
			return float64(v) / float64(b)
		}
		rows = append(rows, Fig1Row{
			Version:     ver,
			ArithCycles: rel(r.ArithCycles, base.ArithCycles),
			ArithInstrs: rel(r.ArithInstrs, base.ArithInstrs),
			LSCycles:    rel(r.LSCycles, base.LSCycles),
			LSInstrs:    rel(r.LSInstrs, base.LSInstrs),
			Registers:   rel(r.Registers, base.Registers),
			Absolute:    r,
		})
	}
	tw := table(w)
	fmt.Fprintln(tw, "version\tarith cycles\tarith instr\tLS cycles\tLS instr\tregisters")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.Version, r.ArithCycles, r.ArithInstrs, r.LSCycles, r.LSInstrs, r.Registers)
	}
	return rows, tw.Flush()
}

// Fig6 runs BFS with CFG collection and renders the divergence-annotated
// control-flow graph of the BFS step kernel.
func Fig6(ctx context.Context, w io.Writer, opt Options) (string, error) {
	header(w, "Fig 6: BFS divergence control-flow graph")
	spec, err := workloads.ByName("BFS")
	if err != nil {
		return "", err
	}
	p, err := platform.New(platform.Config{RAMSize: 512 << 20, GPU: opt.gpuConfig()})
	if err != nil {
		return "", err
	}
	defer p.Close()
	p.GPU.SetCollectCFG(true)
	c, err := cl.NewContext(p, opt.CompilerVersion)
	if err != nil {
		return "", err
	}
	inst := spec.Make(opt.scaleOf(spec))
	res, err := inst.Run(ctx, c, spec.Name, true)
	if err != nil {
		return "", err
	}
	if !res.Verified {
		return "", fmt.Errorf("BFS failed verification: %w", res.VerifyErr)
	}
	graph := p.GPU.CFGGraph()
	rendered := graph.Render()
	fmt.Fprint(w, rendered)
	gs, _ := p.GPU.Stats()
	fmt.Fprintf(w, "branches=%d divergent=%d (%.1f%%)\n",
		gs.Branches, gs.DivergentBranches,
		100*float64(gs.DivergentBranches)/float64(max64(gs.Branches, 1)))
	return rendered, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
