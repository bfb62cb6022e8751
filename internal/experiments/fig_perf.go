package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"mobilesim/internal/cl"
	"mobilesim/internal/cpu"
	"mobilesim/internal/experiments/m2s"
	"mobilesim/internal/platform"
	"mobilesim/internal/workloads"
)

// fig7Benchmarks are the nine AMD APP kernels of Fig 7.
var fig7Benchmarks = []string{
	"BinarySearch", "BinomialOption", "BitonicSort", "DCT", "DwtHaar1D",
	"MatrixTranspose", "Reduction", "SobelFilter", "URNG",
}

// Fig7Row reports simulation slowdown for one benchmark.
type Fig7Row struct {
	Name string
	// GPUOnly is simulated-kernel time over native-kernel time.
	GPUOnly float64
	// FullSystem is whole-run simulated time over whole-run native time
	// (native includes input generation, the benchmark's host phase).
	FullSystem float64
}

// Fig7 measures simulation slowdown relative to native execution, GPU-only
// and full-system, as Fig 7 does against the HiKey960.
func Fig7(ctx context.Context, w io.Writer, opt Options) ([]Fig7Row, error) {
	header(w, "Fig 7: simulation slowdown vs native execution")
	var rows []Fig7Row
	for _, name := range fig7Benchmarks {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out, err := runOne(ctx, spec, opt.scaleOf(spec), opt, nil)
		if err != nil {
			return nil, err
		}
		simGPU := out.res.SimDuration - out.cpuTime
		if simGPU <= 0 {
			simGPU = out.res.SimDuration
		}
		nativeKernel := out.res.NativeDuration
		nativeFull := out.res.NativeDuration + out.setup
		rows = append(rows, Fig7Row{
			Name:       name,
			GPUOnly:    ratioDur(simGPU, nativeKernel),
			FullSystem: ratioDur(out.res.SimDuration, nativeFull),
		})
	}
	tw := table(w)
	fmt.Fprintln(tw, "benchmark\tGPU-only slowdown\tfull-system slowdown")
	var gSum, fSum float64
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0fx\t%.0fx\n", r.Name, r.GPUOnly, r.FullSystem)
		gSum += r.GPUOnly
		fSum += r.FullSystem
	}
	fmt.Fprintf(tw, "average\t%.0fx\t%.0fx\n", gSum/float64(len(rows)), fSum/float64(len(rows)))
	return rows, tw.Flush()
}

func ratioDur(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fig8Benchmarks are the 13 kernels of Fig 8.
var fig8Benchmarks = []string{
	"BinarySearch", "BinomialOption", "BitonicSort", "DCT", "DwtHaar1D",
	"FloydWarshall", "MatrixTranspose", "RecursiveGaussian", "Reduction",
	"ScanLargeArrays", "SobelFilter", "SGEMM", "Stencil",
}

// Fig8Row reports our simulator's speed relative to the baseline.
type Fig8Row struct {
	Name string
	// Speedup is baseline time / our time (no instrumentation cost
	// difference: instrumentation is always-on counters).
	Speedup float64
	// SpeedupInstrumented additionally collects the divergence CFG, the
	// costly optional instrumentation.
	SpeedupInstrumented float64
}

// Fig8 compares full-system simulation speed against the Multi2Sim-style
// baseline mode (per-instruction CPU dispatch, flat GPU address space),
// with and without CFG instrumentation.
func Fig8(ctx context.Context, w io.Writer, opt Options) ([]Fig8Row, error) {
	header(w, "Fig 8: speed relative to Multi2Sim-style functional baseline (=1.0)")
	var rows []Fig8Row
	for _, name := range fig8Benchmarks {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		scale := opt.scaleOf(spec)
		// Baseline mode: interpreter CPU (per-instruction dispatch).
		base, err := runOne(ctx, spec, scale, opt, func(p *platform.Platform) {
			p.CPU.SetEngine(cpu.EngineInterp)
		})
		if err != nil {
			return nil, err
		}
		ours, err := runOne(ctx, spec, scale, opt, nil)
		if err != nil {
			return nil, err
		}
		oursInstr, err := runOne(ctx, spec, scale, opt, func(p *platform.Platform) {
			p.GPU.SetCollectCFG(true)
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{
			Name:                name,
			Speedup:             ratioDur(base.res.SimDuration, ours.res.SimDuration),
			SpeedupInstrumented: ratioDur(base.res.SimDuration, oursInstr.res.SimDuration),
		})
	}
	tw := table(w)
	fmt.Fprintln(tw, "benchmark\tw/o instrum.\twith instrum.")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", r.Name, r.Speedup, r.SpeedupInstrumented)
	}
	return rows, tw.Flush()
}

// Fig9Row is one input size of the driver-runtime scaling sweep. The
// durations are host wall-clock and report-only; the instruction and
// decode counts are the same comparison in deterministic form — both
// stacks retire guest instructions in proportion to the input, but the
// interpreted baseline fetches and decodes every one of them while the DBT
// decodes each basic block once.
type Fig9Row struct {
	Dim         int
	OursCPUTime time.Duration
	M2SCPUTime  time.Duration

	OursInstrs, OursDecodes uint64
	M2SInstrs, M2SDecodes   uint64
}

// Fig9 sweeps SobelFilter input sizes and reports the CPU-side software-
// stack simulation time on our DBT-based stack vs the Multi2Sim-style
// interpreted runtime.
func Fig9(ctx context.Context, w io.Writer, opt Options) ([]Fig9Row, error) {
	header(w, "Fig 9: CPU-side driver runtime vs input size (SobelFilter)")
	dims := []int{256, 384, 512, 640, 768}
	if opt.Scale == ScalePaper {
		dims = []int{256, 512, 768, 1024, 1280, 1536}
	} else if opt.Scale == ScaleSmall {
		dims = []int{64, 128, 256}
	}
	spec, err := workloads.ByName("SobelFilter")
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, dim := range dims {
		row := Fig9Row{Dim: dim}
		if err := sobelDriverTime(ctx, spec, &row, opt); err != nil {
			return nil, err
		}
		if err := sobelM2STime(&row, opt); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	tw := table(w)
	fmt.Fprintln(tw, "input\tour simulator\tMulti2Sim-style\tour instrs (decoded)\tMulti2Sim-style instrs (decoded)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%dx%d\t%v\t%v\t%d (%d)\t%d (%d)\n", r.Dim, r.Dim,
			r.OursCPUTime.Round(time.Millisecond), r.M2SCPUTime.Round(time.Millisecond),
			r.OursInstrs, r.OursDecodes, r.M2SInstrs, r.M2SDecodes)
	}
	return rows, tw.Flush()
}

// sobelDriverTime runs SobelFilter at the row's width through our stack
// and fills the row's driver-side columns.
func sobelDriverTime(ctx context.Context, spec *workloads.Spec, row *Fig9Row, opt Options) error {
	p, err := platform.New(platform.Config{RAMSize: 1 << 30, GPU: opt.gpuConfig()})
	if err != nil {
		return err
	}
	defer p.Close()
	c, err := cl.NewContext(p, opt.CompilerVersion)
	if err != nil {
		return err
	}
	// Count only the workload: boot and driver probe are the same at every
	// input size.
	instrs, decodes := c.Drv.Core.Instret, c.Drv.Core.Decodes
	cpuTime := c.Drv.CPUTime
	if _, err := spec.Make(row.Dim).Sim(ctx, c); err != nil {
		return err
	}
	row.OursCPUTime = c.Drv.CPUTime - cpuTime
	row.OursInstrs, row.OursDecodes = c.Drv.Core.Instret-instrs, c.Drv.Core.Decodes-decodes
	return nil
}

// sobelM2STime runs SobelFilter through the intercepted-runtime baseline
// and fills the row's baseline columns.
func sobelM2STime(row *Fig9Row, opt Options) error {
	c, err := m2s.New(1<<30, opt.gpuConfig())
	if err != nil {
		return err
	}
	defer c.Close()
	w := (row.Dim + 15) / 16 * 16
	h := w
	img := make([]byte, w*h)
	for i := range img {
		img[i] = byte(i * 131)
	}
	in, err := c.CreateBuffer(w * h)
	if err != nil {
		return err
	}
	out, err := c.CreateBuffer(w * h)
	if err != nil {
		return err
	}
	if err := c.WriteBuffer(in, img); err != nil {
		return err
	}
	k, err := c.BuildKernel(workloads.SobelSrc, "sobel")
	if err != nil {
		return err
	}
	k.SetArgBuffer(0, in)
	k.SetArgBuffer(1, out)
	k.SetArgInt(2, int32(w))
	k.SetArgInt(3, int32(h))
	if err := c.Enqueue(k, [3]uint32{uint32(w), uint32(h), 1}, [3]uint32{16, 16, 1}); err != nil {
		return err
	}
	if _, err := c.ReadBuffer(out, w*h); err != nil {
		return err
	}
	row.M2SCPUTime = c.CPUTime
	row.M2SInstrs, row.M2SDecodes = c.CPUInstret(), c.CPUDecodes()
	return nil
}

// Fig10Row is one host-thread count of the scaling sweep.
type Fig10Row struct {
	Threads             int
	SobelSpeedup        float64
	BinarySearchSpeedup float64
}

// Fig10 runs the MP8's eight shader cores on 1, 2, 4 and 8 host threads and
// reports the speedup for the best case (SobelFilter) and worst case
// (BinarySearch).
func Fig10(ctx context.Context, w io.Writer, opt Options) ([]Fig10Row, error) {
	header(w, "Fig 10: host-thread scaling (speedup over 1 thread)")
	fmt.Fprintf(w, "(host machine exposes %d CPU core(s) to the simulator; the paper's\n"+
		" scaling host was a 32-core Xeon — speedups saturate at the core count)\n",
		runtime.GOMAXPROCS(0))
	threads := []int{1, 2, 4, 8}
	timeFor := func(name string, ht int) (time.Duration, error) {
		spec, err := workloads.ByName(name)
		if err != nil {
			return 0, err
		}
		o := opt
		o.HostThreads = ht
		out, err := runOne(ctx, spec, o.scaleOf(spec), o, nil)
		if err != nil {
			return 0, err
		}
		return out.res.SimDuration, nil
	}
	var rows []Fig10Row
	var sobelBase, bsBase time.Duration
	for i, ht := range threads {
		st, err := timeFor("SobelFilter", ht)
		if err != nil {
			return nil, err
		}
		bt, err := timeFor("BinarySearch", ht)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			sobelBase, bsBase = st, bt
		}
		rows = append(rows, Fig10Row{
			Threads:             ht,
			SobelSpeedup:        ratioDur(sobelBase, st),
			BinarySearchSpeedup: ratioDur(bsBase, bt),
		})
	}
	tw := table(w)
	fmt.Fprintln(tw, "host threads\tSobelFilter\tBinarySearch")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\n", r.Threads, r.SobelSpeedup, r.BinarySearchSpeedup)
	}
	return rows, tw.Flush()
}
