package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"mobilesim/internal/cpu"
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
	// optional instrumentation, on the warp engine.
	SpeedupInstrumented float64
}

// interpCPU is the Multi2Sim-style baseline of Figs 8 and 9: the driver's
// guest code runs on the interpreter engine, which fetches and decodes every
// instruction it retires, instead of the DBT. The rest of the stack is ours.
func interpCPU(p *platform.Platform) { p.CPU.SetEngine(cpu.EngineInterp) }

// Fig8 compares full-system simulation speed against the Multi2Sim-style
// baseline (per-instruction CPU dispatch), with and without CFG
// instrumentation.
func Fig8(ctx context.Context, w io.Writer, opt Options) ([]Fig8Row, error) {
	header(w, "Fig 8: speed relative to Multi2Sim-style functional baseline (=1.0)")
	var rows []Fig8Row
	for _, name := range fig8Benchmarks {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		scale := opt.scaleOf(spec)
		base, err := runOne(ctx, spec, scale, opt, interpCPU)
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
// decode counts are the same comparison in deterministic form. Both runs
// retire the same guest instructions, but the interpreted baseline fetches
// and decodes every one of them while the DBT decodes each basic block once.
type Fig9Row struct {
	Dim             int
	OursCPUTime     time.Duration
	BaselineCPUTime time.Duration

	OursInstrs, OursDecodes         uint64
	BaselineInstrs, BaselineDecodes uint64
}

// Fig9 sweeps SobelFilter input sizes and reports the driver's guest CPU
// work and simulation time on our DBT vs the Multi2Sim-style interpreter
// (interpCPU), both running the registry's SobelFilter.
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
		ours, err := runOne(ctx, spec, dim, opt, nil)
		if err != nil {
			return nil, err
		}
		base, err := runOne(ctx, spec, dim, opt, interpCPU)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			Dim:         dim,
			OursCPUTime: ours.cpuTime, BaselineCPUTime: base.cpuTime,
			OursInstrs: ours.instrs, OursDecodes: ours.decodes,
			BaselineInstrs: base.instrs, BaselineDecodes: base.decodes,
		})
	}
	tw := table(w)
	fmt.Fprintln(tw, "input\tour simulator\tMulti2Sim-style\tour instrs (decoded)\tMulti2Sim-style instrs (decoded)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%dx%d\t%v\t%v\t%d (%d)\t%d (%d)\n", r.Dim, r.Dim,
			r.OursCPUTime.Round(time.Millisecond), r.BaselineCPUTime.Round(time.Millisecond),
			r.OursInstrs, r.OursDecodes, r.BaselineInstrs, r.BaselineDecodes)
	}
	return rows, tw.Flush()
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
