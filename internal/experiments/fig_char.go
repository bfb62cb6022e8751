package experiments

import (
	"context"
	"fmt"
	"io"

	"mobilesim/internal/costmodel"
	"mobilesim/internal/stats"
	"mobilesim/internal/workloads"
)

// characterisation benchmarks: the kernels appearing in Figs 11-13.
var charBenchmarks = []string{
	"BinarySearch", "BinomialOption", "BitonicSort", "DCT", "DwtHaar1D",
	"FloydWarshall", "MatrixTranspose", "RecursiveGaussian", "Reduction",
	"ScanLargeArrays", "SobelFilter", "URNG",
	"Backprop", "BFS", "Cutcp", "NearestNeighbor", "SGEMM", "SPMV", "Stencil",
}

// CharRow couples a benchmark with its execution statistics.
type CharRow struct {
	Name string
	GS   stats.GPUStats
}

// runCharacterisation executes the benchmark set once, reusing results
// across Figs 11-13.
func runCharacterisation(ctx context.Context, opt Options) ([]CharRow, error) {
	var rows []CharRow
	for _, name := range charBenchmarks {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out, err := runOne(ctx, spec, opt.scaleOf(spec), opt, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CharRow{Name: name, GS: out.gs})
	}
	return rows, nil
}

// Fig11 prints the instruction-mix breakdown (arithmetic / load-store /
// empty slots / control flow) per benchmark.
func Fig11(ctx context.Context, w io.Writer, opt Options) ([]CharRow, error) {
	rows, err := runCharacterisation(ctx, opt)
	if err != nil {
		return nil, err
	}
	PrintFig11(w, rows)
	return rows, nil
}

// PrintFig11 renders precomputed characterisation rows as Fig 11.
func PrintFig11(w io.Writer, rows []CharRow) {
	header(w, "Fig 11: instruction mix (fractions of executed slots)")
	tw := table(w)
	fmt.Fprintln(tw, "benchmark\tarith\tload/store\tnop\tcontrol-flow")
	for _, r := range rows {
		a, ls, nop, cf := r.GS.MixFractions()
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Name, 100*a, 100*ls, 100*nop, 100*cf)
	}
	tw.Flush()
}

// Fig12 prints the data-access breakdown per benchmark.
func Fig12(ctx context.Context, w io.Writer, opt Options) ([]CharRow, error) {
	rows, err := runCharacterisation(ctx, opt)
	if err != nil {
		return nil, err
	}
	PrintFig12(w, rows)
	return rows, nil
}

// PrintFig12 renders precomputed rows as Fig 12.
func PrintFig12(w io.Writer, rows []CharRow) {
	header(w, "Fig 12: data access breakdown (share of all data accesses)")
	tw := table(w)
	fmt.Fprintln(tw, "benchmark\ttemp\tGRF read\tGRF write\tconst read\tROM\tmain memory")
	for _, r := range rows {
		f := r.GS.DataAccessFractions()
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			r.Name, 100*f[0], 100*f[1], 100*f[2], 100*f[3], 100*f[4], 100*f[5])
	}
	tw.Flush()
}

// Fig13 prints clause-size distribution statistics per benchmark.
func Fig13(ctx context.Context, w io.Writer, opt Options) ([]CharRow, error) {
	rows, err := runCharacterisation(ctx, opt)
	if err != nil {
		return nil, err
	}
	PrintFig13(w, rows)
	return rows, nil
}

// PrintFig13 renders precomputed rows as Fig 13 (box-plot quartiles).
func PrintFig13(w io.Writer, rows []CharRow) {
	header(w, "Fig 13: executed clause size distribution (slots)")
	tw := table(w)
	fmt.Fprintln(tw, "benchmark\tmin\tq1\tmedian\tq3\tmax\tmean")
	for _, r := range rows {
		min, q1, med, q3, max := r.GS.ClauseSizeQuartiles()
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.2f\n",
			r.Name, min, q1, med, q3, max, r.GS.AvgClauseSize())
	}
	tw.Flush()
}

// Fig14Row is one SLAMBench configuration's metrics relative to standard.
type Fig14Row struct {
	Config     string
	ArithInstr float64
	CFInstr    float64
	ConstReads float64
	CtrlRegs   float64
	GRFAcc     float64
	GlobalLS   float64
	Interrupts float64
	Kernels    float64
	LocalLS    float64
	NOPInstr   float64
	NumClauses float64
	NumWG      float64
	PagesAcc   float64
	ROMReads   float64
	TempAcc    float64
	AvgClause  float64
	FPSRel     float64
}

// Fig14 runs the KFusion pipeline in the three SLAMBench configurations
// and reports each metric relative to the standard configuration.
func Fig14(ctx context.Context, w io.Writer, opt Options) ([]Fig14Row, error) {
	header(w, "Fig 14: SLAMBench metrics relative to standard configuration")
	type snap struct {
		gs  stats.GPUStats
		sys stats.SystemStats
		fps float64
	}
	run := func(name string) (*snap, error) {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out, err := runOne(ctx, spec, opt.scaleOf(spec), opt, nil)
		if err != nil {
			return nil, err
		}
		return &snap{gs: out.gs, sys: out.sys, fps: 1 / costmodel.MaliG71().Estimate(&out.gs)}, nil
	}
	std, err := run("slam/standard")
	if err != nil {
		return nil, err
	}
	fast, err := run("slam/fast3")
	if err != nil {
		return nil, err
	}
	expr, err := run("slam/express")
	if err != nil {
		return nil, err
	}

	rel := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	row := func(name string, s *snap) Fig14Row {
		return Fig14Row{
			Config:     name,
			ArithInstr: rel(s.gs.ArithInstr, std.gs.ArithInstr),
			CFInstr:    rel(s.gs.CFInstr, std.gs.CFInstr),
			ConstReads: rel(s.gs.ConstRead, std.gs.ConstRead),
			CtrlRegs:   rel(s.sys.CtrlRegReads+s.sys.CtrlRegWrites, std.sys.CtrlRegReads+std.sys.CtrlRegWrites),
			GRFAcc:     rel(s.gs.GRFRead+s.gs.GRFWrite, std.gs.GRFRead+std.gs.GRFWrite),
			GlobalLS:   rel(s.gs.GlobalLS, std.gs.GlobalLS),
			Interrupts: rel(s.sys.IRQsAsserted, std.sys.IRQsAsserted),
			Kernels:    rel(s.sys.KernelLaunch, std.sys.KernelLaunch),
			LocalLS:    rel(s.gs.LocalLS, std.gs.LocalLS),
			NOPInstr:   rel(s.gs.NopInstr, std.gs.NopInstr),
			NumClauses: rel(s.gs.ClausesExec, std.gs.ClausesExec),
			NumWG:      rel(s.gs.Workgroups, std.gs.Workgroups),
			PagesAcc:   rel(s.sys.PagesAccessed, std.sys.PagesAccessed),
			ROMReads:   rel(s.gs.ROMRead, std.gs.ROMRead),
			TempAcc:    rel(s.gs.TempAcc, std.gs.TempAcc),
			AvgClause:  s.gs.AvgClauseSize() / std.gs.AvgClauseSize(),
			FPSRel:     s.fps / std.fps,
		}
	}
	rows := []Fig14Row{row("fast3", fast), row("express", expr)}

	tw := table(w)
	fmt.Fprintln(tw, "metric\tfast3\texpress")
	print2 := func(name string, a, b float64) { fmt.Fprintf(tw, "%s\t%.2f\t%.2f\n", name, a, b) }
	print2("Arithmetic Instr.", rows[0].ArithInstr, rows[1].ArithInstr)
	print2("Avg. Clause Size", rows[0].AvgClause, rows[1].AvgClause)
	print2("CF Instr.", rows[0].CFInstr, rows[1].CFInstr)
	print2("Constant Reads", rows[0].ConstReads, rows[1].ConstReads)
	print2("Control Regs.", rows[0].CtrlRegs, rows[1].CtrlRegs)
	print2("GRF Acc.", rows[0].GRFAcc, rows[1].GRFAcc)
	print2("Global LS Instr.", rows[0].GlobalLS, rows[1].GlobalLS)
	print2("Interrupts", rows[0].Interrupts, rows[1].Interrupts)
	print2("Kernels", rows[0].Kernels, rows[1].Kernels)
	print2("Local LS Instr.", rows[0].LocalLS, rows[1].LocalLS)
	print2("NOP Instr.", rows[0].NOPInstr, rows[1].NOPInstr)
	print2("Num. Clauses", rows[0].NumClauses, rows[1].NumClauses)
	print2("Num. Workgroups", rows[0].NumWG, rows[1].NumWG)
	print2("Pages Acc.", rows[0].PagesAcc, rows[1].PagesAcc)
	print2("ROM Reads", rows[0].ROMReads, rows[1].ROMReads)
	print2("Temp. Reg. Acc.", rows[0].TempAcc, rows[1].TempAcc)
	print2("Est. FPS (rel.)", rows[0].FPSRel, rows[1].FPSRel)
	return rows, tw.Flush()
}

// Fig15Row is one SGEMM variant's normalised metrics and model runtimes.
type Fig15Row struct {
	Variant    string
	ID         int
	ArithInstr float64
	CFInstr    float64
	ConstRead  float64
	GlobalLS   float64
	GRF        float64
	LocalLS    float64
	NOPInstr   float64
	NumClauses float64
	ROM        float64
	TempAcc    float64
	MaliTime   float64 // relative to the slowest variant on Mali
	NVIDIATime float64 // relative to the slowest variant on NVIDIA model
}

// Fig15 runs the six SGEMM ladder rungs (dim×dim×dim, scale dim/16) and
// reports statistics normalised to variant 6 plus the analytical Mali and
// NVIDIA runtime estimates.
func Fig15(ctx context.Context, w io.Writer, opt Options) ([]Fig15Row, error) {
	header(w, "Fig 15: SGEMM optimisation ladder (stats normalised to variant 6)")
	dim := 64
	switch opt.Scale {
	case ScaleDefault:
		dim = 128
	case ScalePaper:
		dim = 1024
	}
	type snap struct {
		gs   stats.GPUStats
		mali float64
		nv   float64
	}
	shots := map[int]*snap{}
	variants := workloads.SgemmVariants()
	for _, v := range variants {
		spec, err := workloads.ByName(v.WorkloadName())
		if err != nil {
			return nil, err
		}
		out, err := runOne(ctx, spec, dim/16, opt, nil)
		if err != nil {
			return nil, err
		}
		shots[v.ID] = &snap{
			gs:   out.gs,
			mali: costmodel.MaliG71().Estimate(&out.gs),
			nv:   costmodel.K20m().Estimate(&out.gs, spec.CostProfile(), 1),
		}
	}

	base := shots[6].gs
	var maliMax, nvMax float64
	var localMax uint64
	for _, s := range shots {
		if s.mali > maliMax {
			maliMax = s.mali
		}
		if s.nv > nvMax {
			nvMax = s.nv
		}
		if s.gs.LocalLS > localMax {
			localMax = s.gs.LocalLS
		}
	}
	rel := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	// Variant 6 avoids local memory entirely in this reproduction, so the
	// local-LS column normalises against the heaviest local user instead.
	localBase := base.LocalLS
	if localBase == 0 {
		localBase = localMax
	}
	var rows []Fig15Row
	for _, v := range variants {
		s := shots[v.ID]
		rows = append(rows, Fig15Row{
			Variant:    v.Name,
			ID:         v.ID,
			ArithInstr: rel(s.gs.ArithInstr, base.ArithInstr),
			CFInstr:    rel(s.gs.CFInstr, base.CFInstr),
			ConstRead:  rel(s.gs.ConstRead, base.ConstRead),
			GlobalLS:   rel(s.gs.GlobalLS, base.GlobalLS),
			GRF:        rel(s.gs.GRFRead+s.gs.GRFWrite, base.GRFRead+base.GRFWrite),
			LocalLS:    rel(s.gs.LocalLS, localBase),
			NOPInstr:   rel(s.gs.NopInstr, base.NopInstr),
			NumClauses: rel(s.gs.ClausesExec, base.ClausesExec),
			ROM:        rel(s.gs.ROMRead, base.ROMRead),
			TempAcc:    rel(s.gs.TempAcc, base.TempAcc),
			MaliTime:   s.mali / maliMax,
			NVIDIATime: s.nv / nvMax,
		})
	}
	tw := table(w)
	fmt.Fprintln(tw, "variant\tarith\tCF\tconst\tglobal LS\tGRF\tlocal LS\tNOP\tclauses\tROM\ttemp\tMali time\tNVIDIA time")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d:%s\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			r.ID, r.Variant, r.ArithInstr, r.CFInstr, r.ConstRead, r.GlobalLS, r.GRF,
			r.LocalLS, r.NOPInstr, r.NumClauses, r.ROM, r.TempAcc, r.MaliTime, r.NVIDIATime)
	}
	return rows, tw.Flush()
}
