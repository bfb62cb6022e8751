package experiments

import (
	"context"
	"fmt"
	"io"

	"mobilesim/internal/stats"
	"mobilesim/internal/workloads"
)

// Table2 prints the benchmark registry: suite, paper input and the scaled
// inputs this reproduction uses.
func Table2(w io.Writer) error {
	header(w, "Table II: benchmarks and data set sizes")
	tw := table(w)
	fmt.Fprintln(tw, "benchmark\tsuite\tpaper input\tsmall/default/paper scale")
	for _, s := range workloads.OfKind(workloads.KindBenchmark) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d / %d / %d\n",
			s.Name, s.Suite, s.PaperInput, s.SmallScale, s.DefaultScale, s.PaperScale)
	}
	return tw.Flush()
}

// table3Benchmarks are the four rows of Table III.
var table3Benchmarks = []string{"BFS", "BinomialOption", "SobelFilter", "Stencil"}

// Table3Row is one benchmark's system-level statistics.
type Table3Row struct {
	Name string
	Sys  stats.SystemStats
}

// Table3 reports the CPU-GPU system interaction statistics.
func Table3(ctx context.Context, w io.Writer, opt Options) ([]Table3Row, error) {
	header(w, "Table III: system statistics (CPU-GPU interaction)")
	var rows []Table3Row
	for _, name := range table3Benchmarks {
		spec, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		out, err := runOne(ctx, spec, opt.scaleOf(spec), opt, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{Name: name, Sys: out.sys})
	}
	tw := table(w)
	fmt.Fprintln(tw, "benchmark\tpages acc.\tctrl reg reads\tctrl reg writes\tinterrupts\tcompute jobs\ttlb hits\ttlb walks")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Name, r.Sys.PagesAccessed, r.Sys.CtrlRegReads, r.Sys.CtrlRegWrites,
			r.Sys.IRQsAsserted, r.Sys.ComputeJobs, r.Sys.TLBHits, r.Sys.TLBWalks)
	}
	return rows, tw.Flush()
}

// simulatorFeature is one row of the Table IV comparison.
type simulatorFeature struct {
	Name, FullSystem, GuestCPU, GuestGPU, ISA, Toolchain, Prog, Perf, Model, MaxErr string
}

// table4Data reproduces the paper's feature comparison, with this
// reproduction appended in place of "Our Simulator".
var table4Data = []simulatorFeature{
	{"Barra", "GPU only", "N/A", "NVIDIA Tesla", "Approx. Tesla ISA", "Emulated", "CUDA", "Instruction-acc.", "Execution-driven", "<= 81.6%"},
	{"GPGPU-Sim", "GPU only", "N/A", "NVIDIA-like GT200", "PTX / SASS", "Custom", "CUDA", "Cycle-acc.", "Execution-driven", "<= 50.0%"},
	{"gem5-GPU", "Yes", "x86", "NVIDIA GTX580", "PTX / SASS", "Custom", "CUDA", "Cycle-acc.", "Execution-driven", "<= 22.0%"},
	{"Multi2Sim", "Yes", "x86/Arm/MIPS", "AMD Everg./S.Isl., NVIDIA Fermi", "AMD GCN1 SASS", "Custom", "OpenCL/CUDA", "Cycle-acc.", "Execution-driven", "<= 30.0%"},
	{"Multi2Sim Kepler", "Yes", "x86/Arm/MIPS", "NVIDIA Kepler", "SASS", "Custom", "CUDA", "Cycle-acc.", "Execution-driven", "<= 200%"},
	{"ATTILA", "GPU only", "N/A", "ATTILA", "ARB", "Custom", "OpenGL", "Cycle-acc.", "Execution-driven", "N/A"},
	{"GPUOcelot", "GPU only", "N/A", "NVIDIA / AMD Radeon", "PTX", "Custom", "CUDA", "Instruction-acc.", "Trace-based", "not evaluated"},
	{"HSAemu", "Yes", "Retargetable/Arm-v7A", "Generic", "HSAIL", "Custom", "OpenCL", "Cycle-acc.", "Execution-driven", "N/A"},
	{"GPUTejas", "GPU only", "N/A", "NVIDIA Tesla", "PTX u-ops", "Custom", "CUDA", "Cycle-acc.", "Trace-based", "<= 29.7%"},
	{"MacSim", "Yes", "x86", "NVIDIA G80/GT200/Fermi", "PTX u-ops", "Custom", "CUDA", "Cycle-acc.", "Trace-based", "not evaluated"},
	{"TEAPOT", "Yes", "Generic", "Generic mobile GPU", "Emulated", "Custom", "OpenGL", "Cycle-acc.", "Trace-based", "N/A"},
	{"QEMU/MARSSx86/PTLsim", "Yes", "x86", "NVIDIA Tesla-like", "Generic", "Custom", "OpenGL", "Cycle-acc.", "Execution-driven", "not evaluated"},
	{"GemDroid", "Yes", "x86/Arm-v7A", "ATTILA", "ARB", "Custom", "OpenGL", "Cycle-acc.", "Execution-driven", "N/A"},
	{"GCN3 Simulator", "Yes", "x86", "AMD Pro A12-8800B APU", "GCN3", "Vendor", "ROCm", "Cycle-acc.", "Execution-driven", "~42%"},
	{"This reproduction", "Yes", "VA64 (Arm-flavoured)", "Bifrost-style Mali-G71", "Native binary (clause ISA)", "Vendor-style JIT (clc)", "OpenCL (CLite)", "Instruction-acc.", "Execution-driven", "0.0%"},
}

// Table4 prints the simulator feature comparison.
func Table4(w io.Writer) error {
	header(w, "Table IV: GPU simulator feature comparison")
	tw := table(w)
	fmt.Fprintln(tw, "simulator\tfull system\tguest CPU\tguest GPU\tGPU ISA\ttoolchain\tprog. model\tperf model\tsimulation\tmax rel. error")
	for _, r := range table4Data {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Name, r.FullSystem, r.GuestCPU, r.GuestGPU, r.ISA, r.Toolchain,
			r.Prog, r.Perf, r.Model, r.MaxErr)
	}
	return tw.Flush()
}
