package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mobilesim"
)

// simConfig is the platform every session of the benchmark boots: all
// defaults (512 MiB, 8 shader cores, warp engine) but one host simulation
// thread, because a pass runs on one processor (calib.go).
var simConfig = mobilesim.Config{HostThreads: 1}

// job is one registry workload at one input scale (0 = its default).
type job struct {
	Name  string
	Scale int
}

// How a workload's round reaches the simulator.
const (
	kindFork  = "fork"  // fork from a snapshot, Run, Close, per job
	kindCold  = "cold"  // cold New per operation, no snapshot
	kindServe = "serve" // cluster.Run -> HTTP -> hostd -> pool fork -> Run
)

// workload is one benchmark workload. A round is one pass over Jobs (plus
// Quickstarts cold kernel round trips); every round does identical
// simulated work, so the round is the unit of timing.
type workload struct {
	Name        string
	Why         string
	Kind        string
	Jobs        []job
	Quickstarts int
	// Tol is the relative tolerance of the round-to-round and golden
	// counter comparisons: 0 everywhere but where BFS's documented benign
	// guest race (frontier flags) moves the counts from round to round —
	// measured at HEAD: instructions 8e-7, modelled cycles 4e-6, clauses
	// 4e-5. The tolerance equals modeled_mcycles_per_round's bound.
	Tol float64
}

// workloads lists the benchmark's workloads; names and order are fixed
// (BENCHMARK.json and later issues cite them). Sizing evidence is in
// README.md. Inputs to avoid: BFS@1 and sgemm6/2dregblocking@1 fail in
// the program itself.
var workloads = []workload{
	{
		Name: "gpu-dense", Kind: kindFork,
		Why: "Few long coherent dispatches: gpu vector kernels, mmu.BatchPage and mem do ~95% of the work; cpu, driver and serving almost none.",
		Jobs: []job{
			{"SobelFilter", 256}, {"sgemm6/naive", 4}, {"DCT", 64}, {"Cutcp", 8}, {"BinomialOption", 16},
		},
	},
	{
		Name: "gpu-smalljobs", Kind: kindFork, Tol: 1e-4,
		Why: "Hundreds of sub-millisecond dispatches with barriers, local memory and BFS divergence: shows an engine change that helps dense kernels but taxes dispatch.",
		Jobs: []job{
			{"BFS", 4096}, {"sgemm6/localmemtiling", 4}, {"BitonicSort", 1024}, {"Reduction", 32768}, {"FloydWarshall", 32}, {"slam/express", 1},
		},
	},
	{
		Name: "cpu-driver", Kind: kindFork,
		Why: "Driver guest code on the CPU DBT, irq and MMIO carry their largest share here (about a third of wall time) and almost none in gpu-dense.",
		Jobs: []job{
			{"BinarySearch", 0}, {"NearestNeighbor", 0}, {"MatrixTranspose", 0}, {"SPMV", 0},
		},
	},
	{
		Name: "cold-start", Kind: kindCold, Quickstarts: 8,
		Why: "What a library or CLI user pays per invocation: platform boot, RAM acquire, firmware asm, driver probe, clc compile, cl staging, teardown; bypasses snapshot, pool and hostd.",
		Jobs: []job{
			{"NearestNeighbor", 1024}, {"SPMV", 256},
		},
	},
	{
		Name: "serve", Kind: kindServe,
		Why: "Closed loop of small jobs through cluster.Run, HTTP, hostd and the warm pool, as a coordinator that waits for each reply; the other workloads bypass this path.",
		Jobs: []job{
			{"BinarySearch", 4096}, {"NearestNeighbor", 1024}, {"SPMV", 256}, {"sgemm6/naive", 1},
			{"MatrixTranspose", 64}, {"RecursiveGaussian", 32}, {"URNG", 64}, {"SobelFilter", 64},
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// slamPin names the one job without a host-native reference: its output
// is checked by pinning its GPU instruction count to golden.json.
const slamPin = "slam/express"

// quickstartSrc is the kernel of examples/quickstart, copied so the
// benchmark owns its input.
const quickstartSrc = `
kernel void axpb(global float* x, global float* y, float a, float b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + b;
    }
}
`

const quickstartN = 1024

// inputs is everything a run derives from its seed: the order of the
// operations inside a round (the same in every round) and the data of the
// bench-owned kernel. Registry workloads generate their own inputs from
// their scale.
type inputs struct {
	// Order indexes the round's operations: values below len(Jobs) are
	// jobs, the rest are quickstart flows.
	Order []int
	X     []float32
	A, B  float32
}

func makeInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{Order: rng.Perm(len(w.Jobs) + w.Quickstarts)}
	in.X = make([]float32, quickstartN)
	for i := range in.X {
		in.X[i] = rng.Float32()*200 - 100
	}
	in.A = rng.Float32()*4 + 0.5
	in.B = rng.Float32()*10 - 5
	return in
}

// counts are the statistics of one round that the program returned and
// that do not depend on host timing. Every round of a run must produce
// the same GPU counts; golden.json pins them per workload.
type counts struct {
	GPUInstr   uint64 `json:"gpu_instr"`
	GPUJobs    uint64 `json:"gpu_jobs"`
	Clauses    uint64 `json:"clauses"`
	GuestInstr uint64 `json:"guest_instr"` // ±4 per job until ROADMAP item 1 lands: recorded, never compared
	// MobileMcycles and DesktopMcycles are the analytical cost models'
	// estimates in 10^6 model cycles (unvalidated: the repo holds no
	// hardware measurements).
	MobileMcycles  float64 `json:"mobile_mcycles"`
	DesktopMcycles float64 `json:"desktop_mcycles"`
	SlamInstr      uint64  `json:"slam_express_instr,omitempty"`

	// Layer counters: reported, not pinned (TLB traffic depends on how
	// workgroups land on host threads when a kernel has benign races).
	Branches    uint64 `json:"branches"`
	DivBranches uint64 `json:"divergent_branches"`
	LSInstr     uint64 `json:"ls_instr"`
	LocalLS     uint64 `json:"local_ls"`
	TLBHits     uint64 `json:"tlb_hits"`
	TLBWalks    uint64 `json:"tlb_walks"`
	Pages       uint64 `json:"pages"`
	CtrlRegOps  uint64 `json:"ctrl_reg_ops"`
	IRQs        uint64 `json:"irqs"`
}

// add folds one operation's statistics delta and modelled cost in.
func (c *counts) add(st *mobilesim.Stats, mobile, desktop float64) {
	c.GPUInstr += st.GPU.TotalInstr()
	c.GPUJobs += st.System.ComputeJobs
	c.Clauses += st.GPU.ClausesExec
	c.GuestInstr += st.GuestInstructions
	c.MobileMcycles += mobile / 1e6
	c.DesktopMcycles += desktop / 1e6
	c.Branches += st.GPU.Branches
	c.DivBranches += st.GPU.DivergentBranches
	c.LSInstr += st.GPU.LSInstr
	c.LocalLS += st.GPU.LocalLS
	c.TLBHits += st.System.TLBHits
	c.TLBWalks += st.System.TLBWalks
	c.Pages += st.System.PagesAccessed
	c.CtrlRegOps += st.System.CtrlRegReads + st.System.CtrlRegWrites
	c.IRQs += st.System.IRQsAsserted
}

// sameGPU reports whether two rounds (or a round and the golden record)
// agree on the pinned GPU counts within tol.
func (c *counts) sameGPU(o *counts, tol float64) bool {
	return c.GPUJobs == o.GPUJobs &&
		relDiff(float64(c.GPUInstr), float64(o.GPUInstr)) <= tol &&
		relDiff(float64(c.Clauses), float64(o.Clauses)) <= tol &&
		relDiff(c.MobileMcycles, o.MobileMcycles) <= math.Max(tol, 1e-12) &&
		relDiff(float64(c.SlamInstr), float64(o.SlamInstr)) <= tol
}

// opResult is what one verified operation contributes to its round.
type opResult struct {
	stats   mobilesim.Stats
	mobile  float64
	desktop float64
}

// checkRun verifies a finished registry run: against the host-native
// reference where the workload has one, against the golden pin otherwise.
func checkRun(name string, verified bool, verifyErr string, instr, pin uint64, tol float64) error {
	if name == slamPin {
		if pin != 0 && relDiff(float64(instr), float64(pin)) > tol {
			return fmt.Errorf("%s: %d GPU instructions, golden.json pins %d", name, instr, pin)
		}
		return nil
	}
	if !verified {
		return fmt.Errorf("%s: output does not match the host-native reference: %s", name, verifyErr)
	}
	return nil
}

// sessionOp is one operation: open a session (the fork or cold_boot
// span), do the body's work on it, close it (the close span), all under
// one op span.
func sessionOp(tr *tracer, round int, boot string, open func() (*mobilesim.Session, error),
	body func(parent, op int, s *mobilesim.Session) (opResult, error)) (opResult, error) {
	op := tr.newOp()
	parent := tr.begin("op", round, op)
	defer tr.end(parent)
	id := tr.begin(boot, parent, op)
	s, err := open()
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	out, err := body(parent, op, s)
	id = tr.begin("close", parent, op)
	s.Close()
	tr.end(id)
	return out, err
}

func coldBoot() (*mobilesim.Session, error) { return mobilesim.New(simConfig) }

// runJob executes one registry workload on an open session and verifies
// it. On a cold session the guest-instruction count is the session's
// lifetime count: the boot-time driver probe is this operation's own work.
func runJob(ctx context.Context, tr *tracer, parent, op int, s *mobilesim.Session, j job, pin uint64, tol float64, cold bool) (opResult, error) {
	id := tr.begin("run", parent, op)
	res, err := s.Run(ctx, j.Name, mobilesim.WithScale(j.Scale))
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	tr.annotate(id, res.SimDuration, res.Stats.DriverCPUTime, res.QueueWait)
	out := opResult{stats: res.Stats, mobile: res.Modeled.MobileCycles, desktop: res.Modeled.DesktopCycles}
	if cold {
		out.stats.GuestInstructions = s.Stats().GuestInstructions
	}
	verr := ""
	if res.VerifyErr != nil {
		verr = res.VerifyErr.Error()
	}
	return out, checkRun(j.Name, res.Verified, verr, res.Stats.GPU.TotalInstr(), pin, tol)
}

// quickstartBody is the examples/quickstart flow on a freshly booted
// session: compile, stage in, launch, read back, check on the host.
func quickstartBody(ctx context.Context, tr *tracer, parent, op int, s *mobilesim.Session, in *inputs) (opResult, error) {
	const n = quickstartN
	id := tr.begin("compile", parent, op)
	k, err := s.LoadKernel(quickstartSrc, "axpb")
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}

	id = tr.begin("stage_in", parent, op)
	bx, err := s.NewBuffer(4 * n)
	var by *mobilesim.Buffer
	if err == nil {
		by, err = s.NewBuffer(4 * n)
	}
	if err == nil {
		err = bx.WriteF32(ctx, in.X)
	}
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}

	id = tr.begin("launch", parent, op)
	err = k.SetArgs(bx, by, in.A, in.B, n)
	if err == nil {
		err = k.Launch(ctx, mobilesim.Dim1(n), mobilesim.Dim1(64))
	}
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}

	id = tr.begin("read_back", parent, op)
	ys, err := by.ReadF32(ctx, n)
	tr.end(id)
	if err != nil {
		return opResult{}, err
	}
	for i, y := range ys {
		want := in.A*in.X[i] + in.B
		if math.Abs(float64(y-want)) > 1e-4*math.Max(1, math.Abs(float64(want))) {
			return opResult{}, fmt.Errorf("quickstart: y[%d] = %g, want %g", i, y, want)
		}
	}
	st := s.Stats()
	model := mobilesim.MaliG71()
	desktop := mobilesim.K20m()
	return opResult{
		stats:   st,
		mobile:  model.Estimate(&st.GPU),
		desktop: desktop.Estimate(&st.GPU, mobilesim.DefaultKernelProfile(), st.System.KernelLaunch),
	}, nil
}
