package mobilesim

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mobilesim/internal/cl"
	"mobilesim/internal/costmodel"
	"mobilesim/internal/slam"
	"mobilesim/internal/workloads"
)

// This file is the unified Workload layer: one registry and one execution
// contract for everything a session can run — the Table II benchmark
// suite, the SLAMBench pipeline presets (Fig 14) and the SGEMM tuning
// ladder (Fig 15). Sessions execute workloads by name through
// Session.Run / Session.RunWorkload. The paper's tables and figures are
// not workloads: each boots its own platforms (cmd/experiments).

// WorkloadKind classifies a registered workload.
type WorkloadKind string

// Workload kinds.
const (
	KindBenchmark WorkloadKind = "benchmark" // Table II suite member
	KindSLAM      WorkloadKind = "slam"      // SLAMBench pipeline preset
	KindSgemm     WorkloadKind = "sgemm"     // SGEMM tuning-ladder variant
)

// WorkloadInfo describes a registered workload.
type WorkloadInfo struct {
	// Name is the registry key (e.g. "BFS", "slam/standard",
	// "sgemm6/naive").
	Name string
	Kind WorkloadKind
	// Suite is the originating benchmark suite, when there is one.
	Suite string
	// Description is a one-line summary.
	Description string
	// Scale presets: SmallScale keeps tests fast, DefaultScale drives
	// benchmarks, PaperScale approximates the paper's input sizes. Zero
	// when the workload does not take an integer scale.
	SmallScale, DefaultScale, PaperScale int
}

// Workload is one runnable unit of work. Implementations must be safe for
// reuse: Execute may be called many times, on different Sessions.
//
// Execute runs entirely through the public Session API (or, for built-in
// workloads, session-internal equivalents); the Session serialises device
// access per operation, and the session's run slot serialises whole runs.
// Implementations must honour ctx: return ctx.Err() promptly once the
// context is cancelled (device operations such as Kernel.Launch already
// do, interrupting the running kernel at a clause boundary).
type Workload interface {
	Info() WorkloadInfo
	Execute(ctx context.Context, s *Session, opt *RunOptions) (*RunResult, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Workload)
)

// Register adds a workload to the global registry. It fails when the name
// is empty or already taken.
func Register(w Workload) error {
	name := w.Info().Name
	if name == "" {
		return fmt.Errorf("mobilesim: Register: empty workload name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[name]; ok {
		return fmt.Errorf("mobilesim: Register: workload %q already registered", name)
	}
	registry[name] = w
	return nil
}

func mustRegister(w Workload) {
	if err := Register(w); err != nil {
		panic(err)
	}
}

// Lookup resolves a workload by name. The error for an unknown name lists
// the registered names and suggests the nearest match.
func Lookup(name string) (Workload, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if w, ok := registry[name]; ok {
		return w, nil
	}
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	return nil, workloads.UnknownNameError("mobilesim", "workload", name, names)
}

// Workloads lists every registered workload sorted by name.
func Workloads() []WorkloadInfo {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]WorkloadInfo, 0, len(registry))
	for _, w := range registry {
		out = append(out, w.Info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RunOptions is the resolved option set for one run. Callers construct it
// through RunOption values; Workload implementations read it.
type RunOptions struct {
	// Scale is the integer input scale; <= 0 selects the workload's
	// default.
	Scale int
	// Verify enables checking simulated output against the host-native
	// reference, for workload kinds that have one (default true).
	Verify bool
	// CollectCFG collects the clause-level divergence CFG for this run
	// and renders it into RunResult.CFG.
	CollectCFG bool
}

// RunOption mutates a RunOptions.
type RunOption func(*RunOptions)

// WithScale sets the integer input scale (<= 0 keeps the default).
func WithScale(n int) RunOption { return func(o *RunOptions) { o.Scale = n } }

// WithVerify toggles output verification against the host-native
// reference (on by default). Turning it off also skips the native run, so
// RunResult.NativeDuration is zero and Verified false.
func WithVerify(on bool) RunOption { return func(o *RunOptions) { o.Verify = on } }

// WithCFG collects the divergence control-flow graph (Fig 6) for this run
// and renders it into RunResult.CFG, at the cost of a map update per
// clause execution during the run.
func WithCFG() RunOption { return func(o *RunOptions) { o.CollectCFG = true } }

func resolveOptions(opts []RunOption) *RunOptions {
	o := &RunOptions{Verify: true}
	for _, fn := range opts {
		fn(o)
	}
	return o
}

// --- Benchmark workloads ---------------------------------------------------

// benchmarkWorkload adapts one Table II suite member.
type benchmarkWorkload struct{ spec *workloads.Spec }

func (b benchmarkWorkload) Info() WorkloadInfo {
	return WorkloadInfo{
		Name:        b.spec.Name,
		Kind:        KindBenchmark,
		Suite:       b.spec.Suite,
		Description: fmt.Sprintf("%s benchmark (paper input %s)", b.spec.Suite, b.spec.PaperInput),
		SmallScale:  b.spec.SmallScale, DefaultScale: b.spec.DefaultScale, PaperScale: b.spec.PaperScale,
	}
}

func (b benchmarkWorkload) Execute(ctx context.Context, s *Session, opt *RunOptions) (*RunResult, error) {
	scale := opt.Scale
	if scale <= 0 {
		scale = b.spec.DefaultScale
	}
	inst := b.spec.Make(scale)
	var res *workloads.Result
	err := s.withCL(func(c *cl.Context) (e error) {
		res, e = inst.Run(ctx, c, b.spec.Name, opt.Verify)
		return
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Workload: b.spec.Name, Kind: KindBenchmark, Scale: scale,
		SimDuration:    res.SimDuration,
		NativeDuration: res.NativeDuration,
		Verified:       res.Verified,
		VerifyErr:      res.VerifyErr,
	}, nil
}

// --- SLAM workloads --------------------------------------------------------

// slamWorkload adapts one SLAMBench preset; scale multiplies the input
// resolution (1 = 64×64 for standard).
type slamWorkload struct {
	name   string
	preset func(scale int) slam.Config
}

func (w slamWorkload) Info() WorkloadInfo {
	return WorkloadInfo{
		Name: w.name, Kind: KindSLAM, Suite: "SLAMBench",
		Description: "KFusion-style dense-SLAM pipeline (Fig 14 preset)",
		SmallScale:  1, DefaultScale: 1, PaperScale: 4,
	}
}

func (w slamWorkload) Execute(ctx context.Context, s *Session, opt *RunOptions) (*RunResult, error) {
	scale := opt.Scale
	if scale <= 0 {
		scale = 1
	}
	var m *SLAMMetrics
	t0 := time.Now()
	err := s.withCL(func(c *cl.Context) (e error) {
		m, e = slam.Run(ctx, c, w.preset(scale))
		return
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Workload: w.name, Kind: KindSLAM, Scale: scale,
		SimDuration: time.Since(t0),
		SLAM:        m,
	}, nil
}

// --- SGEMM tuning-ladder workloads -----------------------------------------

// sgemmWorkload adapts one rung of the Fig 15 optimisation ladder. Scale
// is the matrix dimension in units of 16 (the ladder's tile size), so
// scale 4 is a 64×64×64 multiply.
type sgemmWorkload struct{ v workloads.SgemmVariant }

func sgemmWorkloadName(v workloads.SgemmVariant) string {
	return "sgemm6/" + strings.ToLower(v.Name)
}

func (w sgemmWorkload) Info() WorkloadInfo {
	return WorkloadInfo{
		Name: sgemmWorkloadName(w.v), Kind: KindSgemm, Suite: "myGEMM",
		Description: fmt.Sprintf("SGEMM ladder step %d (%s), scale = dim/16", w.v.ID, w.v.Name),
		SmallScale:  1, DefaultScale: 4, PaperScale: 16,
	}
}

// kernelProfile hands the variant's access-pattern annotation to the
// desktop cost model, so RunResult.Modeled reproduces the Fig 15
// per-rung desktop estimates instead of using the generic default.
func (w sgemmWorkload) kernelProfile() costmodel.KernelProfile { return w.v.Profile }

func (w sgemmWorkload) Execute(ctx context.Context, s *Session, opt *RunOptions) (*RunResult, error) {
	scale := opt.Scale
	if scale <= 0 {
		scale = 4
	}
	dim := 16 * scale
	a, b := workloads.SgemmInputs(dim, dim, dim)
	res := &RunResult{Workload: sgemmWorkloadName(w.v), Kind: KindSgemm, Scale: scale}
	var got []float32
	t0 := time.Now()
	err := s.withCL(func(c *cl.Context) (e error) {
		got, e = workloads.RunSgemmVariant(ctx, c, w.v, a, b, dim, dim, dim)
		return
	})
	if err != nil {
		return nil, err
	}
	res.SimDuration = time.Since(t0)
	if opt.Verify {
		t1 := time.Now()
		want := workloads.SgemmNative(a, b, dim, dim, dim)
		res.NativeDuration = time.Since(t1)
		if err := workloads.Compare(got, want, 1e-2); err != nil {
			res.VerifyErr = fmt.Errorf("%s: verify: %w", res.Workload, err)
		} else {
			res.Verified = true
		}
	}
	return res, nil
}

// --- Registration ----------------------------------------------------------

func init() {
	for _, spec := range workloads.All() {
		mustRegister(benchmarkWorkload{spec: spec})
	}
	mustRegister(slamWorkload{name: "slam/standard", preset: slam.Standard})
	mustRegister(slamWorkload{name: "slam/fast3", preset: slam.Fast3})
	mustRegister(slamWorkload{name: "slam/express", preset: slam.Express})
	for _, v := range workloads.SgemmVariants() {
		mustRegister(sgemmWorkload{v: v})
	}
}

// --- Re-exports ------------------------------------------------------------

// SLAMMetrics summarises one SLAM pipeline run.
type SLAMMetrics = slam.Metrics

// SgemmVariant is one step of the desktop-GPU SGEMM optimisation ladder
// (naive, coalesced, tiled, …) evaluated in Fig 15.
type SgemmVariant = workloads.SgemmVariant

// SgemmVariants returns the six tuning-ladder variants in order.
func SgemmVariants() []SgemmVariant { return workloads.SgemmVariants() }

// MobileCostModel is the analytical Mali-style cost model: main-memory
// traffic dominates, local memory is backed by the same L2.
type MobileCostModel = costmodel.MobileModel

// DesktopCostModel is the analytical discrete-GPU cost model: dedicated
// high-bandwidth memory, coalescing and occupancy effects.
type DesktopCostModel = costmodel.Model

// KernelProfile carries the per-kernel knobs the desktop model needs.
type KernelProfile = costmodel.KernelProfile

// MaliG71 returns the mobile cost model parameterised for the paper's
// Mali-G71.
func MaliG71() MobileCostModel { return costmodel.MaliG71() }

// K20m returns the desktop cost model parameterised for a Tesla K20m.
func K20m() DesktopCostModel { return costmodel.K20m() }

// DefaultKernelProfile returns the access-pattern annotation assumed for
// workloads that do not declare one — what RunResult.Modeled's desktop
// estimate uses outside the SGEMM ladder.
func DefaultKernelProfile() KernelProfile { return costmodel.DefaultProfile() }
