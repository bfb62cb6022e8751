package mobilesim

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"mobilesim/internal/cl"
	"mobilesim/internal/costmodel"
	"mobilesim/internal/slam"
	"mobilesim/internal/workloads"
)

// This file is the unified Workload layer: one registry and one execution
// contract for everything a session can run — the Table II benchmark
// suite, the SLAMBench pipeline presets (Fig 14) and the SGEMM tuning
// ladder (Fig 15), each one workloads.Spec. Sessions execute workloads by
// name through Session.Run / Session.RunWorkload. The paper's tables and
// figures are not workloads: each boots its own platforms
// (cmd/experiments).

// WorkloadKind classifies a registered workload.
type WorkloadKind = workloads.Kind

// Workload kinds.
const (
	KindBenchmark = workloads.KindBenchmark // Table II suite member
	KindSLAM      = workloads.KindSLAM      // SLAMBench pipeline preset
	KindSgemm     = workloads.KindSgemm     // SGEMM tuning-ladder variant
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

// --- Spec workloads --------------------------------------------------------

// specWorkload adapts one workloads.Spec — a Table II benchmark, a
// SLAMBench preset or an SGEMM ladder rung — to the registry.
type specWorkload struct{ spec *workloads.Spec }

func (w specWorkload) Info() WorkloadInfo {
	s := w.spec
	return WorkloadInfo{
		Name: s.Name, Kind: s.Kind, Suite: s.Suite, Description: s.Description,
		SmallScale: s.SmallScale, DefaultScale: s.DefaultScale, PaperScale: s.PaperScale,
	}
}

func (w specWorkload) Execute(ctx context.Context, s *Session, opt *RunOptions) (*RunResult, error) {
	scale := opt.Scale
	if scale <= 0 {
		scale = w.spec.DefaultScale
	}
	inst := w.spec.Make(scale)
	var res *workloads.Result
	err := s.withCL(func(c *cl.Context) (e error) {
		res, e = inst.Run(ctx, c, w.spec.Name, opt.Verify)
		return
	})
	if err != nil {
		return nil, err
	}
	out := &RunResult{
		Workload: w.spec.Name, Kind: w.spec.Kind, Scale: scale,
		SimDuration:    res.SimDuration,
		NativeDuration: res.NativeDuration,
		Verified:       res.Verified,
		VerifyErr:      res.VerifyErr,
	}
	out.SLAM, _ = res.Output.(*SLAMMetrics)
	return out, nil
}

func init() {
	for _, spec := range workloads.All() {
		mustRegister(specWorkload{spec: spec})
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
