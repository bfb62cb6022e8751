package mobilesim

import (
	"mobilesim/internal/costmodel"
	"mobilesim/internal/slam"
	"mobilesim/internal/workloads"
)

// This file lists what a session can run: the Table II benchmark suite,
// the SLAMBench pipeline presets (Fig 14) and the SGEMM tuning ladder
// (Fig 15), each one workloads.Spec. Sessions run them by name through
// Session.Run. The paper's tables and figures are not workloads: each
// boots its own platforms (cmd/experiments).

// WorkloadKind classifies a workload.
type WorkloadKind = workloads.Kind

// Workload kinds.
const (
	KindBenchmark = workloads.KindBenchmark // Table II suite member
	KindSLAM      = workloads.KindSLAM      // SLAMBench pipeline preset
	KindSgemm     = workloads.KindSgemm     // SGEMM tuning-ladder variant
)

// WorkloadInfo describes a workload. The JSON tags are the
// entry shape mobilesimd serves at /api/v1/workloads.
type WorkloadInfo struct {
	// Name is the workload's name (e.g. "BFS", "slam/standard",
	// "sgemm6/naive").
	Name string       `json:"name"`
	Kind WorkloadKind `json:"kind"`
	// Suite is the originating benchmark suite, when there is one.
	Suite string `json:"suite,omitempty"`
	// Description is a one-line summary.
	Description string `json:"description,omitempty"`
	// Scale presets: SmallScale keeps tests fast, DefaultScale drives
	// benchmarks, PaperScale approximates the paper's input sizes. Zero
	// when the workload does not take an integer scale.
	SmallScale   int `json:"small_scale,omitempty"`
	DefaultScale int `json:"default_scale,omitempty"`
	PaperScale   int `json:"paper_scale,omitempty"`
}

// infoOf describes one Spec.
func infoOf(s *workloads.Spec) WorkloadInfo {
	return WorkloadInfo{
		Name: s.Name, Kind: s.Kind, Suite: s.Suite, Description: s.Description,
		SmallScale: s.SmallScale, DefaultScale: s.DefaultScale, PaperScale: s.PaperScale,
	}
}

// Lookup describes a workload by name. The error for an unknown name lists
// the workloads and suggests the nearest match.
func Lookup(name string) (WorkloadInfo, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return WorkloadInfo{}, err
	}
	return infoOf(spec), nil
}

// Workloads lists every workload sorted by name.
func Workloads() []WorkloadInfo {
	specs := workloads.All()
	out := make([]WorkloadInfo, len(specs))
	for i, s := range specs {
		out[i] = infoOf(s)
	}
	return out
}

// runOptions is the resolved option set for one run.
type runOptions struct {
	// scale is the integer input scale; <= 0 selects the workload's
	// default.
	scale int
	// verify enables checking simulated output against the host-native
	// reference, for workload kinds that have one (default true).
	verify bool
	// collectCFG collects the clause-level divergence CFG for this run
	// and renders it into RunResult.CFG.
	collectCFG bool
}

// RunOption configures one run.
type RunOption func(*runOptions)

// WithScale sets the integer input scale (<= 0 keeps the default).
func WithScale(n int) RunOption { return func(o *runOptions) { o.scale = n } }

// WithVerify toggles output verification against the host-native
// reference (on by default). Turning it off also skips the native run, so
// RunResult.NativeDuration is zero and Verified false.
func WithVerify(on bool) RunOption { return func(o *runOptions) { o.verify = on } }

// WithCFG collects the divergence control-flow graph (Fig 6) for this run
// and renders it into RunResult.CFG, at the cost of a map update per
// clause execution during the run.
func WithCFG() RunOption { return func(o *runOptions) { o.collectCFG = true } }

func resolveOptions(opts []RunOption) *runOptions {
	o := &runOptions{verify: true}
	for _, fn := range opts {
		fn(o)
	}
	return o
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
