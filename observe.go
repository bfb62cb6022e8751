package mobilesim

import (
	"mobilesim/internal/costmodel"
	"mobilesim/internal/obs"
	"mobilesim/internal/workloads"
)

// This file is the facade's observability surface: the latency snapshot
// and summary types re-exported from internal/obs, and the analytical cost
// estimate attached to every run (DESIGN.md §12).

// LatencySnapshot is a mergeable point-in-time copy of a log-bucketed
// latency histogram. Snapshots from different sessions, pools or hosts
// can be Merged and then queried for quantiles (Quantile, Summary).
type LatencySnapshot = obs.Snapshot

// LatencySummary condenses a LatencySnapshot into count, mean and
// p50/p90/p99. Quantiles are log-bucket estimates with at most ~2×
// relative error; Mean is exact.
type LatencySummary = obs.Summary

// ModeledCost is the analytical timing estimate attached to every run:
// the paper's Fig 15 cross-platform models evaluated on the run's own
// statistics delta. Both figures are *relative* runtimes in arbitrary
// model units — they rank kernels and expose platform-divergent
// behaviour (a mobile-hostile access pattern scores high on MobileCycles
// but low on DesktopCycles) — not cycle-accurate predictions, and they
// are not comparable across the two models. Being pure functions of the
// deterministic counters, they are bit-identical whether a run executed
// locally or on a cluster host.
type ModeledCost struct {
	// MobileCycles is the Mali-G71 mobile model estimate: LPDDR traffic
	// dominates, register pressure past the occupancy knee multiplies
	// exposed memory latency.
	MobileCycles float64
	// DesktopCycles is the K20m desktop model estimate: ALU nearly free,
	// coalescing and cache behaviour dominate, plus per-launch overhead.
	DesktopCycles float64
}

// modeledCost evaluates both analytical models on a per-run statistics
// delta: the run's own (snapshot-diffed) counters. The desktop model reads
// the Spec's profile (the SGEMM ladder rungs carry one).
func modeledCost(delta *Stats, spec *workloads.Spec) ModeledCost {
	return ModeledCost{
		MobileCycles:  costmodel.MaliG71().Estimate(&delta.GPU),
		DesktopCycles: costmodel.K20m().Estimate(&delta.GPU, spec.CostProfile(), delta.System.KernelLaunch),
	}
}
