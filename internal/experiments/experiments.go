// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each Fig*/Table* function runs the relevant workloads
// on the simulator, prints the same rows/series the paper reports, and
// returns the structured data so benchmarks and tests can assert shape
// properties. The per-experiment index and expected shape properties
// live in EXPERIMENTS.md; the design-decision (ablation) index is
// DESIGN.md §5. Index names every experiment ("fig7", "table3", …);
// cmd/experiments runs them. Each experiment boots its own platforms, so
// none of them is a workload of the mobilesim registry.
package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"mobilesim/internal/cl"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
	"mobilesim/internal/stats"
	"mobilesim/internal/workloads"
)

// ScaleKind selects workload input sizes.
type ScaleKind string

// Scale presets.
const (
	ScaleSmall   ScaleKind = "small"   // seconds-fast, CI-sized
	ScaleDefault ScaleKind = "default" // minutes, bench-sized
	ScalePaper   ScaleKind = "paper"   // Table II sizes (can take hours)
)

// ParseScale resolves a scale name. An unknown name is an error, not a
// fallback: the experiments would otherwise disagree on which scale it
// means.
func ParseScale(name string) (ScaleKind, error) {
	switch k := ScaleKind(name); k {
	case ScaleSmall, ScaleDefault, ScalePaper:
		return k, nil
	}
	return "", fmt.Errorf("unknown scale %q (have %s, %s, %s)", name, ScaleSmall, ScaleDefault, ScalePaper)
}

// Options configures a run. Cancellation is not an option: every
// experiment entry point takes the caller's context.Context explicitly
// (between workload runs it cancels immediately, inside a run at kernel
// clause-boundary granularity), so it cannot be forgotten and silently
// replaced with context.Background — exactly the bug the ctxflow lint
// (DESIGN.md §10) guards against.
type Options struct {
	Scale ScaleKind
	// HostThreads is the number of host threads that run the MP8's eight
	// shader cores (0 = one per core). It moves no counter.
	HostThreads int
	// CompilerVersion overrides the JIT version (empty = default).
	CompilerVersion string
}

func (o Options) scaleOf(s *workloads.Spec) int {
	switch o.Scale {
	case ScalePaper:
		return s.PaperScale
	case ScaleDefault:
		return s.DefaultScale
	default:
		return s.SmallScale
	}
}

func (o Options) gpuConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	if o.HostThreads > 0 {
		cfg.HostThreads = o.HostThreads
	}
	return cfg
}

// runOutcome couples a workload result with the stats snapshots.
type runOutcome struct {
	res   *workloads.Result
	gs    stats.GPUStats
	sys   stats.SystemStats
	setup time.Duration // host-native input generation time
	// The driver's guest CPU during the workload alone (boot and driver
	// probe excluded): simulation time, retired instructions and
	// fetch-and-decode events.
	cpuTime         time.Duration
	instrs, decodes uint64
}

// runOne executes a workload at the given scale on a fresh platform,
// verified against its host-native reference when it has one. mutate, when
// set, adjusts the platform before the runtime opens.
func runOne(ctx context.Context, spec *workloads.Spec, scale int, opt Options, mutate func(*platform.Platform)) (*runOutcome, error) {
	p, err := platform.New(platform.Config{RAMSize: 1 << 30, GPU: opt.gpuConfig()})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	if mutate != nil {
		mutate(p)
	}
	c, err := cl.NewContext(p, opt.CompilerVersion)
	if err != nil {
		return nil, err
	}
	core := c.Drv.Core
	cpuTime, instrs, decodes := c.Drv.CPUTime, core.Instret, core.Decodes
	t0 := time.Now()
	inst := spec.Make(scale)
	setup := time.Since(t0)
	res, err := inst.Run(ctx, c, spec.Name, true)
	if err != nil {
		return nil, err
	}
	if res.VerifyErr != nil {
		return nil, fmt.Errorf("%s failed verification: %w", spec.Name, res.VerifyErr)
	}
	gs, sys := p.GPU.Stats()
	return &runOutcome{res: res, gs: gs, sys: sys, setup: setup,
		cpuTime: c.Drv.CPUTime - cpuTime, instrs: core.Instret - instrs, decodes: core.Decodes - decodes}, nil
}

// table streams aligned columns.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}
