package mobilesim

import (
	"context"
	"io"
	"strings"
	"time"

	"mobilesim/internal/experiments"
)

// ExperimentScale selects workload input sizes for the experiment
// harness.
type ExperimentScale string

const (
	// ExperimentScaleSmall is seconds-fast, CI-sized.
	ExperimentScaleSmall ExperimentScale = "small"
	// ExperimentScaleDefault takes minutes, bench-sized.
	ExperimentScaleDefault ExperimentScale = "default"
	// ExperimentScalePaper approximates Table II sizes (can take hours).
	ExperimentScalePaper ExperimentScale = "paper"
)

// experimentRunners pairs each experiment name with its harness entry,
// in paper order; the registry entries and Experiments are both driven by
// this single table.
var experimentRunners = []struct {
	name string
	desc string
	run  func(context.Context, io.Writer, experiments.Options) error
}{
	{"fig1", "compiler-version instruction counts", func(_ context.Context, w io.Writer, _ experiments.Options) error {
		_, err := experiments.Fig1(w)
		return err
	}},
	{"fig6", "BFS divergence CFG", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig6(ctx, w, o)
		return err
	}},
	{"fig7", "full-stack slowdown vs native", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig7(ctx, w, o)
		return err
	}},
	{"fig8", "host-thread scaling", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig8(ctx, w, o)
		return err
	}},
	{"fig9", "driver runtime vs input size", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig9(ctx, w, o)
		return err
	}},
	{"fig10", "simulation-rate comparison", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig10(ctx, w, o)
		return err
	}},
	{"fig11", "instruction mixes", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig11(ctx, w, o)
		return err
	}},
	{"fig12", "data-access breakdowns", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig12(ctx, w, o)
		return err
	}},
	{"fig13", "clause-size distributions", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig13(ctx, w, o)
		return err
	}},
	{"fig14", "SLAMBench configuration study", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig14(ctx, w, o)
		return err
	}},
	{"fig15", "SGEMM tuning-ladder study", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Fig15(ctx, w, o)
		return err
	}},
	{"table2", "benchmark suite inventory", func(_ context.Context, w io.Writer, _ experiments.Options) error { return experiments.Table2(w) }},
	{"table3", "system-interaction statistics", func(ctx context.Context, w io.Writer, o experiments.Options) error {
		_, err := experiments.Table3(ctx, w, o)
		return err
	}},
	{"table4", "simulator feature comparison", func(_ context.Context, w io.Writer, _ experiments.Options) error { return experiments.Table4(w) }},
}

func init() {
	for _, e := range experimentRunners {
		mustRegister(experimentWorkload{name: e.name, desc: e.desc, run: e.run})
	}
}

// experimentWorkload adapts one paper table/figure to the Workload
// contract. Experiments boot their own dedicated platforms; the session
// contributes its configuration (host threads, compiler version) and its
// run slot, and its own device stays idle.
type experimentWorkload struct {
	name string
	desc string
	run  func(context.Context, io.Writer, experiments.Options) error
}

func (e experimentWorkload) Info() WorkloadInfo {
	return WorkloadInfo{
		Name: e.name, Kind: KindExperiment, Suite: "paper",
		Description: e.desc,
	}
}

func (e experimentWorkload) Execute(ctx context.Context, s *Session, opt *RunOptions) (*RunResult, error) {
	eopt := experiments.Options{
		Scale:           experiments.ScaleKind(opt.ExperimentScale),
		HostThreads:     s.Config().HostThreads,
		CompilerVersion: s.Config().CompilerVersion,
	}
	w := opt.Output
	var captured strings.Builder
	if w == nil {
		w = &captured
	}
	t0 := time.Now()
	if err := e.run(ctx, w, eopt); err != nil {
		return nil, err
	}
	return &RunResult{
		Workload: e.name, Kind: KindExperiment,
		SimDuration: time.Since(t0),
		// Experiments verify every workload they run internally and fail
		// otherwise, so reaching here means verified.
		Verified: true,
		Output:   captured.String(),
	}, nil
}

// Experiments lists the reproducible tables and figures of the paper's
// evaluation, in paper order.
func Experiments() []string {
	out := make([]string, len(experimentRunners))
	for i, e := range experimentRunners {
		out[i] = e.name
	}
	return out
}
