package experiments

import (
	"context"
	"io"

	"mobilesim/internal/workloads"
)

// Experiment is one reproducible table or figure of the paper's
// evaluation: Run prints its rows to w.
type Experiment struct {
	Name        string
	Description string
	Run         func(ctx context.Context, w io.Writer, opt Options) error
}

// Index lists every experiment in paper order; cmd/experiments runs them
// by name.
var Index = []Experiment{
	{"fig1", "compiler-version instruction counts", func(_ context.Context, w io.Writer, _ Options) error {
		_, err := Fig1(w)
		return err
	}},
	{"fig6", "BFS divergence CFG", printOnly(Fig6)},
	{"fig7", "full-stack slowdown vs native", printOnly(Fig7)},
	{"fig8", "simulation-rate comparison", printOnly(Fig8)},
	{"fig9", "driver runtime vs input size", printOnly(Fig9)},
	{"fig10", "host-thread scaling", printOnly(Fig10)},
	{"fig11", "instruction mixes", printOnly(Fig11)},
	{"fig12", "data-access breakdowns", printOnly(Fig12)},
	{"fig13", "clause-size distributions", printOnly(Fig13)},
	{"fig14", "SLAMBench configuration study", printOnly(Fig14)},
	{"fig15", "SGEMM tuning-ladder study", printOnly(Fig15)},
	{"table2", "benchmark suite inventory", func(_ context.Context, w io.Writer, _ Options) error { return Table2(w) }},
	{"table3", "system-interaction statistics", printOnly(Table3)},
	{"table4", "simulator feature comparison", func(_ context.Context, w io.Writer, _ Options) error { return Table4(w) }},
}

// printOnly drops an experiment's structured result, keeping its printed
// rows and its error.
func printOnly[T any](f func(context.Context, io.Writer, Options) (T, error)) func(context.Context, io.Writer, Options) error {
	return func(ctx context.Context, w io.Writer, opt Options) error {
		_, err := f(ctx, w, opt)
		return err
	}
}

// Lookup resolves an experiment by name. The error for an unknown name
// lists the experiments and suggests the nearest one.
func Lookup(name string) (Experiment, error) {
	names := make([]string, len(Index))
	for i, e := range Index {
		if e.Name == name {
			return e, nil
		}
		names[i] = e.Name
	}
	return Experiment{}, workloads.UnknownNameError("experiments", "experiment", name, names)
}
