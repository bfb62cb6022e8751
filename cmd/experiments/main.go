// Command experiments regenerates the paper's tables and figures. Each
// experiment boots the platforms it measures, parameterised by the host
// thread count and compiler version given here. Ctrl-C cancels
// mid-experiment.
//
// Usage:
//
//	experiments [-scale small|default|paper] [-threads N] [-compiler VER] <exp> [<exp>...]
//
// where <exp> is one of: fig1 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13
// fig14 fig15 table2 table3 table4 all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"

	"mobilesim/internal/clc"
	"mobilesim/internal/experiments"
	"mobilesim/internal/gpu"
)

func main() {
	scale := flag.String("scale", "default", "input scale: small, default or paper")
	threads := flag.Int("threads", 0, "GPU simulation host threads, at most 8 (0 = one per core)")
	compiler := flag.String("compiler", "", "JIT compiler version (default 6.1)")
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "\nexperiments (or all):")
		for _, e := range experiments.Index {
			fmt.Fprintf(tw, "  %s\t%s\n", e.Name, e.Description)
		}
		tw.Flush()
		os.Exit(2)
	}
	scaleKind, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if _, ok := clc.Versions[*compiler]; *compiler != "" && !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown compiler version %q (have %s)\n",
			*compiler, strings.Join(clc.VersionNames(), ", "))
		os.Exit(1)
	}
	if cores := gpu.DefaultConfig().ShaderCores; *threads < 0 || *threads > cores {
		fmt.Fprintf(os.Stderr, "experiments: -threads %d outside 0…%d (at most one host thread per shader core)\n", *threads, cores)
		os.Exit(1)
	}

	todo := experiments.Index
	if flag.NArg() > 1 || flag.Arg(0) != "all" {
		todo = nil
		for _, n := range flag.Args() {
			e, err := experiments.Lookup(n)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			todo = append(todo, e)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.Options{
		Scale:           scaleKind,
		HostThreads:     *threads,
		CompilerVersion: *compiler,
	}
	for _, e := range todo {
		if err := e.Run(ctx, os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
}
