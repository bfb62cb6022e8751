// Command mobilesim runs workloads on the full simulated CPU/GPU
// platform and prints their execution and system statistics — the
// simulator's day-to-day workload-characterisation workflow.
//
// Usage:
//
//	mobilesim [-scale N] [-ram MiB] [-threads N] [-cores N] [-compiler VER] [-cfg] [-timeout D] [-workers N] [-list] <workload>...
//
// A workload is any registered name (see -list): a Table II benchmark, a
// SLAMBench preset (slam/standard) or a SGEMM ladder rung (sgemm6/naive);
// cmd/experiments prints the paper's tables and figures. With more than
// one workload (or -workers > 1) the runs execute as a concurrent batch,
// one fresh session per workload, and an aggregate summary is printed at
// the end.
// -cfg prints the divergence CFG of a single workload's run; a batch has
// no graph to print, so -cfg with one is a usage error.
//
// Ctrl-C — or an elapsed -timeout — cancels mid-run: the executing
// kernel is soft-stopped at a clause boundary and interrupted jobs are
// reported as such.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"text/tabwriter"
	"time"

	"mobilesim"
)

func main() {
	scale := flag.Int("scale", 0, "input scale (0 = workload default)")
	ram := flag.Int("ram", 1024, "guest RAM in MiB")
	threads := flag.Int("threads", 0, "GPU simulation host threads, at most -cores (0 = one per core)")
	cores := flag.Int("cores", 8, "simulated shader cores")
	compiler := flag.String("compiler", "", "JIT compiler version (5.6..6.2, default 6.1)")
	cfg := flag.Bool("cfg", false, "collect and print the divergence CFG")
	workers := flag.Int("workers", 0, "concurrent sessions for multi-workload runs (0 = one per CPU)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = none); running kernels are interrupted at a clause boundary")
	list := flag.Bool("list", false, "list registered workloads")
	flag.Parse()

	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "name\tkind\tsuite\tdescription")
		for _, w := range mobilesim.Workloads() {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", w.Name, w.Kind, w.Suite, w.Description)
		}
		tw.Flush()
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mobilesim [flags] <workload>...   (see -list)")
		os.Exit(2)
	}
	single := flag.NArg() == 1 && *workers <= 1
	if *cfg && !single {
		fmt.Fprintln(os.Stderr, "usage: mobilesim -cfg <workload>   (-cfg prints one run's graph: one workload, -workers <= 1)")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	conf := mobilesim.Config{
		RAMSize:         uint64(*ram) << 20,
		ShaderCores:     *cores,
		HostThreads:     *threads,
		CompilerVersion: *compiler,
	}
	var err error
	if single {
		err = runOne(ctx, flag.Arg(0), *scale, *cfg, conf)
	} else {
		err = runBatch(ctx, flag.Args(), *scale, *workers, conf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobilesim:", err)
		os.Exit(1)
	}
}

// runOne runs a single workload and prints the full statistics table, and
// with withCFG the run's divergence control-flow graph.
func runOne(ctx context.Context, name string, scale int, withCFG bool, conf mobilesim.Config) error {
	sess, err := mobilesim.New(conf)
	if err != nil {
		return err
	}
	defer sess.Close()

	opts := []mobilesim.RunOption{mobilesim.WithScale(scale)}
	if withCFG {
		opts = append(opts, mobilesim.WithCFG())
	}
	res, err := sess.Run(ctx, name, opts...)
	if err != nil {
		return err
	}
	if res.VerifyErr != nil {
		return fmt.Errorf("verification FAILED: %v", res.VerifyErr)
	}

	fmt.Printf("%s (%s), scale %d, %d SCs\n", res.Workload, res.Kind, res.Scale, conf.ShaderCores)
	printStats(res)

	if withCFG {
		fmt.Println("\ncontrol-flow graph (clause addresses, thread proportions):")
		fmt.Print(res.CFG)
	}
	return nil
}

// printStats renders one run's statistics table (per-run deltas).
func printStats(res *mobilesim.RunResult) {
	gs, sys := res.Stats.GPU, res.Stats.System
	a, ls, nop, cf := gs.MixFractions()
	da := gs.DataAccessFractions()
	min, q1, med, q3, max := gs.ClauseSizeQuartiles()

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if res.Verified {
		fmt.Fprintf(tw, "verified\tyes (vs host-native reference)\n")
	}
	fmt.Fprintf(tw, "sim time\t%v (native %v, slowdown %.0fx)\n",
		res.SimDuration.Round(time.Millisecond), res.NativeDuration,
		float64(res.SimDuration)/float64(maxDur(res.NativeDuration, 1)))
	fmt.Fprintf(tw, "wall time\t%v\n", res.Wall.Round(time.Millisecond))
	fmt.Fprintf(tw, "driver CPU time\t%v (%d guest instructions)\n",
		res.Stats.DriverCPUTime.Round(time.Millisecond), res.Stats.GuestInstructions)
	fmt.Fprintf(tw, "compute jobs\t%d (kernel launches %d)\n", sys.ComputeJobs, sys.KernelLaunch)
	fmt.Fprintf(tw, "threads / warps / workgroups\t%d / %d / %d\n", gs.Threads, gs.Warps, gs.Workgroups)
	fmt.Fprintf(tw, "instructions\t%d (arith %.1f%%, LS %.1f%%, nop %.1f%%, CF %.1f%%)\n",
		gs.TotalInstr(), 100*a, 100*ls, 100*nop, 100*cf)
	fmt.Fprintf(tw, "data accesses\ttemp %.1f%%, GRF r %.1f%%, GRF w %.1f%%, const %.1f%%, ROM %.1f%%, mem %.1f%%\n",
		100*da[0], 100*da[1], 100*da[2], 100*da[3], 100*da[4], 100*da[5])
	fmt.Fprintf(tw, "clauses\t%d executed, sizes min/q1/med/q3/max = %.0f/%.0f/%.0f/%.0f/%.0f\n",
		gs.ClausesExec, min, q1, med, q3, max)
	fmt.Fprintf(tw, "divergence\t%d of %d branches split a warp\n", gs.DivergentBranches, gs.Branches)
	fmt.Fprintf(tw, "registers\t%d GRF\n", gs.RegistersUsed)
	fmt.Fprintf(tw, "system\tpages %d, ctrl reads %d, ctrl writes %d, IRQs %d\n",
		sys.PagesAccessed, sys.CtrlRegReads, sys.CtrlRegWrites, sys.IRQsAsserted)
	fmt.Fprintf(tw, "modelled cost\tMali-G71 %.3g cycles, K20m %.3g cycles (relative ranking units)\n",
		res.Modeled.MobileCycles, res.Modeled.DesktopCycles)
	tw.Flush()
}

// runBatch runs several workloads concurrently through the Batch API and
// prints one summary row per run plus the aggregate.
func runBatch(ctx context.Context, names []string, scale, workers int, conf mobilesim.Config) error {
	jobs := make([]mobilesim.BatchJob, len(names))
	for i, n := range names {
		jobs[i] = mobilesim.BatchJob{Benchmark: n, Scale: scale}
	}
	batch := &mobilesim.Batch{Jobs: jobs, Workers: workers, Config: conf}
	res, runErr := batch.Run(ctx)
	if res == nil {
		return runErr
	}
	// On cancellation, still report what completed before the interrupt.

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tstatus\tsim time\tGPU instr\tjobs\tIRQs")
	for _, jr := range res.Jobs {
		switch {
		case jr.Interrupted:
			fmt.Fprintf(tw, "%s\tinterrupted mid-run (%v)\t\t\t\t\n", jr.Job.Benchmark, jr.Err)
		case jr.Result == nil && ctx.Err() != nil && errors.Is(jr.Err, ctx.Err()):
			fmt.Fprintf(tw, "%s\tskipped (%v)\t\t\t\t\n", jr.Job.Benchmark, jr.Err)
		case jr.Err != nil:
			fmt.Fprintf(tw, "%s\tFAILED: %v\t\t\t\t\n", jr.Job.Benchmark, jr.Err)
		default:
			r := jr.Result
			fmt.Fprintf(tw, "%s\tok\t%v\t%d\t%d\t%d\n", r.Workload,
				r.SimDuration.Round(time.Millisecond), r.Stats.GPU.TotalInstr(),
				r.Stats.System.ComputeJobs, r.Stats.System.IRQsAsserted)
		}
	}
	tw.Flush()

	agg := res.Aggregate
	fmt.Printf("\nbatch: %d ok, %d failed, %d interrupted, %d skipped in %v\n",
		res.Completed, res.Failed, res.Interrupted, res.Skipped, res.Wall.Round(time.Millisecond))
	fmt.Printf("aggregate: %d GPU instructions, %d compute jobs, %d guest instructions, driver CPU %v\n",
		agg.GPU.TotalInstr(), agg.System.ComputeJobs, agg.GuestInstructions,
		agg.DriverCPUTime.Round(time.Millisecond))
	if runErr != nil {
		return runErr
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", res.Failed, len(res.Jobs))
	}
	return nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
