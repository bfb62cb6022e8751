// Command mobilesim runs workloads on the full simulated CPU/GPU
// platform and prints their execution and system statistics — the
// simulator's day-to-day workload-characterisation workflow.
//
// Usage:
//
//	mobilesim [-scale N] [-ram MiB] [-threads N] [-cores N] [-compiler VER] [-cfg] [-timeout D] [-workers N] [-list] <workload>...
//	mobilesim -hosts URL,URL,... [-hedge D] [-stats] [-check-local] <workload>...
//	mobilesim [-hosts ...] -suite [-small] [<workload>...]
//
// A workload is any registered name (see -list): a Table II benchmark, a
// SLAMBench preset (slam/standard) or a SGEMM ladder rung (sgemm6/naive);
// cmd/experiments prints the paper's tables and figures. -suite adds the
// whole Table II suite, at each benchmark's small test scale with -small.
// With more than one workload (or -workers > 1) the runs execute as a
// concurrent batch, one fresh session per workload, and an aggregate
// summary is printed at the end.
// -cfg prints the divergence CFG of a single workload's run; a batch has
// no graph to print, so -cfg with one is a usage error.
//
// -hosts runs the batch on mobilesimd hosts instead (Batch.Hosts,
// DESIGN.md §11): the platform is booted once here, its warm snapshot is
// shipped to every host, and the per-run statistics merge into the same
// summary. -hedge duplicates a still-running job on a second host after a
// delay, -stats prints the delivery report, and -check-local re-runs the
// jobs in-process and fails unless the aggregate matches counter for
// counter. These three need -hosts; -cfg and -workers are local-only.
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
	"io"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"
	"time"

	"mobilesim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args and returns the exit status —
// 0 on success, 1 when a run fails, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobilesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 0, "input scale (0 = workload default)")
	ram := fs.Int("ram", 512, "guest RAM in MiB")
	threads := fs.Int("threads", 0, "GPU simulation host threads, at most -cores (0 = one per core)")
	cores := fs.Int("cores", 8, "simulated shader cores")
	compiler := fs.String("compiler", "", "JIT compiler version (5.6..6.2, default 6.1)")
	cfg := fs.Bool("cfg", false, "collect and print the divergence CFG (one local workload)")
	workers := fs.Int("workers", 0, "concurrent local sessions for multi-workload runs (0 = one per CPU)")
	timeout := fs.Duration("timeout", 0, "cancel the run after this duration (0 = none); running kernels are interrupted at a clause boundary")
	list := fs.Bool("list", false, "list registered workloads")
	suite := fs.Bool("suite", false, "add the full Table II benchmark suite to the jobs")
	small := fs.Bool("small", false, "run -suite jobs at each benchmark's small test scale (overrides -scale)")
	hosts := fs.String("hosts", "", "comma-separated mobilesimd base URLs: run the batch on them")
	hedge := fs.Duration("hedge", 0, "with -hosts: duplicate a still-running job on a second host after this delay (0 = off)")
	stats := fs.Bool("stats", false, "with -hosts: print delivery counters and per-host attempt latencies")
	checkLocal := fs.Bool("check-local", false, "with -hosts: also run the jobs locally and require a bit-identical aggregate")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "name\tkind\tsuite\tdescription")
		for _, w := range mobilesim.Workloads() {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", w.Name, w.Kind, w.Suite, w.Description)
		}
		tw.Flush()
		return 0
	}

	batch := &mobilesim.Batch{
		Workers: *workers,
		Config: mobilesim.Config{
			RAMSize:         uint64(*ram) << 20,
			ShaderCores:     *cores,
			HostThreads:     *threads,
			CompilerVersion: *compiler,
		},
		Cluster: mobilesim.ClusterConfig{HedgeAfter: *hedge},
	}
	for _, h := range strings.Split(*hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			batch.Hosts = append(batch.Hosts, h)
		}
	}
	if *suite {
		for _, b := range mobilesim.Benchmarks() {
			s := *scale
			if *small {
				s = b.SmallScale
			}
			batch.Jobs = append(batch.Jobs, mobilesim.BatchJob{Benchmark: b.Name, Scale: s})
		}
	}
	for _, name := range fs.Args() {
		batch.Jobs = append(batch.Jobs, mobilesim.BatchJob{Benchmark: name, Scale: *scale})
	}

	remote := len(batch.Hosts) > 0
	single := len(batch.Jobs) == 1 && *workers <= 1 && !remote
	for _, u := range []struct {
		bad bool
		msg string
	}{
		{len(batch.Jobs) == 0, "mobilesim [flags] <workload>...   (see -list), or -suite"},
		{!remote && (*checkLocal || *hedge != 0 || *stats), "-check-local, -hedge and -stats need -hosts"},
		{remote && (*cfg || *workers != 0), "-cfg and -workers run locally: drop them or -hosts"},
		{*cfg && !single, "mobilesim -cfg <workload>   (-cfg prints one run's graph: one workload, -workers <= 1)"},
	} {
		if u.bad {
			fmt.Fprintln(stderr, "usage:", u.msg)
			return 2
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var err error
	if single {
		err = runOne(ctx, stdout, batch.Jobs[0], *cfg, batch.Config)
	} else {
		err = runBatch(ctx, stdout, batch, *stats, *checkLocal)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mobilesim:", err)
		return 1
	}
	return 0
}

// runOne runs a single workload and prints the full statistics table, and
// with withCFG the run's divergence control-flow graph.
func runOne(ctx context.Context, w io.Writer, job mobilesim.BatchJob, withCFG bool, conf mobilesim.Config) error {
	sess, err := mobilesim.New(conf)
	if err != nil {
		return err
	}
	defer sess.Close()

	opts := []mobilesim.RunOption{mobilesim.WithScale(job.Scale)}
	if withCFG {
		opts = append(opts, mobilesim.WithCFG())
	}
	res, err := sess.Run(ctx, job.Benchmark, opts...)
	if err != nil {
		return err
	}
	if res.VerifyErr != nil {
		return fmt.Errorf("verification FAILED: %v", res.VerifyErr)
	}

	fmt.Fprintf(w, "%s (%s), scale %d, %d SCs\n", res.Workload, res.Kind, res.Scale, conf.ShaderCores)
	printStats(w, res)

	if withCFG {
		fmt.Fprintln(w, "\ncontrol-flow graph (clause addresses, thread proportions):")
		fmt.Fprint(w, res.CFG)
	}
	return nil
}

// printStats renders one run's statistics table (per-run deltas).
func printStats(w io.Writer, res *mobilesim.RunResult) {
	gs, sys := res.Stats.GPU, res.Stats.System
	a, ls, nop, cf := gs.MixFractions()
	da := gs.DataAccessFractions()
	lo, q1, med, q3, hi := gs.ClauseSizeQuartiles()

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if res.Verified {
		fmt.Fprintf(tw, "verified\tyes (vs host-native reference)\n")
	}
	fmt.Fprintf(tw, "sim time\t%v (native %v, slowdown %.0fx)\n",
		res.SimDuration.Round(time.Millisecond), res.NativeDuration,
		float64(res.SimDuration)/float64(max(res.NativeDuration, 1)))
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
		gs.ClausesExec, lo, q1, med, q3, hi)
	fmt.Fprintf(tw, "divergence\t%d of %d branches split a warp\n", gs.DivergentBranches, gs.Branches)
	fmt.Fprintf(tw, "registers\t%d GRF\n", gs.RegistersUsed)
	fmt.Fprintf(tw, "system\tpages %d, ctrl reads %d, ctrl writes %d, IRQs %d\n",
		sys.PagesAccessed, sys.CtrlRegReads, sys.CtrlRegWrites, sys.IRQsAsserted)
	fmt.Fprintf(tw, "modelled cost\tMali-G71 %.3g cycles, K20m %.3g cycles (relative ranking units)\n",
		res.Modeled.MobileCycles, res.Modeled.DesktopCycles)
	tw.Flush()
}

// runBatch runs the batch — locally, or on batch.Hosts — and prints one
// summary row per run plus the aggregate; for a cluster batch, the
// delivery report with withStats and, with checkLocal, the comparison
// against the same jobs run in-process.
func runBatch(ctx context.Context, w io.Writer, batch *mobilesim.Batch, withStats, checkLocal bool) error {
	res, runErr := batch.Run(ctx)
	if res == nil {
		return runErr
	}
	// On cancellation, still report what completed before the interrupt.

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
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
	fmt.Fprintf(w, "\nbatch: %d ok, %d failed, %d interrupted, %d skipped in %v\n",
		res.Completed, res.Failed, res.Interrupted, res.Skipped, res.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "aggregate: %d GPU instructions, %d compute jobs, %d guest instructions, driver CPU %v\n",
		agg.GPU.TotalInstr(), agg.System.ComputeJobs, agg.GuestInstructions,
		agg.DriverCPUTime.Round(time.Millisecond))
	if withStats {
		printClusterStats(w, res.Cluster)
	}
	if runErr != nil {
		return runErr
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", res.Failed, len(res.Jobs))
	}

	if checkLocal {
		local, err := (&mobilesim.Batch{Jobs: batch.Jobs, Config: batch.Config}).Run(ctx)
		if err != nil {
			return fmt.Errorf("local check: %w", err)
		}
		if err := compareAggregates(agg, local.Aggregate); err != nil {
			return fmt.Errorf("local check FAILED: %w", err)
		}
		fmt.Fprintln(w, "local check: cluster aggregate is bit-identical to the local run")
	}
	return nil
}

// compareAggregates requires the deterministic counter fields of the two
// aggregates to match exactly. DriverCPUTime measures host time, not
// simulated work, and is excluded.
func compareAggregates(cluster, local mobilesim.Stats) error {
	if cluster.GPU != local.GPU {
		return fmt.Errorf("GPU counters differ:\n  cluster: %+v\n  local:   %+v", cluster.GPU, local.GPU)
	}
	if cluster.System != local.System {
		return fmt.Errorf("system counters differ:\n  cluster: %+v\n  local:   %+v", cluster.System, local.System)
	}
	if cluster.GuestInstructions != local.GuestInstructions {
		return fmt.Errorf("guest instruction counts differ: cluster %d, local %d",
			cluster.GuestInstructions, local.GuestInstructions)
	}
	return nil
}

// printClusterStats renders the delivery counters and per-host attempt
// latency summaries collected during a cluster run (-stats).
func printClusterStats(w io.Writer, cr *mobilesim.ClusterReport) {
	fmt.Fprintf(w, "delivery: retries=%d hedges=%d discarded=%d reships=%d\n",
		cr.Retries, cr.Hedges, cr.Discarded, cr.Reships)
	for i := range cr.Hosts {
		h := &cr.Hosts[i]
		state := "live"
		if h.Dead {
			state = "DEAD"
		}
		fmt.Fprintf(w, "  %-28s %-4s runs=%-4d %s %s %s\n", h.URL, state, h.Runs,
			latencyColumn("dispatch", h.Dispatch),
			latencyColumn("retry", h.Retry),
			latencyColumn("hedge", h.Hedge))
	}
}

// latencyColumn formats one attempt-latency snapshot as
// "name n=COUNT p50=… p99=…", or "name n=0" when nothing was observed.
func latencyColumn(name string, s mobilesim.LatencySnapshot) string {
	if s.Count == 0 {
		return fmt.Sprintf("%s n=0", name)
	}
	return fmt.Sprintf("%s n=%d p50=%.1fms p99=%.1fms", name, s.Count,
		float64(s.Quantile(0.5))/float64(time.Millisecond),
		float64(s.Quantile(0.99))/float64(time.Millisecond))
}
