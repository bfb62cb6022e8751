// Command mobilesimctl fans a batch of simulations out over a cluster of
// mobilesimd hosts. It boots the configured platform once locally,
// captures the warm snapshot, ships it to every host, then dispatches the
// jobs with work-stealing, bounded retries on host loss and optional
// hedged requests — and merges the per-run statistics deltas into one
// verified aggregate, bit-identical to running the same jobs in a local
// Batch (see DESIGN.md §11).
//
// Usage:
//
//	mobilesimctl -hosts http://a:8900,http://b:8900 BFS:4 SpMV FFT:2
//	mobilesimctl -hosts ... -suite            # the full Table II suite
//	mobilesimctl -hosts ... -suite -check-local
//
// Jobs are workload names with an optional :scale suffix. -check-local
// additionally runs the same jobs in-process and exits non-zero unless
// the cluster aggregate matches the local one counter-for-counter.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"mobilesim"
)

func main() {
	hosts := flag.String("hosts", "", "comma-separated mobilesimd base URLs (required)")
	suite := flag.Bool("suite", false, "run the full Table II benchmark suite")
	scale := flag.Int("scale", 0, "input scale for -suite jobs (0 = workload default)")
	small := flag.Bool("small", false, "use each workload's small test scale for -suite jobs (overrides -scale)")
	ram := flag.Int("ram", 512, "guest RAM in MiB")
	cores := flag.Int("cores", 8, "simulated shader cores")
	threads := flag.Int("threads", 0, "GPU simulation host threads, at most -cores (0 = one per core)")
	compiler := flag.String("compiler", "", "JIT compiler version (5.6..6.2, default 6.1)")
	streams := flag.Int("streams", 0, "concurrent jobs per host (0 = default)")
	retries := flag.Int("retries", 0, "max attempts per job, hedges included (0 = default)")
	backoff := flag.Duration("backoff", 0, "initial retry backoff (0 = default)")
	hedge := flag.Duration("hedge", 0, "hedge a still-running job on a second host after this delay (0 = off)")
	checkLocal := flag.Bool("check-local", false, "also run the jobs locally and require a bit-identical aggregate")
	stats := flag.Bool("stats", false, "print cluster delivery counters and per-host attempt latencies")
	jsonOut := flag.Bool("json", false, "emit the merged result as JSON")
	timeout := flag.Duration("timeout", 0, "overall deadline (0 = none)")
	flag.Parse()

	if *hosts == "" {
		fmt.Fprintln(os.Stderr, "mobilesimctl: -hosts is required")
		flag.Usage()
		os.Exit(2)
	}
	var hostList []string
	for _, h := range strings.Split(*hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hostList = append(hostList, h)
		}
	}

	var jobs []mobilesim.BatchJob
	if *suite {
		for _, w := range mobilesim.Benchmarks() {
			s := *scale
			if *small {
				s = w.SmallScale
			}
			jobs = append(jobs, mobilesim.BatchJob{Benchmark: w.Name, Scale: s})
		}
	}
	for _, arg := range flag.Args() {
		job, err := parseJob(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mobilesimctl:", err)
			os.Exit(2)
		}
		jobs = append(jobs, job)
	}
	if len(jobs) == 0 {
		fmt.Fprintln(os.Stderr, "mobilesimctl: no jobs: pass workload[:scale] args or -suite")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	batch := &mobilesim.Batch{
		Jobs: jobs,
		Config: mobilesim.Config{
			RAMSize:         uint64(*ram) << 20,
			ShaderCores:     *cores,
			HostThreads:     *threads,
			CompilerVersion: *compiler,
		},
		Hosts: hostList,
		Cluster: mobilesim.ClusterConfig{
			PerHostStreams: *streams,
			MaxAttempts:    *retries,
			RetryBackoff:   *backoff,
			HedgeAfter:     *hedge,
		},
	}

	t0 := time.Now()
	res, err := batch.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobilesimctl:", err)
		os.Exit(1)
	}

	if *jsonOut {
		printJSON(res, len(hostList), *stats)
	} else {
		printText(res, len(hostList), time.Since(t0))
		if *stats {
			printClusterStats(res.Cluster)
		}
	}
	if res.Failed > 0 || res.Skipped > 0 || res.Interrupted > 0 {
		os.Exit(1)
	}

	if *checkLocal {
		local := &mobilesim.Batch{Jobs: jobs, Config: batch.Config}
		lres, err := local.Run(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mobilesimctl: local check:", err)
			os.Exit(1)
		}
		if err := compareAggregates(res, lres); err != nil {
			fmt.Fprintln(os.Stderr, "mobilesimctl: local check FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("local check: cluster aggregate is bit-identical to the local run")
	}
}

// parseJob parses a workload[:scale] argument.
func parseJob(arg string) (mobilesim.BatchJob, error) {
	name, scaleStr, ok := strings.Cut(arg, ":")
	job := mobilesim.BatchJob{Benchmark: name}
	if ok {
		n, err := strconv.Atoi(scaleStr)
		if err != nil || n < 0 {
			return job, fmt.Errorf("bad job %q: scale must be a non-negative integer", arg)
		}
		job.Scale = n
	}
	if _, err := mobilesim.Lookup(name); err != nil {
		return job, err
	}
	return job, nil
}

// compareAggregates requires the deterministic counter fields of the two
// aggregates to match exactly. Wall-clock fields (DriverCPUTime, the
// duration fields) measure host time, not simulated work, and are
// excluded.
func compareAggregates(remote, local *mobilesim.BatchResult) error {
	if remote.Aggregate.GPU != local.Aggregate.GPU {
		return fmt.Errorf("GPU counters differ:\n  cluster: %+v\n  local:   %+v", remote.Aggregate.GPU, local.Aggregate.GPU)
	}
	if remote.Aggregate.System != local.Aggregate.System {
		return fmt.Errorf("system counters differ:\n  cluster: %+v\n  local:   %+v", remote.Aggregate.System, local.Aggregate.System)
	}
	if remote.Aggregate.GuestInstructions != local.Aggregate.GuestInstructions {
		return fmt.Errorf("guest instruction counts differ: cluster %d, local %d",
			remote.Aggregate.GuestInstructions, local.Aggregate.GuestInstructions)
	}
	return nil
}

func printText(res *mobilesim.BatchResult, hosts int, wall time.Duration) {
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		switch {
		case jr.Err != nil:
			fmt.Printf("  %-14s FAILED: %v\n", jr.Job.Benchmark, jr.Err)
		case jr.Result != nil:
			fmt.Printf("  %-14s ok  verified=%-5v sim=%8.2fms  insns=%d\n",
				jr.Job.Benchmark, jr.Result.Verified,
				float64(jr.Result.SimDuration)/float64(time.Millisecond),
				jr.Result.Stats.GuestInstructions)
		}
	}
	a := &res.Aggregate
	fmt.Printf("cluster: %d hosts  %d completed  %d failed  %d skipped  wall %.2fs\n",
		hosts, res.Completed, res.Failed, res.Skipped, wall.Seconds())
	fmt.Printf("merged:  kernels=%d compute_jobs=%d gpu_insns=%d mem_acc=%d guest_insns=%d\n",
		a.System.KernelLaunch, a.System.ComputeJobs, a.GPU.TotalInstr(), a.GPU.MainMemAcc, a.GuestInstructions)
}

// printClusterStats renders the delivery counters and per-host attempt
// latency summaries collected during the cluster run (-stats).
func printClusterStats(cr *mobilesim.ClusterReport) {
	if cr == nil {
		return
	}
	fmt.Printf("delivery: retries=%d hedges=%d discarded=%d reships=%d\n",
		cr.Retries, cr.Hedges, cr.Discarded, cr.Reships)
	for i := range cr.Hosts {
		h := &cr.Hosts[i]
		state := "live"
		if h.Dead {
			state = "DEAD"
		}
		fmt.Printf("  %-28s %-4s runs=%-4d %s %s %s\n", h.URL, state, h.Runs,
			latencyColumn("dispatch", h.Dispatch),
			latencyColumn("retry", h.Retry),
			latencyColumn("hedge", h.Hedge))
	}
}

// latencyJSON renders a latency snapshot as a small JSON object, or nil
// when nothing was observed (the field is omitted).
func latencyJSON(s mobilesim.LatencySnapshot) any {
	if s.Count == 0 {
		return nil
	}
	sum := s.Summary()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return map[string]any{
		"count":   sum.Count,
		"mean_ms": ms(sum.Mean),
		"p50_ms":  ms(sum.P50),
		"p90_ms":  ms(sum.P90),
		"p99_ms":  ms(sum.P99),
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

func printJSON(res *mobilesim.BatchResult, hosts int, stats bool) {
	type jobOut struct {
		Workload string  `json:"workload"`
		Scale    int     `json:"scale"`
		Verified bool    `json:"verified,omitempty"`
		SimMS    float64 `json:"sim_ms,omitempty"`
		Error    string  `json:"error,omitempty"`
	}
	type hostLatOut struct {
		URL      string `json:"url"`
		Dead     bool   `json:"dead,omitempty"`
		Runs     uint64 `json:"runs"`
		Dispatch any    `json:"dispatch,omitempty"`
		Retry    any    `json:"retry,omitempty"`
		Hedge    any    `json:"hedge,omitempty"`
	}
	type clusterOut struct {
		Retries   uint64       `json:"retries"`
		Hedges    uint64       `json:"hedges"`
		Discarded uint64       `json:"discarded"`
		Reships   uint64       `json:"reships"`
		Hosts     []hostLatOut `json:"hosts"`
	}
	out := struct {
		Hosts     int              `json:"hosts"`
		Completed int              `json:"completed"`
		Failed    int              `json:"failed"`
		Skipped   int              `json:"skipped"`
		WallMS    float64          `json:"wall_ms"`
		Jobs      []jobOut         `json:"jobs"`
		Aggregate *mobilesim.Stats `json:"aggregate"`
		Cluster   *clusterOut      `json:"cluster,omitempty"`
	}{
		Hosts: hosts, Completed: res.Completed, Failed: res.Failed, Skipped: res.Skipped,
		WallMS:    float64(res.Wall) / float64(time.Millisecond),
		Aggregate: &res.Aggregate,
	}
	if stats && res.Cluster != nil {
		co := &clusterOut{
			Retries: res.Cluster.Retries, Hedges: res.Cluster.Hedges,
			Discarded: res.Cluster.Discarded, Reships: res.Cluster.Reships,
		}
		for i := range res.Cluster.Hosts {
			h := &res.Cluster.Hosts[i]
			co.Hosts = append(co.Hosts, hostLatOut{
				URL: h.URL, Dead: h.Dead, Runs: h.Runs,
				Dispatch: latencyJSON(h.Dispatch),
				Retry:    latencyJSON(h.Retry),
				Hedge:    latencyJSON(h.Hedge),
			})
		}
		out.Cluster = co
	}
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		jo := jobOut{Workload: jr.Job.Benchmark, Scale: jr.Job.Scale}
		if jr.Result != nil {
			jo.Verified = jr.Result.Verified
			jo.SimMS = float64(jr.Result.SimDuration) / float64(time.Millisecond)
		}
		if jr.Err != nil {
			jo.Error = jr.Err.Error()
		}
		out.Jobs = append(out.Jobs, jo)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&out)
}
