package mobilesim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mobilesim/internal/workloads"
)

// BatchJob is one independent simulation in a Batch: a workload name and
// an input scale, run on a session of the batch's Config.
type BatchJob struct {
	// Benchmark names a registered workload (see Workloads) — any kind,
	// not just Table II benchmarks.
	Benchmark string
	// Scale is the input scale; <= 0 selects the workload's default.
	Scale int
}

// JobResult is the outcome of one BatchJob.
type JobResult struct {
	// Index is the job's position in Batch.Jobs.
	Index int
	Job   BatchJob
	// Result is the completed run; nil when Err is set.
	Result *RunResult
	// Err is the failure: a session/run error, a verification failure,
	// or the context error for jobs cancelled before they started or
	// interrupted mid-run.
	Err error
	// Interrupted marks a job whose run had started when the batch
	// context was cancelled: its kernel was soft-stopped mid-run, unlike
	// Skipped jobs that never started.
	Interrupted bool
}

// BatchResult summarises a Batch run.
type BatchResult struct {
	// Jobs holds one entry per Batch.Jobs element, in order.
	Jobs []JobResult
	// Completed counts jobs that ran and verified; Failed counts jobs
	// that errored or failed verification; Skipped counts jobs cancelled
	// before starting; Interrupted counts jobs soft-stopped mid-run by
	// batch cancellation.
	Completed, Failed, Skipped, Interrupted int
	// Aggregate merges the statistics of every job that produced a
	// result — the many-guests-one-host view of the whole batch.
	Aggregate Stats
	// Wall is the elapsed time for the whole batch.
	Wall time.Duration
	// Cluster carries the delivery counters and per-host attempt
	// latencies of a cluster run (Batch.Hosts); nil for local batches.
	Cluster *ClusterReport
}

// Batch runs N independent simulations across a bounded worker pool — the
// first scaling layer: many concurrent guests in one host process. Each
// job gets its own Session (own platform, GPU, driver), so jobs share
// nothing mutable and scale with host cores until memory bandwidth
// saturates. A local job boots its own platform: a boot costs tens of
// microseconds (BenchmarkColdBoot), less than capturing a snapshot to fork
// from. Only cluster mode (Hosts) captures one, because the snapshot is
// how the batch Config reaches another host.
type Batch struct {
	// Jobs are the simulations to run.
	Jobs []BatchJob
	// Workers bounds concurrent sessions; <= 0 means
	// min(GOMAXPROCS, len(Jobs)).
	Workers int
	// Config is the session configuration of every job.
	Config Config
	// Hosts switches the batch to cluster execution: the batch Config is
	// booted and captured once locally, the encoded snapshot is shipped
	// to every listed mobilesimd base URL, and jobs fan out over HTTP
	// with work-stealing, bounded retries on host loss and optional
	// hedging (see ClusterConfig). Per-run statistics deltas merge into
	// the same BatchResult shape — bit-identically to a local run of the
	// same jobs.
	Hosts []string
	// Cluster tunes cluster execution; ignored unless Hosts is set.
	Cluster ClusterConfig
}

// Run executes the batch, blocking until every job has finished or the
// context is cancelled. Cancellation takes effect mid-run: an executing
// simulation is soft-stopped at a kernel clause boundary and marked
// Interrupted; queued jobs are marked Skipped with ctx.Err(). The error
// is ctx.Err() after cancellation and nil otherwise; per-job failures are
// reported in the result, not as an error.
func (b *Batch) Run(ctx context.Context) (*BatchResult, error) {
	if len(b.Jobs) == 0 {
		return &BatchResult{}, nil
	}
	// A bad Config fails the batch up front, before any session boots.
	if err := b.Config.validate(); err != nil {
		return nil, err
	}
	if len(b.Hosts) > 0 {
		return b.runCluster(ctx)
	}

	workers := b.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(b.Jobs) {
		workers = len(b.Jobs)
	}

	t0 := time.Now()
	res := &BatchResult{Jobs: make([]JobResult, len(b.Jobs))}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idxCh {
				res.Jobs[i] = b.runJob(ctx, i)
			}
		}()
	}
	for i := range b.Jobs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	res.tally(ctx)
	res.Wall = time.Since(t0)
	return res, ctx.Err()
}

// tally folds per-job outcomes into the counts and the aggregate. Jobs
// are merged in index order; the statistics are integer counters, so the
// aggregate is identical however the jobs were actually scheduled —
// locally or across a cluster.
func (res *BatchResult) tally(ctx context.Context) {
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		switch {
		case jr.Result != nil:
			res.Aggregate.merge(&jr.Result.Stats)
			if jr.Err != nil {
				res.Failed++
			} else {
				res.Completed++
			}
		case jr.Interrupted:
			res.Interrupted++
		case ctx.Err() != nil && errors.Is(jr.Err, ctx.Err()):
			res.Skipped++
		default:
			res.Failed++
		}
	}
}

// runJob boots a session for job i, runs the one workload on it and tears
// down. The batch context governs the run, so batch cancellation reaches
// into a running job: the kernel is soft-stopped at a clause boundary
// instead of running to completion.
func (b *Batch) runJob(ctx context.Context, i int) JobResult {
	job := b.Jobs[i]
	jr := JobResult{Index: i, Job: job}
	if err := ctx.Err(); err != nil {
		jr.Err = err
		return jr
	}
	spec, err := workloads.ByName(job.Benchmark)
	if err != nil {
		jr.Err = err
		return jr
	}
	sess, err := New(b.Config)
	if err != nil {
		jr.Err = err
		return jr
	}
	defer sess.Close()
	run, entered, err := sess.run(ctx, spec, WithScale(job.Scale))
	if err != nil {
		jr.Err = err
		// Interrupted only when the run had actually begun: a job whose
		// cancellation landed before it took the session is Skipped.
		jr.Interrupted = entered && ctx.Err() != nil && errors.Is(err, ctx.Err())
		return jr
	}
	jr.Result = run
	if run.VerifyErr != nil {
		jr.Err = fmt.Errorf("%s: verification failed: %w", job.Benchmark, run.VerifyErr)
	}
	return jr
}
