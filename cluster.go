package mobilesim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mobilesim/internal/cluster"
)

// This file is the cluster arm of Batch (see Batch.Hosts): ship one warm
// snapshot to N mobilesimd hosts and fan the jobs out over HTTP with
// work-stealing, bounded retries, hedging and idempotent delivery —
// internal/cluster does the dispatching, this file adapts it to the
// Batch/BatchResult shapes. The per-run statistics deltas cross the wire
// as exact integer counter records and are merged in job-index order,
// exactly like the local arm, so a cluster run's Aggregate is
// bit-identical to a local run of the same jobs (wall-clock fields —
// DriverCPUTime, durations — excepted: they measure real time, not
// simulated work).

// ClusterConfig tunes cluster-mode Batch execution. The zero value uses
// the cluster defaults (2 streams per host, 4 attempts per job, 50ms
// initial backoff, hedging disabled).
type ClusterConfig struct {
	// HedgeAfter launches a duplicate of a still-running job on a second
	// host after this delay (0 disables hedging). Hedged duplicates are
	// deduplicated — by idempotency key on the host, first-response-wins
	// at the coordinator — so they affect tail latency, never counters.
	HedgeAfter time.Duration
	// MaxAttempts bounds total request attempts per job, hedges included.
	MaxAttempts int
	// RetryBackoff is the initial retry backoff, doubling per retry.
	RetryBackoff time.Duration
	// HostFailureLimit is the number of consecutive transport/5xx
	// failures after which a host leaves the rotation.
	HostFailureLimit int
	// HTTPClient overrides the HTTP client used for host requests.
	HTTPClient *http.Client
}

// ClusterHostReport is one host's view in a ClusterReport: its URL,
// whether it left the rotation (Dead), the responses accepted from it
// (Runs), and attempt latency split by delivery path — Dispatch for first
// attempts, Retry for post-backoff retries, Hedge for hedged duplicates.
// Failed attempts are observed too, so a fast-failing host reads as a fast
// histogram with few Runs.
type ClusterHostReport = cluster.HostLatency

// ClusterReport summarises the delivery machinery of one cluster batch:
// lifetime delivery counters (Retries, Hedges, Discarded duplicate
// responses, Reships of the snapshot to a host that forgot it) and
// per-host attempt latencies, in Batch.Hosts order. It is attached to
// BatchResult.Cluster by cluster runs and printed by `mobilesim -hosts … -stats`.
type ClusterReport = cluster.Report

// runCluster executes the batch over b.Hosts: boot the batch Config
// once, capture and encode the warm snapshot, ship it to every host,
// fan the jobs out, and fold the per-run deltas back into a BatchResult.
func (b *Batch) runCluster(ctx context.Context) (*BatchResult, error) {
	t0 := time.Now()

	warm, err := New(b.Config)
	if err != nil {
		return nil, fmt.Errorf("mobilesim: cluster batch: boot: %w", err)
	}
	snap, err := warm.Snapshot()
	warm.Close()
	if err != nil {
		return nil, fmt.Errorf("mobilesim: cluster batch: snapshot: %w", err)
	}
	var enc bytes.Buffer
	if err := snap.Encode(&enc); err != nil {
		return nil, fmt.Errorf("mobilesim: cluster batch: encode: %w", err)
	}

	cl, err := cluster.New(cluster.Options{
		Hosts:            b.Hosts,
		Client:           b.Cluster.HTTPClient,
		MaxAttempts:      b.Cluster.MaxAttempts,
		RetryBackoff:     b.Cluster.RetryBackoff,
		HedgeAfter:       b.Cluster.HedgeAfter,
		HostFailureLimit: b.Cluster.HostFailureLimit,
	})
	if err != nil {
		return nil, fmt.Errorf("mobilesim: cluster batch: %w", err)
	}
	if _, err := cl.Ship(ctx, enc.Bytes()); err != nil {
		return nil, fmt.Errorf("mobilesim: cluster batch: %w", err)
	}

	jobs := make([]cluster.Job, len(b.Jobs))
	for i, j := range b.Jobs {
		jobs[i] = cluster.Job{Workload: j.Benchmark, Scale: j.Scale}
	}
	cres, err := cl.Run(ctx, jobs)
	if err != nil && !errors.Is(err, ctx.Err()) {
		return nil, fmt.Errorf("mobilesim: cluster batch: %w", err)
	}

	res := &BatchResult{Jobs: make([]JobResult, len(b.Jobs))}
	for i := range cres.Jobs {
		res.Jobs[i] = clusterJobResult(b.Jobs[i], &cres.Jobs[i])
	}
	report := cl.Report()
	res.Cluster = &report
	res.tally(ctx)
	res.Wall = time.Since(t0)
	return res, ctx.Err()
}

// clusterJobResult folds one wire-level outcome into the facade shape.
func clusterJobResult(job BatchJob, cj *cluster.JobResult) JobResult {
	jr := JobResult{Index: cj.Index, Job: job, Err: cj.Err}
	resp := cj.Response
	if resp == nil {
		return jr
	}
	rr := &RunResult{
		Workload:       resp.Workload,
		Kind:           WorkloadKind(resp.Kind),
		Scale:          resp.Scale,
		Verified:       resp.Verified,
		SimDuration:    time.Duration(resp.SimMS * float64(time.Millisecond)),
		NativeDuration: time.Duration(resp.NativeMS * float64(time.Millisecond)),
		Wall:           time.Duration(resp.WallMS * float64(time.Millisecond)),
		QueueWait:      time.Duration(resp.QueueWaitMS * float64(time.Millisecond)),
		// Modeled is a pure function of the integer counters, so the
		// host-computed values are bit-identical to a local evaluation.
		Modeled: ModeledCost{
			MobileCycles:  resp.Modeled.MobileCycles,
			DesktopCycles: resp.Modeled.DesktopCycles,
		},
		// The counter records cross the wire exactly (integer fields,
		// DriverCPUNS); this is a deserialization copy, not bookkeeping.
		Stats: Stats{
			GPU:               resp.Stats.GPU,
			System:            resp.Stats.System,
			DriverCPUTime:     time.Duration(resp.Stats.DriverCPUNS),
			GuestInstructions: resp.Stats.GuestInstructions,
		},
	}
	if resp.VerifyError != "" {
		rr.VerifyErr = errors.New(resp.VerifyError)
	}
	jr.Result = rr
	return jr
}
