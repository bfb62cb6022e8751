// Cluster-mode Batch tests: the determinism pin proving that a batch
// fanned out over simulated mobilesimd hosts — under injected host loss,
// forced retries, hedged duplicates and mid-stream disconnects —
// aggregates bit-identically to the same jobs run in a local Batch.
package mobilesim_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mobilesim"
	"mobilesim/internal/cluster/clustertest"
	"mobilesim/internal/hostd"
)

// clusterPinConfig is the shared platform shape for both arms.
// HostThreads 1 pins even the benignly racy BFS frontier counters, so
// every counter in the delta is exactly reproducible.
func clusterPinConfig() mobilesim.Config {
	return mobilesim.Config{RAMSize: 128 << 20, HostThreads: 1}
}

// clusterPinJobs is the Table II suite at small scale.
func clusterPinJobs() []mobilesim.BatchJob {
	var jobs []mobilesim.BatchJob
	for _, b := range mobilesim.Benchmarks() {
		jobs = append(jobs, mobilesim.BatchJob{Benchmark: b.Name, Scale: b.SmallScale})
	}
	return jobs
}

// TestClusterMatchesLocalBatch is the acceptance pin: the suite fanned
// over 1, 2 and 4 fault-injected hosts must aggregate bit-identically to
// the local Batch run. Each simulated host is a real hostd server behind
// a clustertest fault layer injecting a mid-job host kill, a slow host
// that forces hedging, a 5xx retry, and a mid-stream disconnect.
func TestClusterMatchesLocalBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("boots many simulator hosts")
	}
	// Every session the hosts fork, run and close — retried, hedged and
	// killed ones included — must hand back clean guest RAM.
	mobilesim.AuditRecycledRAM(t)
	jobs := clusterPinJobs()
	local, err := (&mobilesim.Batch{Jobs: jobs, Config: clusterPinConfig()}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if local.Completed != len(jobs) {
		t.Fatalf("local batch: completed=%d failed=%d, want %d/0", local.Completed, local.Failed, len(jobs))
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("hosts=%d", n), func(t *testing.T) {
			hosts := make([]*clustertest.Host, n)
			urls := make([]string, n)
			for i := range hosts {
				srv, err := hostd.New(hostd.Config{Sim: clusterPinConfig(), PoolSize: 2})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				hosts[i] = clustertest.New(srv.Mux())
				t.Cleanup(hosts[i].Close)
				urls[i] = hosts[i].URL()
			}

			// Fault injection: every delivery-machinery path fires during
			// the run. The kill only when a survivor exists. The delay
			// takes host 0's first request, a first dispatch whose hedge
			// wins (a delayed hedge would lose, and be observed only after
			// the report is taken); its other stream then serves the 503
			// and the disconnect at once, not only if host 0 still gets
			// requests after the two seconds.
			hosts[0].ScriptRun(clustertest.Script{Delay: 2 * time.Second}) // forces a hedge (n>1)
			hosts[0].ScriptRun(clustertest.Script{Status: 503})
			hosts[0].ScriptRun(clustertest.Script{Disconnect: true, AfterBytes: 40})
			if n >= 2 {
				hosts[1].ScriptRun(clustertest.Script{Kill: true})
			}

			batch := &mobilesim.Batch{
				Jobs:   jobs,
				Config: clusterPinConfig(),
				Hosts:  urls,
				Cluster: mobilesim.ClusterConfig{
					HedgeAfter:   50 * time.Millisecond,
					MaxAttempts:  6,
					RetryBackoff: 10 * time.Millisecond,
					// 3 consecutive failures: the scripted 503 and the
					// mid-stream disconnect (interleaved with successes)
					// leave their host in rotation, while the killed host —
					// failing every attempt from the kill onward — is
					// evicted promptly.
					HostFailureLimit: 3,
				},
			}
			remote, err := batch.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if remote.Completed != len(jobs) {
				for i := range remote.Jobs {
					if remote.Jobs[i].Err != nil {
						t.Logf("job %d (%s): %v", i, remote.Jobs[i].Job.Benchmark, remote.Jobs[i].Err)
					}
				}
				t.Fatalf("cluster batch: completed=%d failed=%d skipped=%d, want %d/0/0",
					remote.Completed, remote.Failed, remote.Skipped, len(jobs))
			}

			// The pin: deterministic counters must match the local run
			// bit for bit. Wall-clock fields (DriverCPUTime, durations)
			// measure host time and are excluded by construction.
			if remote.Aggregate.GPU != local.Aggregate.GPU {
				t.Errorf("GPU counters diverge:\n cluster %+v\n local   %+v",
					remote.Aggregate.GPU, local.Aggregate.GPU)
			}
			if remote.Aggregate.System != local.Aggregate.System {
				t.Errorf("system counters diverge:\n cluster %+v\n local   %+v",
					remote.Aggregate.System, local.Aggregate.System)
			}
			if remote.Aggregate.GuestInstructions != local.Aggregate.GuestInstructions {
				t.Errorf("guest instructions diverge: cluster %d, local %d",
					remote.Aggregate.GuestInstructions, local.Aggregate.GuestInstructions)
			}

			// Prove the faults actually fired rather than the run being a
			// fair-weather pass.
			var requests, faulted uint64
			for _, h := range hosts {
				requests += h.Requests()
				faulted += h.Faulted()
			}
			if requests <= uint64(len(jobs)) {
				t.Errorf("%d run requests for %d jobs: no retries/hedges happened", requests, len(jobs))
			}
			wantFaults := uint64(2) // 503 + disconnect always fire
			if n >= 2 {
				wantFaults++ // the kill
			}
			if faulted < wantFaults {
				t.Errorf("faulted=%d, want >= %d", faulted, wantFaults)
			}
			if n >= 2 && !hosts[1].Dead() {
				t.Error("scripted kill did not take host 1 down")
			}
			// Per-job results verified over the wire, and the modelled
			// cost estimates — pure functions of the integer counters —
			// must cross the wire bit-identical to the local evaluation.
			for i := range remote.Jobs {
				r := remote.Jobs[i].Result
				if r == nil || !r.Verified {
					t.Errorf("job %d (%s) not verified remotely", i, remote.Jobs[i].Job.Benchmark)
					continue
				}
				if r.Modeled.MobileCycles <= 0 || r.Modeled.DesktopCycles <= 0 {
					t.Errorf("job %d (%s): modelled cost not populated: %+v", i, remote.Jobs[i].Job.Benchmark, r.Modeled)
				}
				if lr := local.Jobs[i].Result; lr != nil && r.Modeled != lr.Modeled {
					t.Errorf("job %d (%s): modelled cost diverges: cluster %+v, local %+v",
						i, remote.Jobs[i].Job.Benchmark, r.Modeled, lr.Modeled)
				}
			}

			// The delivery report rode back on the BatchResult: counters
			// reflecting the injected faults, per-host attempt latencies
			// covering every request made.
			cr := remote.Cluster
			if cr == nil {
				t.Fatal("cluster batch result has no ClusterReport")
			}
			if cr.Retries == 0 {
				t.Error("report shows no retries despite the scripted 503")
			}
			if len(cr.Hosts) != n {
				t.Fatalf("report covers %d hosts, want %d", len(cr.Hosts), n)
			}
			// Hedging is opportunistic (it needs a free stream on another
			// host the instant the timer fires), so its count is not
			// pinned — but the per-host histograms must stay consistent
			// with the counters: one hedge observation per hedge launched,
			// and at least one attempt observed per job.
			var attempts, hedged uint64
			for _, h := range cr.Hosts {
				attempts += h.Dispatch.Count + h.Retry.Count + h.Hedge.Count
				hedged += h.Hedge.Count
			}
			if hedged != cr.Hedges {
				t.Errorf("per-host hedge observations %d != hedges counter %d", hedged, cr.Hedges)
			}
			if attempts < uint64(len(jobs)) {
				t.Errorf("per-host latency histograms observed %d attempts for %d jobs", attempts, len(jobs))
			}
		})
	}
}

// TestClusterBatchRejectsPerJobConfig: per-job configs cannot ride the
// shipped snapshot and must be rejected up front.
func TestClusterBatchRejectsPerJobConfig(t *testing.T) {
	cfg := clusterPinConfig()
	batch := &mobilesim.Batch{
		Jobs:   []mobilesim.BatchJob{{Benchmark: "BFS", Config: &cfg}},
		Config: clusterPinConfig(),
		Hosts:  []string{"http://127.0.0.1:1"},
	}
	if _, err := batch.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "per-job Config") {
		t.Fatalf("err=%v, want per-job Config rejection", err)
	}
}
