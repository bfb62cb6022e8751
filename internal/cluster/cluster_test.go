package cluster_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mobilesim/internal/cluster"
	"mobilesim/internal/cluster/clustertest"
)

// startHosts launches n synthetic fault hosts.
func startHosts(t *testing.T, n int) []*clustertest.Host {
	t.Helper()
	hosts := make([]*clustertest.Host, n)
	for i := range hosts {
		hosts[i] = clustertest.New()
		t.Cleanup(hosts[i].Close)
	}
	return hosts
}

func urls(hosts []*clustertest.Host) []string {
	out := make([]string, len(hosts))
	for i, h := range hosts {
		out[i] = h.URL()
	}
	return out
}

func newCluster(t *testing.T, hosts []*clustertest.Host, opts cluster.Options) *cluster.Cluster {
	t.Helper()
	opts.Hosts = urls(hosts)
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// expectedAggregate is the bit-exact aggregate of the jobs' synthetic
// responses, merged in job order like the client does.
func expectedAggregate(jobs []cluster.Job) cluster.RunStats {
	var agg cluster.RunStats
	for _, j := range jobs {
		st := clustertest.SynthResponse(j.Workload, j.Scale).Stats
		agg.Merge(&st)
	}
	return agg
}

func requireAllCompleted(t *testing.T, res *cluster.Result, jobs []cluster.Job) {
	t.Helper()
	if res.Completed != len(jobs) || res.Failed != 0 || res.Skipped != 0 {
		for i := range res.Jobs {
			if res.Jobs[i].Err != nil {
				t.Logf("job %d (%s): %v", i, res.Jobs[i].Job.Workload, res.Jobs[i].Err)
			}
		}
		t.Fatalf("completed=%d failed=%d skipped=%d, want %d/0/0",
			res.Completed, res.Failed, res.Skipped, len(jobs))
	}
	if want := expectedAggregate(jobs); res.Aggregate != want {
		t.Fatalf("aggregate mismatch:\n got  %+v\n want %+v", res.Aggregate, want)
	}
}

// TestFanOutWorkStealing fans nine jobs over three single-stream hosts:
// every host must serve work (nine waiters drain all three stream
// tokens), the total request count must equal the job count (no retries,
// no duplicates), and the merged aggregate must be the bit-exact sum of
// the synthetic per-job deltas.
func TestFanOutWorkStealing(t *testing.T) {
	hosts := startHosts(t, 3)
	c := newCluster(t, hosts, cluster.Options{PerHostStreams: 1})
	jobs := make([]cluster.Job, 9)
	for i := range jobs {
		jobs[i] = cluster.Job{Workload: "W" + string(rune('A'+i)), Scale: i + 1}
	}
	res, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, jobs)

	var total uint64
	for i, h := range hosts {
		if h.Requests() == 0 {
			t.Errorf("host %d served no requests", i)
		}
		total += h.Requests()
	}
	if total != uint64(len(jobs)) {
		t.Fatalf("total requests %d, want %d", total, len(jobs))
	}
	if c.Report().Retries != 0 || c.Report().Hedges != 0 {
		t.Fatalf("retries=%d hedges=%d, want 0/0", c.Report().Retries, c.Report().Hedges)
	}
}

// TestRetryAfter5xx: a scripted 503 must be retried (with backoff) and
// the job must still complete with a single-counted aggregate.
func TestRetryAfter5xx(t *testing.T) {
	hosts := startHosts(t, 2)
	hosts[0].ScriptRun(clustertest.Script{Status: 503})
	hosts[1].ScriptRun(clustertest.Script{Status: 503})
	c := newCluster(t, hosts, cluster.Options{})
	jobs := []cluster.Job{{Workload: "BFS", Scale: 4}}
	res, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, jobs)
	if res.Jobs[0].Attempts < 2 {
		t.Fatalf("attempts %d, want >= 2", res.Jobs[0].Attempts)
	}
	if c.Report().Retries == 0 {
		t.Fatal("no retries recorded")
	}
}

// TestAttemptsExhausted: persistent 5xx burns every attempt and the job
// fails with the last error, attempts capped at MaxAttempts.
func TestAttemptsExhausted(t *testing.T) {
	hosts := startHosts(t, 1)
	for i := 0; i < 4; i++ {
		hosts[0].ScriptRun(clustertest.Script{Status: 503})
	}
	c := newCluster(t, hosts, cluster.Options{MaxAttempts: 2, HostFailureLimit: 10})
	res, err := c.Run(context.Background(), []cluster.Job{{Workload: "BFS"}})
	if err != nil {
		t.Fatal(err)
	}
	jr := &res.Jobs[0]
	if jr.Err == nil || jr.Response != nil {
		t.Fatalf("job succeeded (%+v), want exhausted attempts", jr)
	}
	if jr.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", jr.Attempts)
	}
	if res.Failed != 1 || res.Completed != 0 {
		t.Fatalf("failed=%d completed=%d, want 1/0", res.Failed, res.Completed)
	}
	if !strings.Contains(jr.Err.Error(), "503") {
		t.Fatalf("error %v does not carry the last HTTP failure", jr.Err)
	}
}

// TestPermanentFailureNoRetry: a 4xx rejection (other than unknown
// snapshot) is permanent — one attempt, immediate failure.
func TestPermanentFailureNoRetry(t *testing.T) {
	hosts := startHosts(t, 1)
	hosts[0].ScriptRun(clustertest.Script{Status: 400})
	c := newCluster(t, hosts, cluster.Options{MaxAttempts: 5})
	res, err := c.Run(context.Background(), []cluster.Job{{Workload: "BFS"}})
	if err != nil {
		t.Fatal(err)
	}
	jr := &res.Jobs[0]
	if jr.Err == nil {
		t.Fatal("job succeeded, want permanent failure")
	}
	if jr.Attempts != 1 || c.Report().Retries != 0 {
		t.Fatalf("attempts=%d retries=%d, want 1/0", jr.Attempts, c.Report().Retries)
	}
}

// TestHostLossRetriesElsewhere kills a host mid-job (it accepts the run,
// then the whole host dies): the client must see the dropped connection,
// mark the host dead at HostFailureLimit, and retry the job on the
// surviving host.
func TestHostLossRetriesElsewhere(t *testing.T) {
	hosts := startHosts(t, 2)
	hosts[0].ScriptRun(clustertest.Script{Kill: true})
	c := newCluster(t, hosts, cluster.Options{HostFailureLimit: 1, PerHostStreams: 1})
	jobs := []cluster.Job{{Workload: "SpMV", Scale: 2}}
	res, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, jobs)
	jr := &res.Jobs[0]
	if jr.Host != hosts[1].URL() {
		t.Fatalf("accepted from %s, want the surviving host %s", jr.Host, hosts[1].URL())
	}
	if jr.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", jr.Attempts)
	}
	if !hosts[0].Dead() {
		t.Fatal("scripted Kill did not kill the host")
	}
	states := c.Report().Hosts
	if !states[0].Dead || states[1].Dead {
		t.Fatalf("host states %+v: want host 0 dead, host 1 live", states)
	}
}

// TestAllHostsLost: when every host dies, in-flight and queued jobs fail
// promptly (ErrNoHosts or the fatal transport error) instead of hanging.
func TestAllHostsLost(t *testing.T) {
	hosts := startHosts(t, 1)
	hosts[0].ScriptRun(clustertest.Script{Kill: true})
	c := newCluster(t, hosts, cluster.Options{HostFailureLimit: 1, PerHostStreams: 1})
	jobs := []cluster.Job{{Workload: "BFS"}, {Workload: "SpMV"}, {Workload: "FFT"}}
	done := make(chan *cluster.Result, 1)
	go func() {
		res, _ := c.Run(context.Background(), jobs)
		done <- res
	}()
	var res *cluster.Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after losing every host")
	}
	if res.Failed != len(jobs) || res.Completed != 0 {
		t.Fatalf("failed=%d completed=%d, want %d/0", res.Failed, res.Completed, len(jobs))
	}
	sawNoHosts := false
	for i := range res.Jobs {
		if errors.Is(res.Jobs[i].Err, cluster.ErrNoHosts) {
			sawNoHosts = true
		}
	}
	if !sawNoHosts {
		t.Fatal("no job failed with ErrNoHosts")
	}
}

// TestHedgingRacesSlowHost delays the first host long enough to force a
// hedge onto the second; the first completed response wins and the
// aggregate stays single-counted.
func TestHedgingRacesSlowHost(t *testing.T) {
	hosts := startHosts(t, 2)
	// The single stream token of host 0 is first in the rotation, so the
	// lone job's first attempt deterministically lands there.
	hosts[0].ScriptRun(clustertest.Script{Delay: 2 * time.Second})
	c := newCluster(t, hosts, cluster.Options{
		PerHostStreams: 1,
		HedgeAfter:     20 * time.Millisecond,
	})
	jobs := []cluster.Job{{Workload: "Stereo", Scale: 3}}
	t0 := time.Now()
	res, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, jobs)
	jr := &res.Jobs[0]
	if !jr.Hedged || c.Report().Hedges != 1 {
		t.Fatalf("hedged=%v hedges=%d, want true/1", jr.Hedged, c.Report().Hedges)
	}
	if jr.Host != hosts[1].URL() {
		t.Fatalf("accepted from %s, want the hedge host %s", jr.Host, hosts[1].URL())
	}
	if wall := time.Since(t0); wall > time.Second {
		t.Fatalf("run took %v: the hedge did not beat the slow host", wall)
	}
	// The slow host's response completes later and must be discarded,
	// never merged (the aggregate check above already proved single
	// counting; this proves the loser was accounted as discarded).
	deadline := time.Now().Add(5 * time.Second)
	for c.Report().Discarded == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c.Report().Discarded != 1 {
		t.Fatalf("discarded %d duplicate responses, want 1", c.Report().Discarded)
	}
}

// TestMidStreamDisconnectDeduped truncates the first response mid-body:
// the client retries with the same idempotency key and the host replays
// the recorded response instead of executing twice.
func TestMidStreamDisconnectDeduped(t *testing.T) {
	hosts := startHosts(t, 1)
	hosts[0].ScriptRun(clustertest.Script{Disconnect: true, AfterBytes: 10})
	c := newCluster(t, hosts, cluster.Options{HostFailureLimit: 10})
	jobs := []cluster.Job{{Workload: "FFT", Scale: 1}}
	res, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, jobs)
	if res.Jobs[0].Attempts != 2 {
		t.Fatalf("attempts %d, want 2", res.Jobs[0].Attempts)
	}
	if hosts[0].Runs() != 1 {
		t.Fatalf("host executed %d runs, want 1 (retry must dedup)", hosts[0].Runs())
	}
	if hosts[0].DedupHits() != 1 {
		t.Fatalf("dedup hits %d, want 1", hosts[0].DedupHits())
	}
}

// TestDuplicateDeliveryReexecuted is the buggy-host variant: the second
// delivery bypasses the idempotency store and re-executes. The aggregate
// must still be single-counted — client-side first-result-wins does not
// depend on the host deduping.
func TestDuplicateDeliveryReexecuted(t *testing.T) {
	hosts := startHosts(t, 1)
	hosts[0].ScriptRun(
		clustertest.Script{Disconnect: true, AfterBytes: 5},
		clustertest.Script{Rerun: true},
	)
	c := newCluster(t, hosts, cluster.Options{HostFailureLimit: 10})
	jobs := []cluster.Job{{Workload: "Harris", Scale: 2}}
	res, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, jobs)
	if hosts[0].Runs() != 2 {
		t.Fatalf("host executed %d runs, want 2 (Rerun bypasses dedup)", hosts[0].Runs())
	}
}

// TestShipAndUnknownSnapshotReship ships a snapshot, then scripts a host
// to claim the ref is unknown: the client must transparently re-install
// and retry on the same host within the same attempt.
func TestShipAndUnknownSnapshotReship(t *testing.T) {
	hosts := startHosts(t, 1)
	c := newCluster(t, hosts, cluster.Options{})
	encoded := []byte("MSIMSNAP fake snapshot payload")
	ref, err := c.Ship(context.Background(), encoded)
	if err != nil {
		t.Fatal(err)
	}
	if want := cluster.Ref(encoded); ref != want {
		t.Fatalf("ship returned ref %s, want %s", ref, want)
	}
	if hosts[0].Installs() != 1 {
		t.Fatalf("installs %d, want 1", hosts[0].Installs())
	}

	hosts[0].ScriptRun(clustertest.Script{Status: 404, Code: cluster.CodeUnknownSnapshot})
	jobs := []cluster.Job{{Workload: "BFS", Scale: 4}} // Snapshot defaults to the shipped ref
	res, err := c.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, jobs)
	if res.Jobs[0].Attempts != 1 {
		t.Fatalf("attempts %d, want 1 (re-ship happens inside the attempt)", res.Jobs[0].Attempts)
	}
	if c.Report().Reships != 1 {
		t.Fatalf("reships %d, want 1", c.Report().Reships)
	}
	if hosts[0].Requests() != 2 {
		t.Fatalf("run requests %d, want 2 (rejected + retried)", hosts[0].Requests())
	}
}

// TestRunCancellation: cancelling the context mid-run skips queued jobs
// and returns ctx.Err().
func TestRunCancellation(t *testing.T) {
	hosts := startHosts(t, 1)
	for i := 0; i < 4; i++ {
		hosts[0].ScriptRun(clustertest.Script{Delay: 10 * time.Second})
	}
	c := newCluster(t, hosts, cluster.Options{PerHostStreams: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	jobs := []cluster.Job{{Workload: "BFS"}, {Workload: "SpMV"}, {Workload: "FFT"}}
	res, err := c.Run(ctx, jobs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	if res.Completed != 0 || res.Skipped == 0 {
		t.Fatalf("completed=%d skipped=%d, want 0 completed, some skipped", res.Completed, res.Skipped)
	}
}

// TestOptionsValidation covers registry construction errors.
func TestOptionsValidation(t *testing.T) {
	if _, err := cluster.New(cluster.Options{}); err == nil {
		t.Fatal("no hosts accepted")
	}
	if _, err := cluster.New(cluster.Options{Hosts: []string{"http://a", "http://a/"}}); err == nil {
		t.Fatal("duplicate hosts accepted")
	}
	if _, err := cluster.New(cluster.Options{Hosts: []string{""}}); err == nil {
		t.Fatal("empty host accepted")
	}
}
