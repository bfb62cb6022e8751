package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilesim"
	"mobilesim/internal/cluster"
	"mobilesim/internal/cluster/clustertest"
	"mobilesim/internal/hostd"
)

// hostConfig is the small platform every test host boots and every
// shipped snapshot is captured from.
var hostConfig = mobilesim.Config{RAMSize: 32 << 20, HostThreads: 1}

// testHost is one real hostd server behind a clustertest fault layer.
type testHost struct {
	*clustertest.Host
	srv *hostd.Server
}

// startHost boots a hostd server with cfg (Sim and PoolSize defaulted to
// the small test shape) and fronts it with a fault layer.
func startHost(t *testing.T, cfg hostd.Config) testHost {
	t.Helper()
	cfg.Sim = hostConfig
	cfg.PoolSize = 1
	srv, err := hostd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := clustertest.New(srv.Mux())
	t.Cleanup(h.Close)
	return testHost{Host: h, srv: srv}
}

func startHosts(t *testing.T, n int) []testHost {
	t.Helper()
	hosts := make([]testHost, n)
	for i := range hosts {
		hosts[i] = startHost(t, hostd.Config{})
	}
	return hosts
}

// stat reads one counter from the server's stats JSON, bypassing the
// fault layer so a killed host still answers.
func (h testHost) stat(t *testing.T, key string) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.srv.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, cluster.PathStats, nil))
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	var v uint64
	if err := json.Unmarshal(body[key], &v); err != nil {
		t.Fatalf("stats %q: %v", key, err)
	}
	return v
}

var (
	snapOnce    sync.Once
	snapEncoded []byte
	snapErr     error
)

// encodedSnapshot returns the encoded snapshot of a booted hostConfig
// session, captured once per test binary.
func encodedSnapshot(t *testing.T) []byte {
	t.Helper()
	snapOnce.Do(func() { snapEncoded, snapErr = encodeSnapshot(hostConfig) })
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return snapEncoded
}

func encodeSnapshot(cfg mobilesim.Config) ([]byte, error) {
	sess, err := mobilesim.New(cfg)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	snap, err := sess.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = snap.Encode(&buf)
	return buf.Bytes(), err
}

// newCluster registers the hosts and ships them the test snapshot, so
// every run forks from an installed snapshot's pool as in production.
func newCluster(t *testing.T, hosts []testHost, opts cluster.Options) *cluster.Cluster {
	t.Helper()
	for _, h := range hosts {
		opts.Hosts = append(opts.Hosts, h.URL())
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ship(context.Background(), encodedSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	return c
}

// jobs builds one job per registered workload name, at its small scale.
func jobs(t *testing.T, names ...string) []cluster.Job {
	t.Helper()
	out := make([]cluster.Job, len(names))
	for i, n := range names {
		info, err := mobilesim.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = cluster.Job{Workload: n, Scale: info.SmallScale}
	}
	return out
}

// requireAllCompleted checks that every job has exactly one accepted,
// verified response for the job it asked for.
func requireAllCompleted(t *testing.T, res *cluster.Result, jobs []cluster.Job) {
	t.Helper()
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		if jr.Err != nil || jr.Response == nil {
			t.Fatalf("job %d (%s): err=%v response=%v", i, jr.Job.Workload, jr.Err, jr.Response != nil)
		}
		if r := jr.Response; r.Workload != jobs[i].Workload || r.Scale != jobs[i].Scale || !r.Verified {
			t.Fatalf("job %d: response %s@%d verified=%v, want %s@%d verified",
				i, r.Workload, r.Scale, r.Verified, jobs[i].Workload, jobs[i].Scale)
		}
	}
}

// TestFanOutWorkStealing fans nine jobs over three single-stream hosts:
// every host must serve work (nine waiters drain all three stream
// tokens), the total request count must equal the job count (no retries,
// no duplicates), and every run must execute exactly once, from the
// shipped snapshot.
func TestFanOutWorkStealing(t *testing.T) {
	hosts := startHosts(t, 3)
	c := newCluster(t, hosts, cluster.Options{PerHostStreams: 1})
	js := jobs(t, "BFS", "BinarySearch", "Reduction", "SPMV", "DCT",
		"MatrixTranspose", "URNG", "ScanLargeArrays", "DwtHaar1D")
	res, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, js)

	var total, executed uint64
	for i, h := range hosts {
		if h.Requests() == 0 {
			t.Errorf("host %d served no requests", i)
		}
		if got := h.stat(t, "snapshot_installs"); got != 1 {
			t.Errorf("host %d: snapshot_installs %d, want 1", i, got)
		}
		total += h.Requests()
		executed += h.stat(t, "requests")
	}
	if total != uint64(len(js)) || executed != uint64(len(js)) {
		t.Fatalf("%d requests, %d executed, want %d each", total, executed, len(js))
	}
	if c.Report().Retries != 0 || c.Report().Hedges != 0 {
		t.Fatalf("retries=%d hedges=%d, want 0/0", c.Report().Retries, c.Report().Hedges)
	}
}

// TestRetryAfter5xx: a scripted 503 must be retried (with backoff) and
// the job must still complete.
func TestRetryAfter5xx(t *testing.T) {
	hosts := startHosts(t, 2)
	hosts[0].ScriptRun(clustertest.Script{Status: 503})
	hosts[1].ScriptRun(clustertest.Script{Status: 503})
	c := newCluster(t, hosts, cluster.Options{})
	js := jobs(t, "BFS")
	res, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, js)
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
	res, err := c.Run(context.Background(), jobs(t, "BFS"))
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
	if !strings.Contains(jr.Err.Error(), "503") {
		t.Fatalf("error %v does not carry the last HTTP failure", jr.Err)
	}
	if got := hosts[0].stat(t, "requests"); got != 0 {
		t.Fatalf("host executed %d runs, want 0", got)
	}
}

// TestPermanentFailureNoRetry: the host's 404 for an unregistered
// workload is permanent — one attempt, immediate failure.
func TestPermanentFailureNoRetry(t *testing.T) {
	hosts := startHosts(t, 1)
	c := newCluster(t, hosts, cluster.Options{MaxAttempts: 5})
	res, err := c.Run(context.Background(), []cluster.Job{{Workload: "NoSuchWorkload"}})
	if err != nil {
		t.Fatal(err)
	}
	jr := &res.Jobs[0]
	if jr.Err == nil || !strings.Contains(jr.Err.Error(), "HTTP 404") {
		t.Fatalf("err %v, want the host's 404", jr.Err)
	}
	if jr.Attempts != 1 || c.Report().Retries != 0 || hosts[0].Requests() != 1 {
		t.Fatalf("attempts=%d retries=%d requests=%d, want 1/0/1",
			jr.Attempts, c.Report().Retries, hosts[0].Requests())
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
	js := jobs(t, "SPMV")
	res, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, js)
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
	js := jobs(t, "BFS", "SPMV", "Reduction")
	done := make(chan *cluster.Result, 1)
	go func() {
		res, _ := c.Run(context.Background(), js)
		done <- res
	}()
	var res *cluster.Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after losing every host")
	}
	sawNoHosts := false
	for i := range res.Jobs {
		jr := &res.Jobs[i]
		if jr.Err == nil || jr.Response != nil {
			t.Fatalf("job %d (%s) completed on a dead cluster", i, jr.Job.Workload)
		}
		if errors.Is(jr.Err, cluster.ErrNoHosts) {
			sawNoHosts = true
		}
	}
	if !sawNoHosts {
		t.Fatal("no job failed with ErrNoHosts")
	}
}

// TestHedgingRacesSlowHost delays the first host long enough to force a
// hedge onto the second; the first completed response wins and the
// slow host's later one is discarded.
func TestHedgingRacesSlowHost(t *testing.T) {
	hosts := startHosts(t, 2)
	// The single stream token of host 0 is first in the rotation, so the
	// lone job's first attempt deterministically lands there.
	hosts[0].ScriptRun(clustertest.Script{Delay: 2 * time.Second})
	c := newCluster(t, hosts, cluster.Options{
		PerHostStreams: 1,
		HedgeAfter:     20 * time.Millisecond,
	})
	js := jobs(t, "Reduction")
	t0 := time.Now()
	res, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, js)
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
	// never accepted.
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
	js := jobs(t, "DCT")
	res, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, js)
	if res.Jobs[0].Attempts != 2 {
		t.Fatalf("attempts %d, want 2", res.Jobs[0].Attempts)
	}
	if got := hosts[0].stat(t, "requests"); got != 1 {
		t.Fatalf("host executed %d runs, want 1 (retry must dedup)", got)
	}
	if got := hosts[0].stat(t, "dedup_hits"); got != 1 {
		t.Fatalf("dedup hits %d, want 1", got)
	}
}

// TestDuplicateDeliveryReexecuted is the buggy-host variant: the second
// delivery bypasses the idempotency store and re-executes. The job must
// still get exactly one accepted response — client-side
// first-result-wins does not depend on the host deduping.
func TestDuplicateDeliveryReexecuted(t *testing.T) {
	hosts := startHosts(t, 1)
	hosts[0].ScriptRun(
		clustertest.Script{Disconnect: true, AfterBytes: 5},
		clustertest.Script{Rerun: true},
	)
	c := newCluster(t, hosts, cluster.Options{HostFailureLimit: 10})
	js := jobs(t, "BinarySearch")
	res, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, js)
	if got := hosts[0].stat(t, "requests"); got != 2 {
		t.Fatalf("host executed %d runs, want 2 (Rerun bypasses dedup)", got)
	}
	if got := hosts[0].stat(t, "dedup_hits"); got != 0 {
		t.Fatalf("dedup hits %d, want 0", got)
	}
}

// TestShipAndUnknownSnapshotReship ships a snapshot, then makes the host
// evict it by installing another: the host's unknown-snapshot 404 must
// make the client transparently re-install and retry on the same host
// within the same attempt.
func TestShipAndUnknownSnapshotReship(t *testing.T) {
	hosts := []testHost{startHost(t, hostd.Config{MaxSnapshots: 1})}
	c := newCluster(t, hosts, cluster.Options{})
	if got := hosts[0].stat(t, "snapshot_installs"); got != 1 {
		t.Fatalf("installs %d, want 1", got)
	}
	// Re-shipping the same bytes answers the same ref and installs
	// nothing new.
	ref, err := c.Ship(context.Background(), encodedSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := cluster.Ref(encodedSnapshot(t)); ref != want {
		t.Fatalf("ship returned ref %s, want %s", ref, want)
	}
	if got := hosts[0].stat(t, "snapshot_installs"); got != 1 {
		t.Fatalf("installs %d after re-shipping the same bytes, want 1", got)
	}

	other, err := encodeSnapshot(mobilesim.Config{RAMSize: 48 << 20, HostThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hosts[0].URL()+cluster.PathSnapshot, "application/octet-stream", bytes.NewReader(other))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("installing the evicting snapshot: status %d", resp.StatusCode)
	}

	js := jobs(t, "BFS")
	res, err := c.Run(context.Background(), js)
	if err != nil {
		t.Fatal(err)
	}
	requireAllCompleted(t, res, js)
	if res.Jobs[0].Attempts != 1 {
		t.Fatalf("attempts %d, want 1 (re-ship happens inside the attempt)", res.Jobs[0].Attempts)
	}
	if c.Report().Reships != 1 {
		t.Fatalf("reships %d, want 1", c.Report().Reships)
	}
	if hosts[0].Requests() != 2 {
		t.Fatalf("run requests %d, want 2 (rejected + retried)", hosts[0].Requests())
	}
	if got := hosts[0].stat(t, "snapshot_installs"); got != 3 {
		t.Fatalf("installs %d, want 3 (shipped, evicting, re-shipped)", got)
	}
}

// TestRunCancellation: cancelling the context mid-run fails every job
// with the context error, and Run returns it.
func TestRunCancellation(t *testing.T) {
	hosts := startHosts(t, 1)
	for i := 0; i < 4; i++ {
		hosts[0].ScriptRun(clustertest.Script{Delay: 10 * time.Second})
	}
	c := newCluster(t, hosts, cluster.Options{PerHostStreams: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := c.Run(ctx, jobs(t, "BFS", "SPMV", "Reduction"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
	for i := range res.Jobs {
		if jr := &res.Jobs[i]; jr.Response != nil || !errors.Is(jr.Err, context.DeadlineExceeded) {
			t.Fatalf("job %d: err=%v response=%v, want the deadline and no response", i, jr.Err, jr.Response != nil)
		}
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
