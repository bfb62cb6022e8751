package hostd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilesim"
	"mobilesim/internal/cluster"
	"mobilesim/internal/hostd"
)

// testServer boots one small server; the warm snapshot makes per-test
// forks cheap.
func testServer(t *testing.T, cfg hostd.Config) *hostd.Server {
	t.Helper()
	if cfg.Sim == (mobilesim.Config{}) {
		cfg.Sim = mobilesim.Config{RAMSize: 128 << 20, HostThreads: 2}
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 2
	}
	srv, err := hostd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func do(mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	mux.ServeHTTP(rec, r)
	return rec
}

func statsBody(t *testing.T, mux *http.ServeMux) map[string]json.RawMessage {
	t.Helper()
	rec := do(mux, http.MethodGet, cluster.PathStats, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	return body
}

func statUint(t *testing.T, body map[string]json.RawMessage, key string) uint64 {
	t.Helper()
	raw, ok := body[key]
	if !ok {
		t.Fatalf("stats body has no %q key", key)
	}
	var v uint64
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("stats %q: %v", key, err)
	}
	return v
}

// poolHandOuts reads the default pool's hit and inline-fork counters: the
// two names bench/pass.go decodes from the per-snapshot pool blocks.
func poolHandOuts(t *testing.T, body map[string]json.RawMessage) (hits, inline uint64) {
	t.Helper()
	var pool struct {
		Hits        *uint64 `json:"hits"`
		InlineForks *uint64 `json:"inline_forks"`
	}
	if err := json.Unmarshal(body["pool"], &pool); err != nil {
		t.Fatalf("stats pool block: %v", err)
	}
	if pool.Hits == nil || pool.InlineForks == nil {
		t.Fatalf("stats pool block %s lacks hits or inline_forks", body["pool"])
	}
	return *pool.Hits, *pool.InlineForks
}

func TestHealthz(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	rec := do(srv.Mux(), http.MethodGet, cluster.PathHealth, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Status != "ok" {
		t.Fatalf("bad health body %q (%v)", rec.Body, err)
	}
}

func TestWorkloadsListed(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	rec := do(srv.Mux(), http.MethodGet, "/api/v1/workloads", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Workloads []map[string]json.RawMessage `json:"workloads"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Workloads) != len(mobilesim.Workloads()) {
		t.Fatalf("listed %d workloads, registry has %d", len(body.Workloads), len(mobilesim.Workloads()))
	}
	// The entry keys clients decode: every Table II benchmark sets all
	// seven, and the first listed entry is BFS.
	want := map[string]string{
		"name": `"BFS"`, "kind": `"benchmark"`, "suite": `"Parboil"`, "description": "",
		"small_scale": "", "default_scale": "", "paper_scale": "",
	}
	bfs := body.Workloads[0]
	if len(bfs) != len(want) {
		t.Errorf("BFS entry has keys %v, want %d keys", keys(bfs), len(want))
	}
	for k, v := range want {
		got, ok := bfs[k]
		if !ok {
			t.Errorf("BFS entry lacks %q: %v", k, keys(bfs))
		} else if v != "" && string(got) != v {
			t.Errorf("BFS entry %q = %s, want %s", k, got, v)
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestRunBFSVerified(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	rec := do(srv.Mux(), http.MethodPost, cluster.PathRun, `{"workload": "BFS", "scale": 4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp cluster.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Verified {
		t.Fatalf("run not verified: %s", rec.Body)
	}
	if resp.Stats.System.ComputeJobs == 0 || resp.Stats.GPU.TotalInstr() == 0 {
		t.Fatalf("empty stats delta: %s", rec.Body)
	}
	if resp.Stats.DriverCPUNS <= 0 {
		t.Fatalf("driver_cpu_ns missing: %s", rec.Body)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	rec := do(srv.Mux(), http.MethodPost, cluster.PathRun, `{"workload": "BFSS"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "BFS") {
		t.Fatalf("no suggestion in error: %s", rec.Body)
	}
}

// TestRunRefusedBeforeAFork: a run request that names no workload of the
// registry — a paper experiment included — is a 404 with suggestions, and
// a scale above the workload's paper scale is a typed 400. Neither takes a
// session from a pool or counts as a request.
func TestRunRefusedBeforeAFork(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()
	for _, c := range []struct {
		body    string
		status  int
		code    string
		mention string
	}{
		{`{"workload": "fig13"}`, http.StatusNotFound, "", "unknown workload"},
		{`{"workload": "table2"}`, http.StatusNotFound, "", "unknown workload"},
		// One over each bound; unbounded, each of these still runs in
		// seconds, where a large scale makes the host allocate without limit.
		{`{"workload": "sgemm6/naive", "scale": 17}`, http.StatusBadRequest, cluster.CodeScaleOutOfRange, "paper scale 16"},
		{`{"workload": "BitonicSort", "scale": 2049}`, http.StatusBadRequest, cluster.CodeScaleOutOfRange, "paper scale 2048"},
		{`{"workload": "slam/express", "scale": 5}`, http.StatusBadRequest, cluster.CodeScaleOutOfRange, "paper scale 4"},
	} {
		rec := do(mux, http.MethodPost, cluster.PathRun, c.body)
		var er cluster.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: no error envelope (%v): %s", c.body, err, rec.Body)
		}
		if rec.Code != c.status || er.Code != c.code || !strings.Contains(er.Error, c.mention) {
			t.Errorf("%s: status %d code %q error %q, want %d %q mentioning %q",
				c.body, rec.Code, er.Code, er.Error, c.status, c.code, c.mention)
		}
	}
	body := statsBody(t, mux)
	hits, inline := poolHandOuts(t, body)
	if req := statUint(t, body, "requests"); req != 0 || hits+inline != 0 {
		t.Fatalf("refused requests were counted: requests=%d, pool hand-outs=%d", req, hits+inline)
	}
	if rec := do(mux, http.MethodPost, cluster.PathRun, `{"workload": "sgemm6/naive", "scale": 1}`); rec.Code != http.StatusOK {
		t.Fatalf("in-bound scale: status %d: %s", rec.Code, rec.Body)
	}
}

func TestRunMethodAndBodyErrors(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()

	if rec := do(mux, http.MethodGet, cluster.PathRun, ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET run: status %d", rec.Code)
	}
	if rec := do(mux, http.MethodPost, cluster.PathRun, `{`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", rec.Code)
	}
	if rec := do(mux, http.MethodPost, cluster.PathRun, `{}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing workload: status %d", rec.Code)
	}
	if rec := do(mux, http.MethodGet, cluster.PathSnapshot, ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET snapshot: status %d", rec.Code)
	}
}

// TestRunBodyLimit: a run request's body is bounded. One byte over the
// limit is refused with 413 and the JSON error envelope before a session is
// taken from any pool or the request is counted; the server keeps serving.
func TestRunBodyLimit(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()

	// Leading whitespace is valid JSON framing: unbounded, the decoder
	// reads through all of it and runs the request.
	const run = `{"workload": "BinarySearch", "scale": 64}`
	rec := do(mux, http.MethodPost, cluster.PathRun, strings.Repeat(" ", 1<<20)+run)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: status %d, want 413: %.200s", rec.Code, rec.Body)
	}
	var er cluster.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("over-limit body: no error envelope (%v): %.200s", err, rec.Body)
	}
	body := statsBody(t, mux)
	hits, inline := poolHandOuts(t, body)
	if req := statUint(t, body, "requests"); req != 0 || hits+inline != 0 {
		t.Fatalf("refused request was counted: requests=%d, pool hand-outs=%d", req, hits+inline)
	}

	if rec := do(mux, http.MethodPost, cluster.PathRun, run); rec.Code != http.StatusOK {
		t.Fatalf("normal request after a refused one: status %d: %s", rec.Code, rec.Body)
	}
}

// jsonAt walks a decoded JSON value along a dotted path; a numeric
// element indexes an array.
func jsonAt(v any, path string) (any, bool) {
	for _, key := range strings.Split(path, ".") {
		switch node := v.(type) {
		case map[string]any:
			next, ok := node[key]
			if !ok {
				return nil, false
			}
			v = next
		case []any:
			i, err := strconv.Atoi(key)
			if err != nil || i >= len(node) {
				return nil, false
			}
			v = node[i]
		default:
			return nil, false
		}
	}
	return v, true
}

// TestWireKeysTheBenchmarkDecodes pins the presence and JSON type of
// exactly the keys bench/pass.go decodes from a run response
// (tracingTransport, cluster.RunResponse) and from /api/v1/stats
// (serveStats). bench/ is a nested module outside `go test ./...`, so
// without this a renamed key fails the benchmark run, not tier-1.
func TestWireKeysTheBenchmarkDecodes(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()
	// The benchmark reads the pool block of the snapshot it shipped.
	rec := do(mux, http.MethodPost, cluster.PathSnapshot, string(encodeTestSnapshot(t)))
	if rec.Code != http.StatusOK {
		t.Fatalf("install: status %d: %s", rec.Code, rec.Body)
	}
	var sr cluster.SnapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	run := do(mux, http.MethodPost, cluster.PathRun, fmt.Sprintf(`{"workload": "BFS", "scale": 4, "snapshot": %q}`, sr.Ref))
	if run.Code != http.StatusOK {
		t.Fatalf("run: status %d: %s", run.Code, run.Body)
	}
	stats := do(mux, http.MethodGet, cluster.PathStats, "")

	for _, doc := range []struct {
		name string
		body []byte
		keys map[string]any // path -> a value of the expected JSON type
	}{
		{"run response", run.Body.Bytes(), map[string]any{
			"workload": "", "verified": false,
			"sim_ms": 0.0, "wall_ms": 0.0, "queue_wait_ms": 0.0,
			"stats.gpu": map[string]any{}, "stats.system": map[string]any{},
			"stats.driver_cpu_ns": 0.0, "stats.guest_instructions": 0.0,
			"modeled.mobile_cycles": 0.0, "modeled.desktop_cycles": 0.0,
		}},
		{"stats", stats.Body.Bytes(), map[string]any{
			"requests": 0.0, "failures": 0.0, "dedup_hits": 0.0,
			"snapshots.0.hits": 0.0, "snapshots.0.inline_forks": 0.0,
			"snapshots.0.get_wait.p50_ms": 0.0, "snapshots.0.refill_fork.p50_ms": 0.0,
		}},
	} {
		var v any
		if err := json.Unmarshal(doc.body, &v); err != nil {
			t.Fatalf("%s: %v", doc.name, err)
		}
		for path, like := range doc.keys {
			got, ok := jsonAt(v, path)
			if !ok {
				t.Errorf("%s: key %q is gone", doc.name, path)
			} else if reflect.TypeOf(got) != reflect.TypeOf(like) {
				t.Errorf("%s: key %q is a %T, want %T", doc.name, path, got, like)
			}
		}
	}
}

// TestServerStats checks the request accounting plus the new
// observability keys: pool hit / inline-fork counters and per-workload
// run counts.
func TestServerStats(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()
	if rec := do(mux, http.MethodPost, cluster.PathRun, `{"workload": "MatrixTranspose"}`); rec.Code != http.StatusOK {
		t.Fatalf("run: status %d: %s", rec.Code, rec.Body)
	}
	body := statsBody(t, mux)
	if got := statUint(t, body, "requests"); got != 1 {
		t.Fatalf("requests=%d, want 1", got)
	}
	if got := statUint(t, body, "failures"); got != 0 {
		t.Fatalf("failures=%d, want 0", got)
	}
	if hits, inline := poolHandOuts(t, body); hits+inline != 1 {
		t.Fatalf("pool.hits=%d pool.inline_forks=%d, want exactly one hand-out", hits, inline)
	}
	var runs map[string]uint64
	if err := json.Unmarshal(body["runs"], &runs); err != nil {
		t.Fatal(err)
	}
	if runs["MatrixTranspose"] != 1 {
		t.Fatalf("run counts %v, want MatrixTranspose=1", runs)
	}
	var pool struct {
		Runs uint64 `json:"runs"`
	}
	if err := json.Unmarshal(body["pool"], &pool); err != nil {
		t.Fatal(err)
	}
	if pool.Runs != 1 {
		t.Fatalf("default pool runs=%d, want 1", pool.Runs)
	}
}

// TestConcurrentRuns hammers the run endpoint from many goroutines; its
// real assertion is the -race run in CI (handler state, pool accounting
// and the idempotency store are all exercised concurrently).
func TestConcurrentRuns(t *testing.T) {
	srv := testServer(t, hostd.Config{PoolSize: 2})
	mux := srv.Mux()
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload": "Reduction", "scale": 1, "idempotency_key": "conc/%d"}`, i%4)
			rec := do(mux, http.MethodPost, cluster.PathRun, body)
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %s", rec.Code, rec.Body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// 8 requests over 4 keys: exactly 4 executions, the rest replayed.
	body := statsBody(t, mux)
	if got := statUint(t, body, "requests"); got != 4 {
		t.Fatalf("requests=%d, want 4 (idempotent duplicates must not execute)", got)
	}
	if got := statUint(t, body, "dedup_hits"); got != 4 {
		t.Fatalf("dedup_hits=%d, want 4", got)
	}
}

// TestPoolExhaustionInlineFork floods a size-1 pool with simultaneous
// requests: the burst must drain the warm channel and take the
// inline-fork fallback, and every hand-out must be accounted as exactly
// one of hit/inline-fork.
func TestPoolExhaustionInlineFork(t *testing.T) {
	srv := testServer(t, hostd.Config{PoolSize: 1})
	mux := srv.Mux()
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := do(mux, http.MethodPost, cluster.PathRun, `{"workload": "Reduction", "scale": 1}`)
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body)
			}
		}()
	}
	wg.Wait()
	body := statsBody(t, mux)
	hits, inline := poolHandOuts(t, body)
	if hits+inline != n {
		t.Fatalf("pool.hits=%d + pool.inline_forks=%d != %d hand-outs", hits, inline, n)
	}
	if inline == 0 {
		t.Fatalf("%d simultaneous requests against a size-1 pool never forked inline (hits=%d)", n, hits)
	}
}

// slowWorkload is a long-running registered workload for the
// client-disconnect test: uncancelled it spins for tens of seconds on
// one host thread, so a sub-second 408 proves the soft-stop worked.
type slowWorkload struct{}

const slowSrc = `
kernel void spin(global int* out, int iters) {
    int i = get_global_id(0);
    int acc = 0;
    for (int j = 0; j < iters; j++) {
        acc = acc + j;
    }
    out[i] = acc;
}
`

func (slowWorkload) Info() mobilesim.WorkloadInfo {
	return mobilesim.WorkloadInfo{
		Name: "hostdtest/spin", Kind: mobilesim.KindBenchmark,
		Description: "long-running kernel for disconnect tests",
	}
}

func (slowWorkload) Execute(ctx context.Context, s *mobilesim.Session, opt *mobilesim.RunOptions) (*mobilesim.RunResult, error) {
	iters := 1 << 20
	if opt.Scale > 0 {
		iters = opt.Scale
	}
	k, err := s.LoadKernel(slowSrc, "spin")
	if err != nil {
		return nil, err
	}
	buf, err := s.NewBuffer(4 * 256)
	if err != nil {
		return nil, err
	}
	if err := k.SetArgs(buf, iters); err != nil {
		return nil, err
	}
	if err := k.Launch(ctx, mobilesim.Dim1(256), mobilesim.Dim1(4)); err != nil {
		return nil, err
	}
	return &mobilesim.RunResult{Workload: "hostdtest/spin", Verified: true}, nil
}

var registerSlow = sync.OnceValue(func() error {
	return mobilesim.Register(slowWorkload{})
})

// TestClientDisconnectMidRun cancels the request context while the
// kernel is executing: the run must soft-stop promptly with 408, the
// fork is discarded, and the server keeps serving.
func TestClientDisconnectMidRun(t *testing.T) {
	if err := registerSlow(); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, hostd.Config{
		Sim: mobilesim.Config{RAMSize: 64 << 20, HostThreads: 1, ShaderCores: 1},
	})
	mux := srv.Mux()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, cluster.PathRun,
			strings.NewReader(`{"workload": "hostdtest/spin"}`)).WithContext(ctx)
		mux.ServeHTTP(rec, r)
		done <- rec
	}()
	time.Sleep(100 * time.Millisecond) // let the kernel start
	cancel()
	select {
	case rec := <-done:
		if rec.Code != http.StatusRequestTimeout {
			t.Fatalf("status %d, want 408: %s", rec.Code, rec.Body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return: soft-stop failed")
	}

	// The discarded fork must not poison the server: a normal run still
	// works, and the interrupted one is a failure, not a run.
	if rec := do(mux, http.MethodPost, cluster.PathRun, `{"workload": "BFS", "scale": 4}`); rec.Code != http.StatusOK {
		t.Fatalf("run after disconnect: status %d: %s", rec.Code, rec.Body)
	}
	body := statsBody(t, mux)
	if got := statUint(t, body, "failures"); got != 1 {
		t.Fatalf("failures=%d, want 1 (the disconnected run)", got)
	}
	var runs map[string]uint64
	if err := json.Unmarshal(body["runs"], &runs); err != nil {
		t.Fatal(err)
	}
	if runs["hostdtest/spin"] != 0 {
		t.Fatalf("interrupted run was counted: %v", runs)
	}
}

// TestRunTimeoutMS: an expired request-level timeout behaves like a
// disconnect — 408, soft-stopped.
func TestRunTimeoutMS(t *testing.T) {
	if err := registerSlow(); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, hostd.Config{
		Sim: mobilesim.Config{RAMSize: 64 << 20, HostThreads: 1, ShaderCores: 1},
	})
	rec := do(srv.Mux(), http.MethodPost, cluster.PathRun, `{"workload": "hostdtest/spin", "timeout_ms": 100}`)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408: %s", rec.Code, rec.Body)
	}
}

// encodeTestSnapshot boots a tiny distinct configuration and returns its
// encoded snapshot.
func encodeTestSnapshot(t *testing.T) []byte {
	t.Helper()
	sess, err := mobilesim.New(mobilesim.Config{RAMSize: 64 << 20, HostThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotInstallAndRun covers the new endpoint end to end: install,
// idempotent reinstall, run-from-ref, and the unknown-ref 404 that
// drives the client's re-ship path.
func TestSnapshotInstallAndRun(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()
	encoded := encodeTestSnapshot(t)

	rec := do(mux, http.MethodPost, cluster.PathSnapshot, string(encoded))
	if rec.Code != http.StatusOK {
		t.Fatalf("install: status %d: %s", rec.Code, rec.Body)
	}
	var sr cluster.SnapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if want := cluster.Ref(encoded); sr.Ref != want {
		t.Fatalf("ref %s, want %s", sr.Ref, want)
	}

	// Reinstalling the same bytes answers the same ref and installs
	// nothing new.
	rec = do(mux, http.MethodPost, cluster.PathSnapshot, string(encoded))
	if rec.Code != http.StatusOK {
		t.Fatalf("reinstall: status %d: %s", rec.Code, rec.Body)
	}
	var sr2 cluster.SnapshotResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr2); err != nil {
		t.Fatal(err)
	}
	if sr2.Ref != sr.Ref {
		t.Fatalf("reinstall answered ref %s, want %s", sr2.Ref, sr.Ref)
	}
	body := statsBody(t, mux)
	if got := statUint(t, body, "snapshot_installs"); got != 1 {
		t.Fatalf("snapshot_installs=%d, want 1", got)
	}

	// Runs can fork from the installed snapshot's pool.
	runBody := fmt.Sprintf(`{"workload": "BFS", "scale": 4, "snapshot": %q}`, sr.Ref)
	if rec := do(mux, http.MethodPost, cluster.PathRun, runBody); rec.Code != http.StatusOK {
		t.Fatalf("run from ref: status %d: %s", rec.Code, rec.Body)
	}

	// An uninstalled ref is the machine-readable unknown_snapshot 404.
	rec = do(mux, http.MethodPost, cluster.PathRun, `{"workload": "BFS", "snapshot": "sha256:beef"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown ref: status %d: %s", rec.Code, rec.Body)
	}
	var er cluster.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != cluster.CodeUnknownSnapshot {
		t.Fatalf("error code %q, want %q", er.Code, cluster.CodeUnknownSnapshot)
	}
}

// TestIdempotentRunReplay: the second delivery of a key replays the
// exact recorded bytes with the dedup header, and is not double-counted
// anywhere.
func TestIdempotentRunReplay(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()
	const req = `{"workload": "BFS", "scale": 4, "idempotency_key": "r1/0"}`

	first := do(mux, http.MethodPost, cluster.PathRun, req)
	if first.Code != http.StatusOK {
		t.Fatalf("first: status %d: %s", first.Code, first.Body)
	}
	if first.Header().Get(cluster.DedupHeader) != "" {
		t.Fatal("first delivery carries the dedup header")
	}

	second := do(mux, http.MethodPost, cluster.PathRun, req)
	if second.Code != http.StatusOK {
		t.Fatalf("second: status %d: %s", second.Code, second.Body)
	}
	if second.Header().Get(cluster.DedupHeader) != "hit" {
		t.Fatal("replay missing the dedup header")
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("replayed body differs from the recorded response")
	}

	body := statsBody(t, mux)
	if got := statUint(t, body, "requests"); got != 1 {
		t.Fatalf("requests=%d, want 1 (replay must not execute)", got)
	}
	if got := statUint(t, body, "dedup_hits"); got != 1 {
		t.Fatalf("dedup_hits=%d, want 1", got)
	}
	var runs map[string]uint64
	if err := json.Unmarshal(body["runs"], &runs); err != nil {
		t.Fatal(err)
	}
	if runs["BFS"] != 1 {
		t.Fatalf("run counts %v, want BFS=1", runs)
	}
}

// TestIdempotentFailureRetries: a failed first delivery is replayed to
// waiters but evicted from the store, so a later retry of the same key
// executes again — failures are not sticky.
func TestIdempotentFailureRetries(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()
	// Fails: the ref is not installed.
	bad := `{"workload": "BFS", "scale": 4, "snapshot": "sha256:dead", "idempotency_key": "r2/0"}`
	if rec := do(mux, http.MethodPost, cluster.PathRun, bad); rec.Code != http.StatusNotFound {
		t.Fatalf("bad run: status %d", rec.Code)
	}
	// Same key, fixed request: must execute, not replay the 404.
	good := `{"workload": "BFS", "scale": 4, "idempotency_key": "r2/0"}`
	if rec := do(mux, http.MethodPost, cluster.PathRun, good); rec.Code != http.StatusOK {
		t.Fatalf("retry after failure: status %d: %s", rec.Code, rec.Body)
	}
}

// TestRetriedKeyIsNotEvictedEarly: a key that failed once and then
// succeeded holds one slot of the bounded store, not two. With room for
// two keys, K (404, the cluster.reship path), K again (200) and B (200)
// leave K among the two newest entries, so a late duplicate of K must
// replay, not execute.
func TestRetriedKeyIsNotEvictedEarly(t *testing.T) {
	srv := testServer(t, hostd.Config{MaxIdempotencyEntries: 2})
	mux := srv.Mux()
	run := func(what, body string, wantStatus int) *httptest.ResponseRecorder {
		t.Helper()
		rec := do(mux, http.MethodPost, cluster.PathRun, body)
		if rec.Code != wantStatus {
			t.Fatalf("%s: status %d, want %d: %s", what, rec.Code, wantStatus, rec.Body)
		}
		return rec
	}
	const k = `{"workload": "BFS", "scale": 4, "idempotency_key": "K"}`
	run("K on an unknown ref", `{"workload": "BFS", "scale": 4, "snapshot": "sha256:dead", "idempotency_key": "K"}`, http.StatusNotFound)
	first := run("K retried", k, http.StatusOK)
	run("B", `{"workload": "BFS", "scale": 4, "idempotency_key": "B"}`, http.StatusOK)
	late := run("K delivered late", k, http.StatusOK)
	if late.Header().Get(cluster.DedupHeader) != "hit" {
		t.Error("late duplicate of K executed again: its record was evicted with only two keys live")
	}
	if !bytes.Equal(first.Body.Bytes(), late.Body.Bytes()) {
		t.Error("late duplicate of K did not replay the recorded response")
	}
	body := statsBody(t, mux)
	if req, dedup := statUint(t, body, "requests"), statUint(t, body, "dedup_hits"); req != 2 || dedup != 1 {
		t.Errorf("requests=%d dedup_hits=%d, want 2 and 1", req, dedup)
	}
}

// TestStatsJSONShape pins the full top-level key set of /api/v1/stats —
// the wire surface operators script against — plus the shapes of the
// latency and pool blocks. A key that disappears (or silently changes
// type) must fail here, not in someone's dashboard.
func TestStatsJSONShape(t *testing.T) {
	// The benchmark's host configuration: RAM left at the default.
	srv := testServer(t, hostd.Config{Sim: mobilesim.Config{HostThreads: 1}})
	mux := srv.Mux()
	if rec := do(mux, http.MethodPost, cluster.PathRun, `{"workload": "BFS", "scale": 4}`); rec.Code != http.StatusOK {
		t.Fatalf("run: status %d: %s", rec.Code, rec.Body)
	}
	body := statsBody(t, mux)

	want := []string{
		"uptime_s", "requests", "failures", "dedup_hits", "snapshot_installs",
		"pool", "snapshots", "runs", "latency", "workloads", "guest_ram_mib",
		"compile_cache", "program_cache",
	}
	for _, k := range want {
		if _, ok := body[k]; !ok {
			t.Errorf("stats body missing key %q", k)
		}
	}
	if len(body) != len(want) {
		keys := make([]string, 0, len(body))
		for k := range body {
			keys = append(keys, k)
		}
		t.Errorf("stats body has %d keys, want %d: %v", len(body), len(want), keys)
	}
	if got := statUint(t, body, "guest_ram_mib"); got != 512 {
		t.Errorf("guest_ram_mib = %d, want the 512 the host booted", got)
	}

	var lat struct {
		Run         map[string]float64            `json:"run"`
		PerWorkload map[string]map[string]float64 `json:"per_workload"`
	}
	if err := json.Unmarshal(body["latency"], &lat); err != nil {
		t.Fatalf("latency block: %v", err)
	}
	for _, blk := range []map[string]float64{lat.Run, lat.PerWorkload["BFS"]} {
		for _, k := range []string{"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms"} {
			if _, ok := blk[k]; !ok {
				t.Fatalf("latency block %v missing key %q", blk, k)
			}
		}
	}
	if lat.Run["count"] != 1 || lat.PerWorkload["BFS"]["count"] != 1 {
		t.Fatalf("run latency counts = %v / %v, want 1 each", lat.Run["count"], lat.PerWorkload["BFS"]["count"])
	}
	if lat.Run["mean_ms"] <= 0 {
		t.Fatalf("run latency mean %v, want > 0", lat.Run["mean_ms"])
	}

	var pool map[string]json.RawMessage
	if err := json.Unmarshal(body["pool"], &pool); err != nil {
		t.Fatal(err)
	}
	// hits, inline_forks, get_wait and refill_fork are the names the
	// repository benchmark (bench/pass.go) decodes.
	poolKeys := []string{"warm", "forked", "hits", "inline_forks", "runs", "get_wait", "refill_fork", "inline_fork"}
	for _, k := range poolKeys {
		if _, ok := pool[k]; !ok {
			t.Errorf("pool block missing key %q", k)
		}
	}
	if len(pool) != len(poolKeys) {
		t.Errorf("pool block has %d keys, want %d: %s", len(pool), len(poolKeys), body["pool"])
	}
}

// TestMetricsExposition covers GET /metrics: Prometheus text format
// headers, the counter values, and the per-workload run summary with
// quantile labels.
func TestMetricsExposition(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	mux := srv.Mux()
	if rec := do(mux, http.MethodPost, cluster.PathRun, `{"workload": "BFS", "scale": 4}`); rec.Code != http.StatusOK {
		t.Fatalf("run: status %d: %s", rec.Code, rec.Body)
	}

	rec := do(mux, http.MethodGet, cluster.PathMetrics, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text exposition 0.0.4", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"# TYPE mobilesim_requests_total counter",
		"mobilesim_requests_total 1\n",
		"mobilesim_failures_total 0\n",
		"# TYPE mobilesim_pool_warm gauge",
		"# TYPE mobilesim_run_duration_seconds summary",
		`mobilesim_run_duration_seconds_count{workload="BFS"} 1`,
		`mobilesim_run_duration_seconds{workload="BFS",quantile="0.5"}`,
		`mobilesim_run_duration_seconds{workload="BFS",quantile="0.99"}`,
		`mobilesim_run_duration_seconds_count{workload="all"} 1`,
		"mobilesim_pool_get_wait_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", text)
	}
}

// TestRunResponseModeled: every run response carries the analytical
// cost-model estimates.
func TestRunResponseModeled(t *testing.T) {
	srv := testServer(t, hostd.Config{})
	rec := do(srv.Mux(), http.MethodPost, cluster.PathRun, `{"workload": "BFS", "scale": 4}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp cluster.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Modeled.MobileCycles <= 0 || resp.Modeled.DesktopCycles <= 0 {
		t.Fatalf("modeled cost not populated: %+v", resp.Modeled)
	}
	if resp.QueueWaitMS < 0 {
		t.Fatalf("queue_wait_ms = %v, want >= 0", resp.QueueWaitMS)
	}
}

// TestSecondRunHitsBothCaches: clc's compile memo and the GPU's program
// cache are per process, so a second identical run — on another fork —
// compiles and decodes nothing, and both stats surfaces report it.
func TestSecondRunHitsBothCaches(t *testing.T) {
	mux := testServer(t, hostd.Config{}).Mux()
	type counts struct{ Hits, Misses, Resets uint64 }
	caches := func() (compile, program counts) {
		body := statsBody(t, mux)
		for key, into := range map[string]*counts{"compile_cache": &compile, "program_cache": &program} {
			if err := json.Unmarshal(body[key], into); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
		}
		return
	}
	run := func() {
		if rec := do(mux, http.MethodPost, cluster.PathRun, `{"workload": "MatrixTranspose", "scale": 64}`); rec.Code != http.StatusOK {
			t.Fatalf("run: status %d: %s", rec.Code, rec.Body)
		}
	}
	run()
	c1, p1 := caches()
	run()
	c2, p2 := caches()
	for _, c := range []struct {
		name          string
		before, after counts
	}{{"compile memo", c1, c2}, {"program cache", p1, p2}} {
		if c.after.Misses != c.before.Misses || c.after.Hits <= c.before.Hits {
			t.Errorf("%s across the second run: %+v → %+v, want hits only", c.name, c.before, c.after)
		}
	}
	metrics := do(mux, http.MethodGet, cluster.PathMetrics, "").Body.String()
	for _, name := range []string{"compile_cache_hits", "compile_cache_misses", "program_cache_hits", "program_cache_misses"} {
		if !strings.Contains(metrics, "# TYPE mobilesim_"+name+"_total counter\n") {
			t.Errorf("/metrics has no mobilesim_%s_total counter", name)
		}
	}
}
