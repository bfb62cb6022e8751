// Package hostd is the mobilesimd server: the per-host executor of the
// cluster protocol (DESIGN.md §11). It boots one platform, captures a
// warm snapshot, and executes registered workloads on sessions forked
// from it, drawn from warm pools — the boot-time default pool, plus one
// pool per snapshot installed over POST /api/v1/snapshot.
//
// cmd/mobilesimd is the flag-parsing wrapper; the package exists so the
// serving logic is testable in-process (this package's tests, and the
// cluster tests that put clustertest's fault layer in front of it, drive
// a real Server through its Mux).
package hostd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobilesim"
	"mobilesim/internal/clc"
	"mobilesim/internal/cluster"
	"mobilesim/internal/gpu"
	"mobilesim/internal/obs"
	"mobilesim/internal/platform"
)

// Config shapes a Server.
type Config struct {
	// Sim is the session configuration of the default boot-time pool
	// (and the shape reported by /api/v1/stats).
	Sim mobilesim.Config
	// PoolSize is the warm-session target of every pool, the default one
	// and per-snapshot ones (minimum 1).
	PoolSize int
	// MaxSnapshots caps installed snapshots; the oldest install is
	// evicted (its pool closed) to admit a new one (default 8).
	MaxSnapshots int
	// MaxIdempotencyEntries caps the recorded-response store; the oldest
	// completed entry is evicted to admit a new one (default 4096).
	MaxIdempotencyEntries int
}

func (c Config) withDefaults() Config {
	if c.PoolSize < 1 {
		c.PoolSize = 1
	}
	if c.MaxSnapshots <= 0 {
		c.MaxSnapshots = 8
	}
	if c.MaxIdempotencyEntries <= 0 {
		c.MaxIdempotencyEntries = 4096
	}
	return c
}

// poolEntry is one warm pool: the default boot pool or an installed
// snapshot's.
type poolEntry struct {
	ref  string // "" for the default pool
	pool *mobilesim.SessionPool
	runs atomic.Uint64
}

// idemEntry records one idempotency key's outcome. Waiters (duplicate
// deliveries racing the first) block on done and then replay the exact
// recorded bytes.
type idemEntry struct {
	done   chan struct{}
	status int
	body   []byte
}

// completed reports whether the entry's first delivery has finished; only
// then may the store evict it.
func (e *idemEntry) completed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Server implements the host side of the cluster protocol.
type Server struct {
	cfg   Config
	def   *poolEntry
	start time.Time

	requests  atomic.Uint64
	failures  atomic.Uint64
	dedupHits atomic.Uint64
	installs  atomic.Uint64

	// Request latency histograms (DESIGN.md §12): runLatency covers the
	// whole execution of a run request (pool hand-out + workload run);
	// wlLatency splits run durations per workload name.
	runLatency obs.Histogram
	wlMu       sync.Mutex
	wlLatency  map[string]*obs.Histogram

	mu        sync.Mutex
	closed    bool
	snaps     *registry[*poolEntry] // installed snapshots, by ref
	idem      *registry[*idemEntry] // recorded responses, by idempotency key
	runCounts map[string]uint64
}

// New boots the reference platform once, captures the warm snapshot and
// builds the default session pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	warm, err := mobilesim.New(cfg.Sim)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	snap, err := warm.Snapshot()
	warm.Close()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	pool, err := mobilesim.NewSessionPool(snap, cfg.PoolSize)
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	return &Server{
		cfg:       cfg,
		def:       &poolEntry{pool: pool},
		start:     time.Now(),
		wlLatency: make(map[string]*obs.Histogram),
		snaps:     newRegistry[*poolEntry](cfg.MaxSnapshots),
		idem:      newRegistry[*idemEntry](cfg.MaxIdempotencyEntries),
		runCounts: make(map[string]uint64),
	}, nil
}

// Close shuts down every pool. Sessions already handed out to in-flight
// runs are unaffected (their owners close them).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	entries := []*poolEntry{s.def}
	s.snaps.each(func(_ string, e *poolEntry) { entries = append(entries, e) })
	s.mu.Unlock()
	for _, e := range entries {
		e.pool.Close()
	}
}

// Mux returns the HTTP routing table.
func (s *Server) Mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc(cluster.PathHealth, s.handleHealth)
	m.HandleFunc("/api/v1/workloads", s.handleWorkloads)
	m.HandleFunc(cluster.PathSnapshot, s.handleSnapshot)
	m.HandleFunc(cluster.PathRun, s.handleRun)
	m.HandleFunc(cluster.PathStats, s.handleStats)
	m.HandleFunc(cluster.PathMetrics, s.handleMetrics)
	return m
}

// workloadHist returns the run-duration histogram for one workload,
// creating it on first use. The map is small (one entry per workload
// name ever run) and the lock is uncontended relative to a full
// simulator run.
func (s *Server) workloadHist(name string) *obs.Histogram {
	s.wlMu.Lock()
	defer s.wlMu.Unlock()
	h, ok := s.wlLatency[name]
	if !ok {
		h = &obs.Histogram{}
		s.wlLatency[name] = h
	}
	return h
}

// workloadLatencies snapshots every per-workload histogram, sorted by
// name for deterministic rendering.
func (s *Server) workloadLatencies() []workloadLatency {
	s.wlMu.Lock()
	out := make([]workloadLatency, 0, len(s.wlLatency))
	for name, h := range s.wlLatency {
		out = append(out, workloadLatency{name: name, snap: h.Snapshot()})
	}
	s.wlMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type workloadLatency struct {
	name string
	snap obs.Snapshot
}

// encodeJSON renders v exactly as every response writer does, so
// recorded idempotent replays are byte-identical to first deliveries.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return []byte(fmt.Sprintf("{\"error\":%q}\n", err.Error()))
	}
	return buf.Bytes()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeRaw(w, status, encodeJSON(v))
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, cluster.ErrorResponse{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	installed := s.snaps.len()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"warm":      s.def.pool.Warm(),
		"forked":    s.def.pool.Forked(),
		"snapshots": installed,
	})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"workloads": mobilesim.Workloads()})
}

// handleSnapshot installs an encoded snapshot into a warm pool, keyed by
// its content-addressed ref. Installation is idempotent: re-posting the
// same bytes answers the same ref without building a second pool.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<30))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading snapshot: %w", err))
		return
	}
	ref := cluster.Ref(body)

	s.mu.Lock()
	_, exists := s.snaps.get(ref)
	s.mu.Unlock()
	if exists {
		writeJSON(w, http.StatusOK, cluster.SnapshotResponse{Ref: ref})
		return
	}

	snap, err := mobilesim.ReadSnapshot(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding snapshot: %w", err))
		return
	}
	pool, err := mobilesim.NewSessionPool(snap, s.cfg.PoolSize)
	if err != nil {
		s.failures.Add(1)
		writeError(w, http.StatusInternalServerError, fmt.Errorf("building pool: %w", err))
		return
	}
	entry := &poolEntry{ref: ref, pool: pool}

	s.mu.Lock()
	if _, raced := s.snaps.get(ref); raced {
		// A concurrent install of the same bytes won; keep its pool.
		s.mu.Unlock()
		pool.Close()
		writeJSON(w, http.StatusOK, cluster.SnapshotResponse{Ref: ref})
		return
	}
	evicted := s.snaps.put(ref, entry, func(*poolEntry) bool { return true })
	s.mu.Unlock()
	for _, old := range evicted {
		// In-flight runs already holding forks are unaffected; later runs
		// naming the evicted ref get unknown_snapshot and re-ship.
		old.pool.Close()
	}
	s.installs.Add(1)
	writeJSON(w, http.StatusOK, cluster.SnapshotResponse{Ref: ref})
}

// maxRunBody bounds a run request's JSON: a workload name, a scale and a
// few keys fit in a few hundred bytes.
const maxRunBody = 1 << 20

// handleRun wraps the run execution in the idempotency layer: the first
// delivery of a key executes and records its exact response bytes; every
// later (or concurrently racing) delivery waits and replays them with
// the dedup header set, so retried or hedged jobs are never
// double-counted.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req cluster.RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, errors.New(`missing "workload"`))
		return
	}
	// Resolve the name and bound the scale before taking a fork from a
	// pool: a typo should cost a name lookup and a 404 with suggestions,
	// not a session. A workload generates its inputs on the host, at the
	// requested scale, before any guest limit applies, so its paper scale
	// bounds what one request may make this process allocate.
	info, err := mobilesim.Lookup(req.Workload)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if info.PaperScale > 0 && req.Scale > info.PaperScale {
		writeJSON(w, http.StatusBadRequest, cluster.ErrorResponse{
			Error: fmt.Sprintf("scale %d of %s is above its paper scale %d", req.Scale, req.Workload, info.PaperScale),
			Code:  cluster.CodeScaleOutOfRange,
		})
		return
	}

	if req.IdempotencyKey == "" {
		status, payload := s.executeRun(r.Context(), &req)
		writeJSON(w, status, payload)
		return
	}

	entry, first := s.claimIdem(req.IdempotencyKey)
	if !first {
		select {
		case <-entry.done:
			s.dedupHits.Add(1)
			w.Header().Set(cluster.DedupHeader, "hit")
			writeRaw(w, entry.status, entry.body)
		case <-r.Context().Done():
			writeError(w, http.StatusRequestTimeout, r.Context().Err())
		}
		return
	}

	status, payload := s.executeRun(r.Context(), &req)
	body := encodeJSON(payload)
	s.finishIdem(req.IdempotencyKey, entry, status, body)
	writeRaw(w, status, body)
}

// claimIdem registers key and reports whether the caller is the first
// delivery (and must execute + finish) or a duplicate (and must wait on
// the returned entry).
func (s *Server) claimIdem(key string) (*idemEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.idem.get(key); ok {
		return e, false
	}
	e := &idemEntry{done: make(chan struct{})}
	// Entries still executing are kept; the store briefly overshoots.
	s.idem.put(key, e, (*idemEntry).completed)
	return e, true
}

// finishIdem records the outcome and releases waiters. Failed runs are
// recorded for the waiters already parked on this delivery but removed
// from the store, so a later retry of the key may execute again.
func (s *Server) finishIdem(key string, e *idemEntry, status int, body []byte) {
	e.status = status
	e.body = body
	s.mu.Lock()
	if status != http.StatusOK {
		s.idem.delete(key)
	}
	s.mu.Unlock()
	close(e.done)
}

// lookupPool resolves the pool a run forks from.
func (s *Server) lookupPool(ref string) (*poolEntry, error) {
	if ref == "" {
		return s.def, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.snaps.get(ref); ok {
		return e, nil
	}
	return nil, fmt.Errorf("snapshot %s is not installed on this host", ref)
}

// executeRun performs one workload run on a pool fork and builds the
// response. It returns the HTTP status and the payload to encode.
func (s *Server) executeRun(ctx context.Context, req *cluster.RunRequest) (int, any) {
	entry, err := s.lookupPool(req.Snapshot)
	if err != nil {
		s.failures.Add(1)
		return http.StatusNotFound, cluster.ErrorResponse{Error: err.Error(), Code: cluster.CodeUnknownSnapshot}
	}
	s.requests.Add(1)

	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	t0 := time.Now()
	sess, err := entry.pool.Get(ctx)
	if err != nil {
		s.failures.Add(1)
		return http.StatusServiceUnavailable, cluster.ErrorResponse{Error: err.Error()}
	}
	// Forks are single-use: the request's writes stay in its private
	// copy, which is discarded here, and the next request gets a pristine
	// fork of the same snapshot.
	defer sess.Close()

	opts := []mobilesim.RunOption{mobilesim.WithScale(req.Scale)}
	if req.Verify != nil {
		opts = append(opts, mobilesim.WithVerify(*req.Verify))
	}
	res, err := sess.Run(ctx, req.Workload, opts...)
	// Request latency covers pool hand-out plus the run, success or not:
	// an operator watching p99s cares about what clients waited, not just
	// what verified.
	elapsed := time.Since(t0)
	s.runLatency.Observe(elapsed)
	s.workloadHist(req.Workload).Observe(elapsed)
	if err != nil {
		s.failures.Add(1)
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Client disconnect or expired timeout_ms: the kernel was
			// soft-stopped at a clause boundary and the fork discarded.
			status = http.StatusRequestTimeout
		}
		return status, cluster.ErrorResponse{Error: err.Error()}
	}

	entry.runs.Add(1)
	s.mu.Lock()
	s.runCounts[req.Workload]++
	s.mu.Unlock()

	resp := &cluster.RunResponse{
		Workload:    res.Workload,
		Kind:        string(res.Kind),
		Scale:       res.Scale,
		Verified:    res.Verified,
		SimMS:       float64(res.SimDuration) / float64(time.Millisecond),
		NativeMS:    float64(res.NativeDuration) / float64(time.Millisecond),
		WallMS:      float64(res.Wall) / float64(time.Millisecond),
		QueueWaitMS: float64(res.QueueWait) / float64(time.Millisecond),
		// Serialization copies into the RPC response, not live
		// bookkeeping: the counters cross the wire exactly.
		Stats: cluster.RunStats{
			GPU:               res.Stats.GPU,
			System:            res.Stats.System,
			DriverCPUNS:       int64(res.Stats.DriverCPUTime),
			GuestInstructions: res.Stats.GuestInstructions,
		},
		Modeled: cluster.Modeled{
			MobileCycles:  res.Modeled.MobileCycles,
			DesktopCycles: res.Modeled.DesktopCycles,
		},
	}
	if res.VerifyErr != nil {
		resp.VerifyError = res.VerifyErr.Error()
	}
	return http.StatusOK, resp
}

// durMS renders a duration as float milliseconds for the stats JSON.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencyJSON renders one histogram snapshot as a stats JSON latency
// block: count plus mean/p50/p90/p99 in milliseconds. Percentiles are
// log-bucket estimates (≤ ~2× relative error); the mean is exact.
func latencyJSON(snap *obs.Snapshot) map[string]any {
	sum := snap.Summary()
	return map[string]any{
		"count":   sum.Count,
		"mean_ms": durMS(sum.Mean),
		"p50_ms":  durMS(sum.P50),
		"p90_ms":  durMS(sum.P90),
		"p99_ms":  durMS(sum.P99),
	}
}

// poolStats renders one pool's counters and latency summaries.
func poolStats(e *poolEntry) map[string]any {
	m := e.pool.Metrics()
	out := map[string]any{
		"warm":         m.Warm,
		"forked":       m.Forked,
		"hits":         m.Hits,
		"inline_forks": m.InlineForks,
		"runs":         e.runs.Load(),
		"get_wait":     latencyJSON(&m.GetWait),
		"refill_fork":  latencyJSON(&m.RefillFork),
		"inline_fork":  latencyJSON(&m.InlineFork),
	}
	if e.ref != "" {
		out["ref"] = e.ref
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	snaps := make([]map[string]any, 0, s.snaps.len())
	s.snaps.each(func(_ string, e *poolEntry) { snaps = append(snaps, poolStats(e)) })
	runs := make(map[string]uint64, len(s.runCounts))
	for k, v := range s.runCounts {
		runs[k] = v
	}
	s.mu.Unlock()

	perWorkload := map[string]any{}
	for _, wl := range s.workloadLatencies() {
		perWorkload[wl.name] = latencyJSON(&wl.snap)
	}
	runSnap := s.runLatency.Snapshot()
	ram := s.cfg.Sim.RAMSize
	if ram == 0 {
		ram = platform.DefaultRAMSize
	}

	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s":          time.Since(s.start).Seconds(),
		"requests":          s.requests.Load(),
		"failures":          s.failures.Load(),
		"dedup_hits":        s.dedupHits.Load(),
		"snapshot_installs": s.installs.Load(),
		// The default pool, then one block per installed snapshot's pool.
		"pool":      poolStats(s.def),
		"snapshots": snaps,
		"runs":      runs,
		// Latency percentile blocks (DESIGN.md §12): whole-request run
		// latency and per-workload splits.
		"latency": map[string]any{
			"run":          latencyJSON(&runSnap),
			"per_workload": perWorkload,
		},
		"workloads":     len(mobilesim.Workloads()),
		"guest_ram_mib": ram >> 20, // what the host booted
		// The process-wide caches every session shares (DESIGN.md §3.7, §9).
		"compile_cache": cacheJSON(clc.MemoStats()),
		"program_cache": cacheJSON(gpu.ProgramCacheStats()),
	})
}

func cacheJSON(c gpu.CacheStats) map[string]any {
	return map[string]any{"hits": c.Hits, "misses": c.Misses, "resets": c.Resets}
}

// handleMetrics serves GET /metrics: the same counters and latency
// summaries as /api/v1/stats, rendered in Prometheus text exposition
// format (one scrape target per host).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	obs.WritePromGauge(&b, "mobilesim_uptime_seconds", "Seconds since the server booted.", time.Since(s.start).Seconds())
	obs.WritePromCounter(&b, "mobilesim_requests_total", "Run requests accepted.", s.requests.Load())
	obs.WritePromCounter(&b, "mobilesim_failures_total", "Run requests that failed.", s.failures.Load())
	obs.WritePromCounter(&b, "mobilesim_dedup_hits_total", "Idempotent replays served from the recorded-response store.", s.dedupHits.Load())
	obs.WritePromCounter(&b, "mobilesim_snapshot_installs_total", "Snapshots installed over the snapshot endpoint.", s.installs.Load())

	pm := s.def.pool.Metrics()
	obs.WritePromGauge(&b, "mobilesim_pool_warm", "Warm sessions currently in the default pool.", float64(pm.Warm))
	obs.WritePromCounter(&b, "mobilesim_pool_forked_total", "Sessions forked by the default pool.", pm.Forked)
	obs.WritePromCounter(&b, "mobilesim_pool_hits_total", "Get calls served from the warm pool.", pm.Hits)
	obs.WritePromCounter(&b, "mobilesim_pool_inline_forks_total", "Get calls that forked inline (pool momentarily empty).", pm.InlineForks)
	for _, c := range []struct {
		name, what string
		st         gpu.CacheStats
	}{
		{"compile_cache", "process-wide kernel compile memo", clc.MemoStats()},
		{"program_cache", "process-wide shader program cache", gpu.ProgramCacheStats()},
	} {
		obs.WritePromCounter(&b, "mobilesim_"+c.name+"_hits_total", "Hits in the "+c.what+".", c.st.Hits)
		obs.WritePromCounter(&b, "mobilesim_"+c.name+"_misses_total", "Misses in the "+c.what+" (each one compiled).", c.st.Misses)
		obs.WritePromCounter(&b, "mobilesim_"+c.name+"_resets_total", "Times the "+c.what+" emptied itself when full.", c.st.Resets)
	}

	runSnap := s.runLatency.Snapshot()
	obs.WritePromSummaryHeader(&b, "mobilesim_run_duration_seconds", "Run request latency (pool hand-out + workload run), per workload.")
	for _, wl := range s.workloadLatencies() {
		obs.WritePromSummary(&b, "mobilesim_run_duration_seconds", `workload="`+obs.EscapeLabel(wl.name)+`"`, &wl.snap)
	}
	obs.WritePromSummary(&b, "mobilesim_run_duration_seconds", `workload="all"`, &runSnap)

	obs.WritePromSummaryHeader(&b, "mobilesim_pool_get_wait_seconds", "Default pool hand-out latency.")
	obs.WritePromSummary(&b, "mobilesim_pool_get_wait_seconds", "", &pm.GetWait)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}
