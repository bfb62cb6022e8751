// Package clustertest is a programmable fault-injecting mobilesimd host
// for cluster tests: an httptest-backed server speaking the cluster wire
// protocol (DESIGN.md §11) whose per-request behaviour is scripted —
// delays, 5xx errors, disconnects after N response bytes, hard kills
// mid-job, and duplicate (re-executed) deliveries — so every retry,
// hedge and dedup path in internal/cluster can be driven
// deterministically.
//
// A Host runs in one of two modes:
//
//   - Synthetic (New): the host implements the protocol itself, with
//     deterministic fake statistics derived from (workload, scale) — see
//     SynthResponse — plus a real idempotency store and snapshot-ref
//     registry. Unit tests of the client's delivery machinery use this;
//     no simulator boots.
//
//   - Backend (NewWithBackend): requests that survive the fault layer
//     are forwarded to a real handler — typically an internal/hostd
//     Server's Mux — so end-to-end tests (the cluster-vs-local
//     determinism pin) exercise real execution under injected faults.
package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"mobilesim/internal/cluster"
	"mobilesim/internal/stats"
)

// Script is one scheduled fault on the run endpoint. Each incoming
// /api/v1/run request consumes the first queued script whose Workload
// matcher accepts it; a request with no matching script is served
// faithfully. Zero-valued fields do nothing, so a Script composes: e.g.
// {Delay: time.Second} alone slow-walks a response (forcing a hedge),
// {Status: 503} alone fails it (forcing a retry).
type Script struct {
	// Workload restricts the script to runs of this workload ("" = any).
	Workload string
	// Delay sleeps before any other behaviour — and before execution, so
	// a hedged duplicate dispatched meanwhile races a host that has not
	// run the job yet.
	Delay time.Duration
	// Status, when non-zero, rejects the request with this HTTP status
	// (body: an ErrorResponse carrying Code) without executing.
	Status int
	Code   string
	// Disconnect closes the connection after writing AfterBytes bytes of
	// the (executed) response body — a mid-stream disconnect: the job ran
	// on the host, the client never got the answer.
	Disconnect bool
	AfterBytes int
	// Kill accepts the job and then kills the whole host instead of
	// responding: the connection drops with no bytes, and every later
	// request is refused — the die-mid-job host-loss case.
	Kill bool
	// Rerun forces re-execution even when the request's idempotency key
	// has a recorded response — a duplicate delivery that a buggy host
	// would double-count. Client-side first-result-wins must keep the
	// aggregate single-counted regardless.
	Rerun bool
}

// Host is one fake cluster host.
type Host struct {
	backend http.Handler
	srv     *httptest.Server

	mu      sync.Mutex
	scripts []Script
	snaps   map[string]bool   // synthetic installed refs
	idem    map[string][]byte // synthetic idempotency store

	dead atomic.Bool

	requests  atomic.Uint64 // run requests received (before fault layer)
	runs      atomic.Uint64 // runs actually executed
	dedups    atomic.Uint64 // runs served from the idempotency store
	installs  atomic.Uint64 // snapshot installations performed
	killed    atomic.Uint64 // requests dropped because the host is dead
	faulted   atomic.Uint64 // requests a script rejected or mangled
	truncated atomic.Uint64 // responses cut short mid-stream
}

// New starts a synthetic host.
func New() *Host { return NewWithBackend(nil) }

// NewWithBackend starts a host whose non-faulted requests are served by
// backend (e.g. an internal/hostd Server's Mux). The fault layer still
// owns delays, scripted errors, disconnects, kills and the Rerun
// idempotency bypass.
func NewWithBackend(backend http.Handler) *Host {
	h := &Host{
		backend: backend,
		snaps:   make(map[string]bool),
		idem:    make(map[string][]byte),
	}
	h.srv = httptest.NewServer(http.HandlerFunc(h.handle))
	return h
}

// URL returns the host's base URL.
func (h *Host) URL() string { return h.srv.URL }

// Close shuts the host down.
func (h *Host) Close() { h.srv.Close() }

// Kill marks the host dead — every subsequent request's connection is
// dropped without a response — and severs current connections.
func (h *Host) Kill() {
	if h.dead.Swap(true) {
		return
	}
	h.srv.CloseClientConnections()
}

// Dead reports whether the host has been killed.
func (h *Host) Dead() bool { return h.dead.Load() }

// ScriptRun queues fault scripts on the run endpoint, consumed in order.
func (h *Host) ScriptRun(ss ...Script) {
	h.mu.Lock()
	h.scripts = append(h.scripts, ss...)
	h.mu.Unlock()
}

// Requests counts run requests received, including faulted ones.
func (h *Host) Requests() uint64 { return h.requests.Load() }

// Runs counts runs actually executed (synthetic or forwarded), excluding
// idempotent replays.
func (h *Host) Runs() uint64 { return h.runs.Load() }

// DedupHits counts runs answered from the idempotency store.
func (h *Host) DedupHits() uint64 { return h.dedups.Load() }

// Installs counts snapshot installations performed.
func (h *Host) Installs() uint64 { return h.installs.Load() }

// Faulted counts requests a script rejected, truncated or killed.
func (h *Host) Faulted() uint64 { return h.faulted.Load() }

// popScript consumes the first queued script matching workload.
func (h *Host) popScript(workload string) (Script, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, s := range h.scripts {
		if s.Workload == "" || s.Workload == workload {
			h.scripts = append(h.scripts[:i], h.scripts[i+1:]...)
			return s, true
		}
	}
	return Script{}, false
}

// dropConn severs the connection without a response (dead hosts,
// mid-job kills).
func dropConn(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("clustertest: response writer cannot hijack (HTTP/2?)")
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	conn.Close()
}

func (h *Host) handle(w http.ResponseWriter, r *http.Request) {
	if h.dead.Load() {
		h.killed.Add(1)
		dropConn(w)
		return
	}
	switch r.URL.Path {
	case cluster.PathRun:
		h.handleRun(w, r)
	case cluster.PathSnapshot:
		h.handleSnapshot(w, r)
	default:
		if h.backend != nil {
			h.backend.ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	}
}

func (h *Host) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if h.backend != nil {
		rec := httptest.NewRecorder()
		h.backend.ServeHTTP(rec, r)
		if rec.Code == http.StatusOK {
			h.installs.Add(1)
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, cluster.ErrorResponse{Error: err.Error()})
		return
	}
	ref := cluster.Ref(body)
	h.mu.Lock()
	already := h.snaps[ref]
	h.snaps[ref] = true
	h.mu.Unlock()
	if !already {
		h.installs.Add(1)
	}
	writeJSON(w, http.StatusOK, cluster.SnapshotResponse{Ref: ref, AlreadyInstalled: already})
}

func (h *Host) handleRun(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, cluster.ErrorResponse{Error: err.Error()})
		return
	}
	var req cluster.RunRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, cluster.ErrorResponse{Error: err.Error()})
		return
	}

	script, scripted := h.popScript(req.Workload)
	if scripted && script.Delay > 0 {
		select {
		case <-time.After(script.Delay):
		case <-r.Context().Done():
			writeJSON(w, http.StatusRequestTimeout, cluster.ErrorResponse{Error: r.Context().Err().Error()})
			return
		}
	}
	if scripted && script.Status != 0 {
		h.faulted.Add(1)
		writeJSON(w, script.Status, cluster.ErrorResponse{
			Error: fmt.Sprintf("clustertest: scripted %d", script.Status),
			Code:  script.Code,
		})
		return
	}
	if scripted && script.Kill {
		h.faulted.Add(1)
		h.Kill()
		dropConn(w)
		return
	}

	status, body, executed := h.execute(r, &req, raw, scripted && script.Rerun)
	if executed {
		h.runs.Add(1)
	} else if status == http.StatusOK {
		h.dedups.Add(1)
	}

	if scripted && script.Disconnect {
		h.faulted.Add(1)
		h.truncated.Add(1)
		truncateResponse(w, status, body, script.AfterBytes)
		return
	}
	if !executed && status == http.StatusOK {
		w.Header().Set(cluster.DedupHeader, "hit")
	}
	writeRaw(w, status, body)
}

// execute produces the run response body: forwarded to the backend, or
// synthesized. rerun bypasses the idempotency store — the duplicate-
// delivery fault. It reports whether a run was actually executed.
func (h *Host) execute(r *http.Request, req *cluster.RunRequest, raw []byte, rerun bool) (status int, body []byte, executed bool) {
	if h.backend != nil {
		fwd := raw
		if rerun {
			// Strip the key so the backend's idempotency layer cannot
			// dedup this delivery.
			req2 := *req
			req2.IdempotencyKey = ""
			if b, err := json.Marshal(&req2); err == nil {
				fwd = b
			}
		}
		sub := r.Clone(r.Context())
		sub.Body = io.NopCloser(bytes.NewReader(fwd))
		sub.ContentLength = int64(len(fwd))
		rec := httptest.NewRecorder()
		h.backend.ServeHTTP(rec, sub)
		executed = rec.Code != http.StatusOK || rec.Header().Get(cluster.DedupHeader) == ""
		return rec.Code, rec.Body.Bytes(), executed && rec.Code == http.StatusOK
	}

	// Synthetic protocol: snapshot refs must have been shipped here.
	if req.Snapshot != "" {
		h.mu.Lock()
		known := h.snaps[req.Snapshot]
		h.mu.Unlock()
		if !known {
			return http.StatusNotFound, encodeJSON(cluster.ErrorResponse{
				Error: fmt.Sprintf("snapshot %s is not installed on this host", req.Snapshot),
				Code:  cluster.CodeUnknownSnapshot,
			}), false
		}
	}
	if req.IdempotencyKey != "" && !rerun {
		h.mu.Lock()
		cached, ok := h.idem[req.IdempotencyKey]
		h.mu.Unlock()
		if ok {
			return http.StatusOK, cached, false
		}
	}
	body = encodeJSON(SynthResponse(req.Workload, req.Scale))
	if req.IdempotencyKey != "" {
		h.mu.Lock()
		h.idem[req.IdempotencyKey] = body
		h.mu.Unlock()
	}
	return http.StatusOK, body, true
}

// truncateResponse writes the response framing with the full content
// length but only n body bytes, then severs the connection — the client
// observes a mid-stream disconnect (unexpected EOF), not a short valid
// response.
func truncateResponse(w http.ResponseWriter, status int, body []byte, n int) {
	if n > len(body) {
		n = len(body)
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic("clustertest: response writer cannot hijack (HTTP/2?)")
	}
	conn, buf, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	fmt.Fprintf(buf, "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		status, http.StatusText(status), len(body))
	buf.Write(body[:n])
	buf.Flush()
}

func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
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

// SynthResponse is the synthetic host's deterministic run result: every
// statistic is a pure function of (workload, scale), so duplicate
// deliveries and hedged races return identical bytes on every host and
// tests can compute expected aggregates exactly.
func SynthResponse(workload string, scale int) *cluster.RunResponse {
	f := fnv.New64a()
	f.Write([]byte(workload))
	base := f.Sum64()%1_000_003 + 1
	mix := func(k uint64) uint64 { return (base*k + uint64(scale)*7919) % 1_000_000 }
	return &cluster.RunResponse{
		Workload: workload,
		Kind:     "benchmark",
		Scale:    scale,
		Verified: true,
		SimMS:    float64(mix(2)) / 1000,
		Stats: cluster.RunStats{
			GPU: stats.GPUStats{
				ArithInstr: mix(3),
				LSInstr:    mix(5),
				CFInstr:    mix(7),
				GlobalLS:   mix(11),
				MainMemAcc: mix(13),
				Threads:    mix(17),
			},
			System: stats.SystemStats{
				ComputeJobs:   1 + mix(19)%8,
				KernelLaunch:  1 + mix(23)%8,
				PagesAccessed: mix(29),
				TLBHits:       mix(31),
				TLBWalks:      mix(37),
			},
			DriverCPUNS:       int64(mix(41)) * 1001,
			GuestInstructions: mix(43) * 97,
		},
	}
}
