// Package clustertest is a programmable fault layer in front of a real
// mobilesimd handler for cluster tests: an httptest server that forwards
// the cluster wire protocol (DESIGN.md §11) to a backend — typically an
// internal/hostd Server's Mux — and scripts per-request faults on the run
// endpoint: delays, 5xx errors, disconnects after N response bytes, hard
// kills mid-job, and duplicate (re-executed) deliveries. Every retry,
// hedge and dedup path in internal/cluster is thereby driven
// deterministically against the idempotency store and refusal rules that
// production hosts use.
package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"mobilesim/internal/cluster"
)

// Script is one scheduled fault on the run endpoint. Each incoming
// /api/v1/run request consumes the first queued script; a request that
// finds the queue empty is forwarded untouched. Zero-valued fields do
// nothing, so a Script composes: e.g. {Delay: time.Second} alone
// slow-walks a response (forcing a hedge), {Status: 503} alone fails it
// (forcing a retry).
type Script struct {
	// Delay sleeps before any other behaviour — and before execution, so
	// a hedged duplicate dispatched meanwhile races a host that has not
	// run the job yet.
	Delay time.Duration
	// Status, when non-zero, rejects the request with this HTTP status
	// without executing.
	Status int
	// Disconnect closes the connection after writing AfterBytes bytes of
	// the (executed) response body — a mid-stream disconnect: the job ran
	// on the host, the client never got the answer.
	Disconnect bool
	AfterBytes int
	// Kill accepts the job and then kills the whole host instead of
	// responding: the connection drops with no bytes, and every later
	// request is refused — the die-mid-job host-loss case.
	Kill bool
	// Rerun strips the request's idempotency key before forwarding, so
	// the backend re-executes a delivery it has already recorded — a
	// duplicate delivery that a buggy host would double-count.
	// Client-side first-result-wins must keep the job single-counted
	// regardless.
	Rerun bool
}

// Host is one fault layer in front of a real backend.
type Host struct {
	backend http.Handler
	srv     *httptest.Server

	mu      sync.Mutex
	scripts []Script

	dead atomic.Bool

	requests atomic.Uint64 // run requests received (before fault layer)
	faulted  atomic.Uint64 // requests a script rejected, truncated or killed
}

// New starts a host whose requests, once past the fault layer, are
// served by backend (e.g. an internal/hostd Server's Mux).
func New(backend http.Handler) *Host {
	h := &Host{backend: backend}
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

// Faulted counts requests a script rejected, truncated or killed.
func (h *Host) Faulted() uint64 { return h.faulted.Load() }

// popScript consumes the first queued script; the zero Script, which
// injects nothing, when the queue is empty.
func (h *Host) popScript() Script {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.scripts) == 0 {
		return Script{}
	}
	s := h.scripts[0]
	h.scripts = h.scripts[1:]
	return s
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
		dropConn(w)
		return
	}
	if r.URL.Path == cluster.PathRun {
		h.handleRun(w, r)
		return
	}
	h.backend.ServeHTTP(w, r)
}

func (h *Host) handleRun(w http.ResponseWriter, r *http.Request) {
	h.requests.Add(1)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	script := h.popScript()
	if script.Delay > 0 {
		select {
		case <-time.After(script.Delay):
		case <-r.Context().Done():
			return
		}
	}
	if script.Status != 0 {
		h.faulted.Add(1)
		http.Error(w, fmt.Sprintf("clustertest: scripted %d", script.Status), script.Status)
		return
	}
	if script.Kill {
		h.faulted.Add(1)
		h.Kill()
		dropConn(w)
		return
	}
	if script.Rerun {
		// A body that does not decode is forwarded as it came, for the
		// backend to refuse.
		var req cluster.RunRequest
		if json.Unmarshal(raw, &req) == nil {
			req.IdempotencyKey = ""
			raw, _ = json.Marshal(&req)
		}
	}

	fwd := r.Clone(r.Context())
	fwd.Body = io.NopCloser(bytes.NewReader(raw))
	fwd.ContentLength = int64(len(raw))
	if !script.Disconnect {
		h.backend.ServeHTTP(w, fwd)
		return
	}
	rec := httptest.NewRecorder()
	h.backend.ServeHTTP(rec, fwd)
	h.faulted.Add(1)
	truncateResponse(w, rec.Code, rec.Body.Bytes(), script.AfterBytes)
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
