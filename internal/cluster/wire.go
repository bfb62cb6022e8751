package cluster

import (
	"crypto/sha256"
	"encoding/hex"

	"mobilesim/internal/stats"
)

// This file is the single source of truth for the cluster wire protocol
// (DESIGN.md §11): the JSON shapes exchanged between the coordinator
// (Cluster, which Batch.Hosts drives) and the per-host executor (internal/hostd,
// cmd/mobilesimd). Client and server both compile against these types, so
// the two halves cannot drift.

// Protocol endpoints, relative to a host's base URL.
const (
	PathHealth   = "/healthz"
	PathSnapshot = "/api/v1/snapshot"
	PathRun      = "/api/v1/run"
	PathStats    = "/api/v1/stats"
	// PathMetrics serves the same counters and latency summaries as
	// PathStats in Prometheus text exposition format.
	PathMetrics = "/metrics"
)

// DedupHeader marks a /api/v1/run response that was replayed from the
// host's idempotency store instead of executing again. Its value is "hit".
const DedupHeader = "X-Mobilesimd-Dedup"

// Error codes carried by ErrorResponse.Code. Plain-text errors (bad JSON,
// unknown workloads) have no code.
const (
	// CodeUnknownSnapshot: the run named a snapshot ref the host does not
	// have installed — the client should re-ship and retry.
	CodeUnknownSnapshot = "unknown_snapshot"
	// CodeScaleOutOfRange: the run asked for a scale above the workload's
	// paper scale (WorkloadInfo.PaperScale), the largest a host runs.
	CodeScaleOutOfRange = "scale_out_of_range"
)

// Ref computes the content address of an encoded snapshot. Snapshot
// encoding is deterministic (DESIGN.md §8), so the same captured state
// always yields the same ref on every host.
func Ref(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// RunRequest is the POST /api/v1/run body.
type RunRequest struct {
	Workload string `json:"workload"`
	Scale    int    `json:"scale"`
	// Verify checks the simulated output against the host-native
	// reference (default true; explicitly false to skip).
	Verify *bool `json:"verify,omitempty"`
	// TimeoutMS bounds the run; an expired timeout soft-stops the kernel
	// at a clause boundary.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Snapshot selects an installed snapshot ref (see PathSnapshot) to
	// fork the run's session from; empty means the host's default
	// boot-time pool.
	Snapshot string `json:"snapshot,omitempty"`
	// IdempotencyKey makes the run at-most-once per host: a retried or
	// hedged delivery of the same key replays the recorded response
	// (DedupHeader set) instead of executing — and is not double-counted.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// RunStats is the per-run statistics delta on the wire. GPU and System
// are exact integer counter records; DriverCPUNS carries the driver CPU
// time losslessly.
type RunStats struct {
	GPU               stats.GPUStats    `json:"gpu"`
	System            stats.SystemStats `json:"system"`
	DriverCPUNS       int64             `json:"driver_cpu_ns"`
	GuestInstructions uint64            `json:"guest_instructions"`
}

// Merge accumulates another run's delta. All fields are sums of integer
// counters (RegistersUsed is a max), so merging is order-independent:
// any merge order over the same set of deltas yields identical bytes.
func (s *RunStats) Merge(o *RunStats) {
	s.GPU.Merge(&o.GPU)
	s.System.Merge(&o.System)
	s.DriverCPUNS += o.DriverCPUNS
	s.GuestInstructions += o.GuestInstructions
}

// Modeled carries the analytical cost-model estimates for one run: the
// Mali-G71 mobile and K20m desktop relative runtimes evaluated on the
// run's own statistics delta. Both are pure functions of the
// deterministic counters, so the values a cluster host reports are
// bit-identical to a local run of the same job.
type Modeled struct {
	MobileCycles  float64 `json:"mobile_cycles"`
	DesktopCycles float64 `json:"desktop_cycles"`
}

// RunResponse is the result of one run: outcome, timings, the per-run
// statistics delta and the modelled cost estimates.
type RunResponse struct {
	Workload    string `json:"workload"`
	Kind        string `json:"kind"`
	Scale       int    `json:"scale"`
	Verified    bool   `json:"verified"`
	VerifyError string `json:"verify_error,omitempty"`

	SimMS    float64 `json:"sim_ms"`
	NativeMS float64 `json:"native_ms,omitempty"`
	WallMS   float64 `json:"wall_ms"`
	// QueueWaitMS is the time the run waited for its session while another
	// run held it (~0 on a pool fork, which one request holds alone).
	QueueWaitMS float64 `json:"queue_wait_ms"`

	Stats   RunStats `json:"stats"`
	Modeled Modeled  `json:"modeled"`
}

// SnapshotResponse is the result of POST /api/v1/snapshot.
type SnapshotResponse struct {
	// Ref is the content address of the installed snapshot (see Ref).
	Ref string `json:"ref"`
	// AlreadyInstalled reports that the host had this ref installed
	// before the request — installation is idempotent.
	AlreadyInstalled bool `json:"already_installed,omitempty"`
	// Workload echoes the optional ?workload= label the snapshot's warm
	// pool is registered under.
	Workload string `json:"workload,omitempty"`
}

// ErrorResponse is the error envelope every non-2xx response carries.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
