// Command mobilesimd serves the simulator over HTTP: it boots one
// platform, captures a warm snapshot, and executes registered workloads
// on sessions forked from it, drawn from fixed-size warm pools — so
// each request gets a private, fully booted guest with the configuration
// (or warmed state) of whoever captured the snapshot, in tens of
// microseconds. It is also the per-host executor of the cluster protocol
// (DESIGN.md §11): a coordinator (Batch.Hosts, or mobilesim -hosts)
// installs snapshots and fans jobs out over many mobilesimd processes.
//
// Usage:
//
//	mobilesimd [-addr :8900] [-pool N] [-ram MiB] [-cores N] [-threads N] [-compiler VER]
//
// Endpoints:
//
//	GET  /healthz          — liveness + pool state
//	GET  /api/v1/workloads — the workload registry, one mobilesim.WorkloadInfo
//	                         per entry
//	POST /api/v1/snapshot  — install an encoded snapshot into a warm pool;
//	                         answers {"ref": "sha256:…"}, its content
//	                         address, and re-posting the same bytes
//	                         answers the same ref and installs nothing new
//	POST /api/v1/run       — run one workload, e.g.
//	                         {"workload": "BFS", "scale": 4}; optional
//	                         "snapshot" ref, "idempotency_key", "verify"
//	                         and "timeout_ms"
//	GET  /api/v1/stats     — server counters: pool hits/inline forks,
//	                         per-workload run counts, dedup hits, latency
//	                         percentiles
//	GET  /metrics          — the same counters and latency summaries in
//	                         Prometheus text exposition format
//
// A run executes on its own single-use fork under the request's
// context: closing the connection (or exceeding timeout_ms) soft-stops
// the kernel at a clause boundary and the fork is discarded. Responses
// carry the per-run statistics delta as JSON. The serving logic lives in
// internal/hostd; this wrapper only parses flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"mobilesim"
	"mobilesim/internal/hostd"
)

func main() {
	addr := flag.String("addr", ":8900", "HTTP listen address")
	pool := flag.Int("pool", 4, "warm forked sessions kept ready per pool")
	ram := flag.Int("ram", 512, "guest RAM in MiB")
	cores := flag.Int("cores", 8, "simulated shader cores")
	threads := flag.Int("threads", 0, "GPU simulation host threads, at most -cores (0 = one per core)")
	compiler := flag.String("compiler", "", "JIT compiler version (5.6..6.2, default 6.1)")
	maxSnaps := flag.Int("max-snapshots", 8, "installed snapshots kept before FIFO eviction")
	flag.Parse()

	cfg := hostd.Config{
		Sim: mobilesim.Config{
			RAMSize:         uint64(*ram) << 20,
			ShaderCores:     *cores,
			HostThreads:     *threads,
			CompilerVersion: *compiler,
		},
		PoolSize:     *pool,
		MaxSnapshots: *maxSnaps,
	}
	srv, err := hostd.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mobilesimd:", err)
		os.Exit(1)
	}
	defer srv.Close()

	hs := &http.Server{Addr: *addr, Handler: srv.Mux()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		sd, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(sd)
	}()

	log.Printf("mobilesimd: serving on %s (pool %d, %d MiB guests, %d SCs)", *addr, *pool, *ram, *cores)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mobilesimd:", err)
		os.Exit(1)
	}
}
