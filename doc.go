// Package mobilesim is a full-system functional simulator for a mobile
// CPU/GPU platform, reproducing "Full-System Simulation of Mobile CPU/GPU
// Platforms" (Kaszyk et al., ISPASS 2019) as a self-contained Go library.
//
// The simulated system couples a VA64 (Arm-flavoured) CPU with DBT-based
// execution, a Bifrost-style clause-ISA GPU with a Job Manager and full
// GPU MMU, an interrupt controller, a kbase-style kernel driver, an
// OpenCL-like runtime and a JIT kernel compiler — so unmodified "guest"
// compute workloads run through the same hardware/software contract as on
// a physical Mali-G71 device.
//
// # Sessions
//
// A Session is one booted guest: platform, driver and OpenCL-like
// context. Load kernels, create buffers and launch NDRanges through it:
//
//	sess, err := mobilesim.New(mobilesim.Config{})
//	defer sess.Close()
//	k, err := sess.LoadKernel(src, "axpb")
//	err = k.SetArgs(bufX, bufY, float32(2), float32(1), n)
//	err = k.Launch(ctx, mobilesim.Dim1(n), mobilesim.Dim1(64))
//	st := sess.Stats()
//
// # Workloads
//
// Everything a session can run — the Table II benchmark suite, the
// SLAMBench pipeline presets and the SGEMM tuning ladder — is a named
// workload (Workloads lists them, Lookup describes one) and runs through
// one entry point:
//
//	res, err := sess.Run(ctx, "BFS", mobilesim.WithScale(2048))
//	res, err := sess.Run(ctx, "slam/standard")
//
// The paper's tables and figures are not workloads: each boots the
// platforms it measures, and cmd/experiments prints them.
//
// Functional options select scale, per-run CFG collection and
// verification. RunResult.Stats is the per-run delta (the session
// snapshot diffed around the run); Session.Stats stays cumulative. Work
// of your own runs on the primitives above; diff Session.Stats around it
// for its delta. A session has one lock, which a run holds from start to
// end and each primitive for its one call: concurrent calls on one
// session execute one at a time, in no promised order, so every delta is
// exact; independent sessions scale.
//
// # Cancellation
//
// Run honours context cancellation mid-kernel: the driver soft-stops the
// GPU through the job-slot command register and the shader cores quiesce
// at the next clause boundary — the same granularity the hardware
// schedules at — so Run returns ctx.Err() promptly and the Session remains
// usable for subsequent runs. A call cancelled while it waits for another
// run to finish returns without disturbing that run. Close soft-stops the
// run in flight the same way and fails it, and every waiting or later
// call, with ErrClosed.
//
// # Snapshots and forking
//
// A booted Session can be captured once and forked many times: Snapshot
// serialises the platform state (guest RAM, MMU, CPU, GPU, driver,
// runtime) into an immutable image, and New with FromSnapshot builds a
// ready-to-run session from it in microseconds — the fork copies the
// image's content pages (one, for a boot) and no boot code re-runs:
//
//	snap, err := sess.Snapshot()
//	fork, err := mobilesim.New(mobilesim.Config{}, mobilesim.FromSnapshot(snap))
//
// Restored sessions reproduce cold-boot statistics bit for bit.
// Snapshots persist via Encode/ReadSnapshot (a versioned, deterministic
// wire format), and SessionPool keeps a fixed number of warm forks ready
// for serving layers (cmd/mobilesimd exposes the pool over HTTP). A boot
// is itself tens of microseconds (BenchmarkColdBoot), so a snapshot is
// the tool for carrying a Config or warmed state to another host and for
// forking a session that holds large buffers, not for saving boot time.
//
// # Batches
//
// A Batch runs N independent simulations across a bounded worker pool —
// nothing mutable shared between jobs — and merges their statistics.
// Every local job boots its own session; a cluster batch (Batch.Hosts)
// ships one snapshot of the batch Config to its hosts. Every job runs
// under the batch context, so batch cancellation interrupts the executing
// job mid-run (reported as Interrupted) rather than waiting for it to
// finish:
//
//	batch := &mobilesim.Batch{Jobs: jobs, Workers: 4}
//	res, err := batch.Run(ctx)
//
// # Documentation
//
// See README.md for the architecture overview, quickstart and the
// legacy-API migration table, DESIGN.md for the system inventory and
// design-decision index, and EXPERIMENTS.md for how each table and
// figure of the paper's evaluation is regenerated. The bench_test.go
// harness regenerates every experiment as a testing.B benchmark;
// cmd/experiments prints them.
package mobilesim
