// Queue, registry and cancellation tests for the Workload API. These run
// with HostThreads 1 to keep kernel timing predictable for the
// cancellation deadlines — not for race avoidance: the guest memory model
// is race-clean at any HostThreads (the whole tree runs under -race in
// CI), and TestHostThreads4AllBenchmarksVerify covers the multi-core
// configuration.
package mobilesim_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mobilesim"
)

// queueTestConfig keeps GPU dispatch single-threaded (see file comment).
func queueTestConfig() mobilesim.Config {
	return mobilesim.Config{RAMSize: 64 << 20, HostThreads: 1, ShaderCores: 1}
}

// spinWorkload is a custom (test-registered) workload whose kernel runs
// long enough that cancellation must interrupt it mid-run: ~tens of
// seconds uncancelled on one host thread, versus a sub-second test.
type spinWorkload struct{}

const spinThreads = 256

const spinSrc = `
kernel void spin(global int* out, int iters) {
    int i = get_global_id(0);
    int acc = 0;
    for (int j = 0; j < iters; j++) {
        acc = acc + j;
    }
    out[i] = acc;
}
`

func (spinWorkload) Info() mobilesim.WorkloadInfo {
	return mobilesim.WorkloadInfo{
		Name: "test/spin", Kind: mobilesim.KindBenchmark,
		Description: "long-running kernel for cancellation tests",
	}
}

// spinStarted receives a token (dropped when one is already waiting) each
// time a spin run begins executing, so a test can cancel "mid-run" on the
// event rather than on a sleep that a loaded host outlasts.
var spinStarted = make(chan struct{}, 1)

func (spinWorkload) Execute(ctx context.Context, s *mobilesim.Session, opt *mobilesim.RunOptions) (*mobilesim.RunResult, error) {
	select {
	case spinStarted <- struct{}{}:
	default:
	}
	iters := 1 << 20
	if opt.Scale > 0 {
		iters = opt.Scale
	}
	k, err := s.LoadKernel(spinSrc, "spin")
	if err != nil {
		return nil, err
	}
	buf, err := s.NewBuffer(4 * spinThreads)
	if err != nil {
		return nil, err
	}
	if err := k.SetArgs(buf, iters); err != nil {
		return nil, err
	}
	if err := k.Launch(ctx, mobilesim.Dim1(spinThreads), mobilesim.Dim1(4)); err != nil {
		return nil, err
	}
	return &mobilesim.RunResult{Workload: "test/spin", Verified: true}, nil
}

var registerSpin = sync.OnceValue(func() error {
	return mobilesim.Register(spinWorkload{})
})

func newQueueTestSession(t *testing.T) *mobilesim.Session {
	t.Helper()
	if err := registerSpin(); err != nil {
		t.Fatal(err)
	}
	sess, err := mobilesim.New(queueTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// TestCancelMidKernel is the acceptance scenario: a context cancelled
// while a kernel is executing returns ctx.Err() within a bounded time
// (the clause-boundary soft-stop), and the session survives for a
// subsequent, verified run.
func TestCancelMidKernel(t *testing.T) {
	sess := newQueueTestSession(t)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()

	t0 := time.Now()
	_, err := sess.Run(ctx, "test/spin")
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// Uncancelled the spin takes tens of seconds; the soft-stop must land
	// promptly after the 50ms cancel even on a loaded CI machine.
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, want prompt clause-boundary stop", elapsed)
	}

	// The session must remain fully usable: run and verify a benchmark.
	res, err := sess.Run(context.Background(), "BinarySearch", mobilesim.WithScale(256))
	if err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
	if !res.Verified {
		t.Fatalf("post-cancellation run failed verification: %v", res.VerifyErr)
	}
}

// TestDeadlineMidKernel covers the timeout flavour of cancellation.
func TestDeadlineMidKernel(t *testing.T) {
	sess := newQueueTestSession(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := sess.Run(ctx, "test/spin"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
}

// TestSubmitInOrder checks the command queue's ordering contract: a later
// submission only runs after every earlier one completed.
func TestSubmitInOrder(t *testing.T) {
	sess := newQueueTestSession(t)
	ctx := context.Background()

	var pendings []*mobilesim.Pending
	for i := 0; i < 3; i++ {
		p, err := sess.Submit(ctx, "BinarySearch", mobilesim.WithScale(256))
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}

	last := pendings[len(pendings)-1]
	if res, err := last.Wait(); err != nil || !res.Verified {
		t.Fatalf("last submission: res %+v, err %v", res, err)
	}
	// In-order completion: once the last entry finished, every
	// predecessor must already be done.
	for i, p := range pendings[:len(pendings)-1] {
		select {
		case <-p.Done():
		default:
			t.Fatalf("submission %d not complete although a later one is", i)
		}
		if res, err := p.Wait(); err != nil || !res.Verified {
			t.Fatalf("submission %d: res %+v, err %v", i, res, err)
		}
	}

	// Per-run deltas are deterministic and identical across the three
	// identical runs; the cumulative session counters are their sum.
	r0, _ := pendings[0].Wait()
	r2, _ := pendings[2].Wait()
	if r0.Stats.GPU.TotalInstr() == 0 || r0.Stats.GPU.TotalInstr() != r2.Stats.GPU.TotalInstr() {
		t.Errorf("per-run GPU instruction deltas differ: %d vs %d",
			r0.Stats.GPU.TotalInstr(), r2.Stats.GPU.TotalInstr())
	}
}

// probeWorkload signals when its Execute actually starts, to observe
// queue ordering.
type probeWorkload struct{ started chan struct{} }

func (probeWorkload) Info() mobilesim.WorkloadInfo {
	return mobilesim.WorkloadInfo{Name: "test/probe", Kind: mobilesim.KindBenchmark}
}

func (p probeWorkload) Execute(ctx context.Context, s *mobilesim.Session, opt *mobilesim.RunOptions) (*mobilesim.RunResult, error) {
	close(p.started)
	return &mobilesim.RunResult{Verified: true}, nil
}

// TestCancelQueuedSubmission: cancelling a queued entry skips it without
// disturbing its predecessor, and without releasing its queue slot early
// — the successor must not overtake the still-running predecessor.
func TestCancelQueuedSubmission(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	spinCtx, stopSpin := context.WithCancel(bg)
	defer stopSpin()
	first, err := sess.Submit(spinCtx, "test/spin")
	if err != nil {
		t.Fatal(err)
	}

	queuedCtx, cancelQueued := context.WithCancel(bg)
	queued, err := sess.Submit(queuedCtx, "BinarySearch", mobilesim.WithScale(256))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	after, err := sess.SubmitWorkload(bg, probeWorkload{started: started})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued entry while the spin still runs: it must complete
	// promptly with the context error, without waiting for the spin.
	cancelQueued()
	if _, err := queued.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued entry returned %v, want context.Canceled", err)
	}
	// The cancellation must not have released the queue slot: the
	// successor stays queued behind the still-running spin.
	select {
	case <-started:
		t.Fatal("successor started while its predecessor was still running")
	case <-time.After(200 * time.Millisecond):
	}

	// Now stop the spin; the successor must still run normally.
	stopSpin()
	if _, err := first.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("spin returned %v, want context.Canceled", err)
	}
	if res, err := after.Wait(); err != nil || !res.Verified {
		t.Fatalf("successor: res %+v, err %v", res, err)
	}
	select {
	case <-started:
	default:
		t.Fatal("successor completed without executing")
	}
}

// TestCloseDrainsQueue: Close soft-stops the in-flight run, fails queued
// entries with ErrClosed, and leaves the session consistently closed.
func TestCloseDrainsQueue(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	running, err := sess.Submit(bg, "test/spin")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := sess.Submit(bg, "BinarySearch", mobilesim.WithScale(256))
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(20 * time.Millisecond) // let the spin start
	t0 := time.Now()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("Close took %v, want prompt mid-kernel stop", elapsed)
	}
	if _, err := running.Wait(); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("in-flight run returned %v, want ErrClosed", err)
	}
	if _, err := queued.Wait(); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("queued run returned %v, want ErrClosed", err)
	}
	if _, err := sess.Submit(bg, "BinarySearch"); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("Submit after Close returned %v, want ErrClosed", err)
	}
}

// TestWorkloadRegistryRoundTrip: every workload family's name space is
// resolvable through the unified registry.
func TestWorkloadRegistryRoundTrip(t *testing.T) {
	var names []string
	for _, b := range mobilesim.Benchmarks() {
		names = append(names, b.Name)
	}
	names = append(names, mobilesim.Experiments()...)
	for _, v := range mobilesim.SgemmVariants() {
		names = append(names, "sgemm6/"+strings.ToLower(v.Name))
	}
	names = append(names, "slam/standard", "slam/fast3", "slam/express")

	for _, name := range names {
		w, err := mobilesim.Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if got := w.Info().Name; got != name {
			t.Errorf("Lookup(%q).Info().Name = %q", name, got)
		}
	}

	// The listing covers the same namespace.
	listed := make(map[string]mobilesim.WorkloadKind)
	for _, info := range mobilesim.Workloads() {
		listed[info.Name] = info.Kind
	}
	for _, name := range names {
		if _, ok := listed[name]; !ok {
			t.Errorf("Workloads() missing %q", name)
		}
	}

	// Duplicate registration is rejected.
	if err := registerSpin(); err != nil {
		t.Fatal(err)
	}
	if err := mobilesim.Register(spinWorkload{}); err == nil {
		t.Error("duplicate Register succeeded")
	}
}

// TestRunStatsDelta: RunResult.Stats is the per-run delta, not the
// cumulative session snapshot (satellite fix), with the session scope
// still available via option and Session.Stats.
func TestRunStatsDelta(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	r1, err := sess.Run(bg, "BinarySearch", mobilesim.WithScale(256))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.Run(bg, "BinarySearch", mobilesim.WithScale(256))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.System.ComputeJobs != r2.Stats.System.ComputeJobs {
		t.Errorf("per-run job deltas differ: %d vs %d",
			r1.Stats.System.ComputeJobs, r2.Stats.System.ComputeJobs)
	}
	cum := sess.Stats()
	if want := r1.Stats.System.ComputeJobs + r2.Stats.System.ComputeJobs; cum.System.ComputeJobs != want {
		t.Errorf("cumulative jobs %d, want sum of deltas %d", cum.System.ComputeJobs, want)
	}
	if cum.GPU.TotalInstr() != r1.Stats.GPU.TotalInstr()+r2.Stats.GPU.TotalInstr() {
		t.Errorf("cumulative instructions %d != %d + %d",
			cum.GPU.TotalInstr(), r1.Stats.GPU.TotalInstr(), r2.Stats.GPU.TotalInstr())
	}

	// The session-cumulative record keeps growing by one delta per run.
	r3, err := sess.Run(bg, "BinarySearch", mobilesim.WithScale(256))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.Stats().System.ComputeJobs, cum.System.ComputeJobs+r3.Stats.System.ComputeJobs; got != want {
		t.Errorf("session jobs after a third run: %d, want cumulative %d", got, want)
	}
}

// TestPerRunCFG: WithCFG collects a divergence CFG for one run on a
// session created without Config.CollectCFG.
func TestPerRunCFG(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	res, err := sess.Run(bg, "BFS", mobilesim.WithScale(64), mobilesim.WithCFG())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.CFG, "->") {
		t.Errorf("per-run CFG missing edges:\n%s", res.CFG)
	}
	// Collection was per-run: the session-level CFG stays off.
	if cfg := sess.CFG(); cfg != "" {
		t.Errorf("session CFG unexpectedly collected:\n%s", cfg)
	}
	plain, err := sess.Run(bg, "BFS", mobilesim.WithScale(64))
	if err != nil {
		t.Fatal(err)
	}
	if plain.CFG != "" {
		t.Error("CFG collected without WithCFG")
	}
}

// TestUnifiedKinds: one session runs a benchmark, a SLAM preset, a
// sgemm-ladder variant and an experiment through the same entry point.
func TestUnifiedKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workload kinds")
	}
	sess := newQueueTestSession(t)
	bg := context.Background()

	bench, err := sess.Run(bg, "BinarySearch", mobilesim.WithScale(256))
	if err != nil || !bench.Verified {
		t.Fatalf("benchmark: %+v, %v", bench, err)
	}
	if bench.Kind != mobilesim.KindBenchmark {
		t.Errorf("benchmark kind %q", bench.Kind)
	}

	slamRes, err := sess.Run(bg, "slam/express")
	if err != nil {
		t.Fatalf("slam: %v", err)
	}
	if slamRes.Kind != mobilesim.KindSLAM || slamRes.SLAM == nil || slamRes.SLAM.KernelsRun == 0 {
		t.Errorf("slam result: %+v", slamRes)
	}

	sgemmRes, err := sess.Run(bg, "sgemm6/naive", mobilesim.WithScale(1))
	if err != nil || !sgemmRes.Verified {
		t.Fatalf("sgemm: %+v, %v", sgemmRes, err)
	}

	expRes, err := sess.Run(bg, "table2")
	if err != nil {
		t.Fatalf("experiment: %v", err)
	}
	if expRes.Kind != mobilesim.KindExperiment || expRes.Output == "" {
		t.Errorf("experiment result lacks output: %+v", expRes)
	}
}

// TestBatchMidRunCancellation: cancelling a batch interrupts the running
// job (soft-stop) and marks it Interrupted, distinct from Skipped.
func TestBatchMidRunCancellation(t *testing.T) {
	if err := registerSpin(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	batch := &mobilesim.Batch{
		Jobs: []mobilesim.BatchJob{
			{Benchmark: "test/spin"},
			{Benchmark: "BinarySearch", Scale: 256},
		},
		Workers: 1, // force the second job to queue behind the spin
		Config:  queueTestConfig(),
	}
	select {
	case <-spinStarted: // a token left by an earlier test's spin
	default:
	}
	go func() {
		// The batch boots, snapshots and forks before job 0 runs: wait
		// for the run itself, then let it get into the kernel.
		select {
		case <-spinStarted:
			time.Sleep(50 * time.Millisecond)
			cancel()
		case <-ctx.Done(): // the batch failed before running anything
		}
	}()
	res, err := batch.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch returned %v, want context.Canceled", err)
	}
	if res.Interrupted != 1 {
		t.Errorf("Interrupted = %d, want 1 (jobs: %+v)", res.Interrupted, res.Jobs)
	}
	if !res.Jobs[0].Interrupted || !errors.Is(res.Jobs[0].Err, context.Canceled) {
		t.Errorf("job 0 not marked interrupted: %+v", res.Jobs[0])
	}
	if res.Skipped != 1 || res.Jobs[1].Interrupted {
		t.Errorf("job 1 should be skipped, not interrupted: %+v (skipped %d)",
			res.Jobs[1], res.Skipped)
	}
}
