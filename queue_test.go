// Run-exclusion, registry and cancellation tests for the Workload API. These run
// with HostThreads 1 to keep kernel timing predictable for the
// cancellation deadlines — not for race avoidance: the guest memory model
// is race-clean at any HostThreads (the whole tree runs under -race in
// CI), and TestHostThreads4AllBenchmarksVerify covers the multi-core
// configuration.
package mobilesim_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobilesim"
	"mobilesim/internal/workloads"
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

// startSpin runs w — spinWorkload or a wrapper of it — on sess from its own
// goroutine and returns once the spin is executing; the channel delivers
// the run's error.
func startSpin(t *testing.T, ctx context.Context, sess *mobilesim.Session, w mobilesim.Workload) <-chan error {
	t.Helper()
	select {
	case <-spinStarted: // a token left by an earlier test's spin
	default:
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.RunWorkload(ctx, w)
		done <- err
	}()
	select {
	case <-spinStarted:
	case err := <-done:
		t.Fatalf("spin returned %v before executing", err)
	}
	return done
}

// launchesWorkload is built on the facade's device primitives, each of
// which locks the session for one call only: nothing but the run slot
// keeps two of its runs from interleaving launch by launch. (The
// registered benchmarks hold the session lock across their whole Execute.)
type launchesWorkload struct{}

const launchesPerRun = 8

func (launchesWorkload) Info() mobilesim.WorkloadInfo {
	return mobilesim.WorkloadInfo{Name: "test/launches", Kind: mobilesim.KindBenchmark}
}

func (launchesWorkload) Execute(ctx context.Context, s *mobilesim.Session, opt *mobilesim.RunOptions) (*mobilesim.RunResult, error) {
	const iters = 16
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
	for i := 0; i < launchesPerRun; i++ {
		if err := k.Launch(ctx, mobilesim.Dim1(spinThreads), mobilesim.Dim1(4)); err != nil {
			return nil, err
		}
		// Let a run that could interleave here do so, on one processor too.
		runtime.Gosched()
	}
	out, err := buf.Read(ctx, 4*spinThreads)
	if err != nil {
		return nil, err
	}
	res := &mobilesim.RunResult{Verified: true}
	for i := 0; i < spinThreads; i++ {
		if got := binary.LittleEndian.Uint32(out[4*i:]); got != iters*(iters-1)/2 {
			res.Verified = false
			res.VerifyErr = fmt.Errorf("out[%d] = %d, want %d", i, got, iters*(iters-1)/2)
			break
		}
	}
	return res, nil
}

// TestConcurrentRunsGetExactDeltas pins what the run slot is for: whole
// runs on one session exclude each other, so under concurrent callers
// every RunResult.Stats is exactly one run's counters — equal to the
// delta of a run that had the session to itself — and the deltas add up
// to what the session has counted since boot. Without the slot the
// launches of concurrent runs interleave and the snapshot-diffs count
// each other's jobs.
func TestConcurrentRunsGetExactDeltas(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	sum := sess.Stats() // what booting counted
	alone, err := sess.RunWorkload(bg, launchesWorkload{})
	if err != nil || !alone.Verified {
		t.Fatalf("single run: res %+v, err %v", alone, err)
	}
	if got := alone.Stats.System.ComputeJobs; got != launchesPerRun {
		t.Fatalf("single run counted %d compute jobs, want %d", got, launchesPerRun)
	}

	// Entry 0 is the run alone; the rest race for the session.
	const callers = 4
	results := make([]*mobilesim.RunResult, 1+callers)
	errs := make([]error, len(results))
	results[0] = alone
	var wg sync.WaitGroup
	for i := 1; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = sess.RunWorkload(bg, launchesWorkload{})
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if errs[i] != nil || !res.Verified {
			t.Fatalf("caller %d: res %+v, err %v", i, res, errs[i])
		}
		if res.Stats.GPU != alone.Stats.GPU || res.Stats.System != alone.Stats.System ||
			res.Stats.GuestInstructions != alone.Stats.GuestInstructions {
			t.Errorf("caller %d: per-run delta differs from a run alone on the session:\n got  %+v\n want %+v",
				i, res.Stats, alone.Stats)
		}
		sum.GPU.Merge(&res.Stats.GPU)
		sum.System.Merge(&res.Stats.System)
		sum.GuestInstructions += res.Stats.GuestInstructions
	}
	cum := sess.Stats()
	if cum.GPU != sum.GPU || cum.System != sum.System || cum.GuestInstructions != sum.GuestInstructions {
		t.Errorf("session record is not the sum of the per-run deltas:\n got  %+v\n want %+v", cum, sum)
	}
}

// probeWorkload signals when its Execute actually starts, then runs the
// workload it wraps, if any.
type probeWorkload struct {
	started chan struct{}
	then    mobilesim.Workload
}

func (probeWorkload) Info() mobilesim.WorkloadInfo {
	return mobilesim.WorkloadInfo{Name: "test/probe", Kind: mobilesim.KindBenchmark}
}

func (p probeWorkload) Execute(ctx context.Context, s *mobilesim.Session, opt *mobilesim.RunOptions) (*mobilesim.RunResult, error) {
	close(p.started)
	if p.then != nil {
		return p.then.Execute(ctx, s, opt)
	}
	return &mobilesim.RunResult{Verified: true}, nil
}

// TestCancelWhileWaitingForSession: a caller whose context ends while
// another run holds the session returns promptly with the context error,
// without its workload ever starting and without disturbing the run in
// flight; the session stays usable.
func TestCancelWhileWaitingForSession(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	spinCtx, stopSpin := context.WithCancel(bg)
	defer stopSpin()
	spinDone := startSpin(t, spinCtx, sess, spinWorkload{})

	waitCtx, cancelWait := context.WithCancel(bg)
	// Whether the cancel lands before the call or while it waits, the
	// outcome must be the same.
	time.AfterFunc(20*time.Millisecond, cancelWait)
	started := make(chan struct{})
	t0 := time.Now()
	res, err := sess.RunWorkload(waitCtx, probeWorkload{started: started})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("waiting call returned (%+v, %v), want (nil, context.Canceled)", res, err)
	}
	// Uncancelled the spin holds the session for tens of seconds.
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("waiting call took %v to give up", elapsed)
	}
	select {
	case <-started:
		t.Fatal("the cancelled call's workload executed")
	case err := <-spinDone:
		t.Fatalf("the run in flight was disturbed: returned %v", err)
	default:
	}

	stopSpin()
	if err := <-spinDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("spin returned %v, want context.Canceled", err)
	}
	if res, err := sess.Run(bg, "BinarySearch", mobilesim.WithScale(256)); err != nil || !res.Verified {
		t.Fatalf("run after the cancellations: res %+v, err %v", res, err)
	}
}

// lingerWorkload spins until it is soft-stopped, then stays in Execute a
// little longer and records whether Close returned meanwhile — which
// would mean the platform was torn down under a run still holding it.
type lingerWorkload struct {
	closeReturned <-chan struct{}
	tornDown      *atomic.Bool
}

func (lingerWorkload) Info() mobilesim.WorkloadInfo {
	return mobilesim.WorkloadInfo{Name: "test/linger", Kind: mobilesim.KindBenchmark}
}

func (w lingerWorkload) Execute(ctx context.Context, s *mobilesim.Session, opt *mobilesim.RunOptions) (*mobilesim.RunResult, error) {
	res, err := spinWorkload{}.Execute(ctx, s, opt)
	select {
	case <-w.closeReturned:
		w.tornDown.Store(true)
	case <-time.After(50 * time.Millisecond):
	}
	return res, err
}

// TestCloseStopsRunAndWaiters: Close soft-stops the run in flight at a
// clause boundary, waits for it to let go of the platform before tearing
// down, and fails it, the callers waiting behind it and every later call
// with ErrClosed.
func TestCloseStopsRunAndWaiters(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	closeReturned := make(chan struct{})
	var tornDown atomic.Bool
	running := startSpin(t, bg, sess, lingerWorkload{closeReturned: closeReturned, tornDown: &tornDown})
	// Waiting already or not yet called when Close lands: ErrClosed both ways.
	waiting := make(chan error, 1)
	go func() {
		_, err := sess.Run(bg, "BinarySearch", mobilesim.WithScale(256))
		waiting <- err
	}()

	t0 := time.Now()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	close(closeReturned)
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("Close took %v, want prompt mid-kernel stop", elapsed)
	}
	if err := <-running; !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("run in flight returned %v, want ErrClosed", err)
	}
	if tornDown.Load() {
		t.Error("Close returned while the run in flight was still executing")
	}
	if err := <-waiting; !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("waiting run returned %v, want ErrClosed", err)
	}
	if _, err := sess.Run(bg, "BinarySearch"); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("Run after Close returned %v, want ErrClosed", err)
	}
	if _, err := sess.Snapshot(); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("Snapshot after Close returned %v, want ErrClosed", err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("second Close returned %v", err)
	}
}

// TestWorkloadRegistryRoundTrip: every workload family's name space is
// resolvable through the unified registry.
func TestWorkloadRegistryRoundTrip(t *testing.T) {
	var names []string
	for _, b := range mobilesim.Benchmarks() {
		names = append(names, b.Name)
	}
	for _, v := range mobilesim.SgemmVariants() {
		names = append(names, v.WorkloadName())
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

	// The paper's tables and figures boot their own platforms: they are
	// cmd/experiments', not workloads a session runs.
	for _, name := range []string{"fig7", "table2"} {
		if _, err := mobilesim.Lookup(name); err == nil {
			t.Errorf("Lookup(%q) resolved a paper experiment", name)
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

// TestWorkloadsListTheSpecs: the facade registry is the workloads
// package's — every Spec of all three kinds is listed with its metadata,
// and the only other entries are workloads the tests register themselves.
func TestWorkloadsListTheSpecs(t *testing.T) {
	listed := make(map[string]mobilesim.WorkloadInfo)
	for _, info := range mobilesim.Workloads() {
		listed[info.Name] = info
	}
	perKind := make(map[mobilesim.WorkloadKind]int)
	for _, s := range workloads.All() {
		perKind[s.Kind]++
		want := mobilesim.WorkloadInfo{
			Name: s.Name, Kind: s.Kind, Suite: s.Suite, Description: s.Description,
			SmallScale: s.SmallScale, DefaultScale: s.DefaultScale, PaperScale: s.PaperScale,
		}
		if got, ok := listed[s.Name]; !ok {
			t.Errorf("Workloads() misses %q", s.Name)
		} else if got != want {
			t.Errorf("Workloads() lists %+v, the Spec says %+v", got, want)
		}
		delete(listed, s.Name)
	}
	for name := range listed {
		if !strings.HasPrefix(name, "test/") && !strings.HasPrefix(name, "bench/") {
			t.Errorf("Workloads() lists %q, which is no Spec", name)
		}
	}
	wantKinds := map[mobilesim.WorkloadKind]int{
		mobilesim.KindBenchmark: len(mobilesim.Benchmarks()),
		mobilesim.KindSLAM:      3,
		mobilesim.KindSgemm:     len(mobilesim.SgemmVariants()),
	}
	for k, n := range wantKinds {
		if n == 0 || perKind[k] != n {
			t.Errorf("%d %s Specs registered, want %d", perKind[k], k, n)
		}
	}
}

// TestSpecSimErrorNamesTheWorkload: a SLAM preset interrupted mid-run
// fails like a Table II benchmark does — "<name>: sim: …" — and the
// context error still matches through the prefix.
func TestSpecSimErrorNamesTheWorkload(t *testing.T) {
	sess := newQueueTestSession(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := sess.Run(ctx, "slam/standard", mobilesim.WithScale(2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("interrupted run returned %v, want a deadline error", err)
	}
	if !strings.HasPrefix(err.Error(), "slam/standard: sim: ") {
		t.Errorf("error %q does not name the workload", err)
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

// TestPerRunCFG: WithCFG collects the divergence CFG of exactly one run.
// A run without it collects nothing, and a second WithCFG run on the same
// session renders the same graph as the first, not the two runs' union.
func TestPerRunCFG(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	first, err := sess.Run(bg, "BFS", mobilesim.WithScale(64), mobilesim.WithCFG())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.CFG, "->") {
		t.Errorf("per-run CFG missing edges:\n%s", first.CFG)
	}
	plain, err := sess.Run(bg, "BFS", mobilesim.WithScale(64))
	if err != nil {
		t.Fatal(err)
	}
	if plain.CFG != "" {
		t.Error("CFG collected without WithCFG")
	}
	second, err := sess.Run(bg, "BFS", mobilesim.WithScale(64), mobilesim.WithCFG())
	if err != nil {
		t.Fatal(err)
	}
	if second.CFG != first.CFG {
		t.Errorf("a second WithCFG run's graph differs from the first's: not per run\nfirst:\n%s\nsecond:\n%s", first.CFG, second.CFG)
	}
}

// TestUnifiedKinds: one session runs a benchmark, a SLAM preset and a
// sgemm-ladder variant through the same entry point.
func TestUnifiedKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workload kinds")
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
	if sgemmRes.Kind != mobilesim.KindSgemm {
		t.Errorf("sgemm kind %q", sgemmRes.Kind)
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
		// The batch boots a session before job 0 runs: wait for the run
		// itself, then let it get into the kernel.
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
