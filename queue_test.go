// Session-lock, registry and cancellation tests for Session.Run. These run
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
	"sync/atomic"
	"testing"
	"time"

	"mobilesim"
	"mobilesim/internal/cl"
	"mobilesim/internal/workloads"
)

// queueTestConfig keeps GPU dispatch single-threaded (see file comment).
func queueTestConfig() mobilesim.Config {
	return mobilesim.Config{RAMSize: 64 << 20, HostThreads: 1, ShaderCores: 1}
}

// The spin is a registered run that lasts long enough that cancellation
// must interrupt it mid-run: clBLAS-SGEMM at its paper scale takes
// seconds on queueTestConfig's one shader core, against a sub-second test.
const (
	spinName  = "clBLAS-SGEMM"
	spinScale = 1024
)

// bitonicJobs is how many kernels BitonicSort launches at its small scale.
const bitonicJobs = 36

// sumSrc is a kernel for direct Launch calls.
const sumSrc = `
kernel void sum(global int* out, int iters) {
    int i = get_global_id(0);
    int acc = 0;
    for (int j = 0; j < iters; j++) {
        acc = acc + j;
    }
    out[i] = acc;
}
`

func newQueueTestSession(t *testing.T) *mobilesim.Session {
	t.Helper()
	sess, err := mobilesim.New(queueTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func specNamed(t *testing.T, name string) *workloads.Spec {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// hooked copies the named Spec with hook around its simulation: hook runs
// when a run of the copy begins simulating, and sim runs the Spec's own.
func hooked(t *testing.T, name string, hook func(ctx context.Context, sim func() (any, error)) (any, error)) *workloads.Spec {
	t.Helper()
	spec := specNamed(t, name)
	h := *spec
	h.Make = func(scale int) *workloads.Instance {
		inst := *spec.Make(scale)
		inner := inst.Sim
		inst.Sim = func(ctx context.Context, c *cl.Context) (any, error) {
			return hook(ctx, func() (any, error) { return inner(ctx, c) })
		}
		return &inst
	}
	return &h
}

// probe is the named Spec closing started as a run of it begins.
func probe(t *testing.T, name string, started chan<- struct{}) *workloads.Spec {
	t.Helper()
	return hooked(t, name, func(_ context.Context, sim func() (any, error)) (any, error) {
		close(started)
		return sim()
	})
}

// TestCancelMidKernel is the acceptance scenario: a context cancelled
// while a run is executing returns ctx.Err() within a bounded time
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
	_, err := sess.Run(ctx, spinName, mobilesim.WithScale(spinScale))
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// Uncancelled the spin takes seconds; the soft-stop must land promptly
	// after the 50ms cancel even on a loaded CI machine.
	if elapsed > 5*time.Second {
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
	if _, err := sess.Run(ctx, spinName, mobilesim.WithScale(spinScale)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run returned %v, want context.DeadlineExceeded", err)
	}
}

// startSpin runs the spin on sess from its own goroutine and returns once
// it is executing; after, if set, runs once the spin's simulation has
// returned, still inside the run. The channel delivers the run's error.
func startSpin(t *testing.T, ctx context.Context, sess *mobilesim.Session, after func()) <-chan error {
	t.Helper()
	started := make(chan struct{})
	spin := hooked(t, spinName, func(_ context.Context, sim func() (any, error)) (any, error) {
		close(started)
		out, err := sim()
		if after != nil {
			after()
		}
		return out, err
	})
	done := make(chan error, 1)
	go func() {
		_, err := sess.RunSpec(ctx, spin, mobilesim.WithScale(spinScale))
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("spin returned %v before executing", err)
	}
	return done
}

// sameDelta reports whether two per-run deltas count the same work.
// DriverCPUTime is host wall time and is left out.
func sameDelta(a, b mobilesim.Stats) bool {
	return a.GPU == b.GPU && a.System == b.System && a.GuestInstructions == b.GuestInstructions
}

// TestConcurrentRunsGetExactDeltas pins what the session lock is for:
// whole runs on one session exclude each other, so under concurrent
// callers every RunResult.Stats is exactly one run's counters — equal to
// the delta of a run that had the session to itself — and the deltas add
// up to what the session has counted since boot. BitonicSort is 36
// launches, so runs that interleaved would count each other's jobs.
func TestConcurrentRunsGetExactDeltas(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()
	scale := specNamed(t, "BitonicSort").SmallScale

	sum := sess.Stats() // what booting counted
	alone, err := sess.Run(bg, "BitonicSort", mobilesim.WithScale(scale))
	if err != nil || !alone.Verified {
		t.Fatalf("single run: res %+v, err %v", alone, err)
	}
	if got := alone.Stats.System.ComputeJobs; got != bitonicJobs {
		t.Fatalf("single run counted %d compute jobs, want %d", got, bitonicJobs)
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
			results[i], errs[i] = sess.Run(bg, "BitonicSort", mobilesim.WithScale(scale))
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if errs[i] != nil || !res.Verified {
			t.Fatalf("caller %d: res %+v, err %v", i, res, errs[i])
		}
		if !sameDelta(res.Stats, alone.Stats) {
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

// TestLaunchWaitsForRun: a device primitive called from another goroutine
// during a run takes the lock the run holds, so it returns only after the
// run does, and its counters stay out of the run's delta. The run parks
// before simulating to give a Launch that skipped the lock time to land
// inside it.
func TestLaunchWaitsForRun(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()
	scale := specNamed(t, "BitonicSort").SmallScale

	k, err := sess.LoadKernel(sumSrc, "sum")
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sess.NewBuffer(4 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgs(buf, 1); err != nil {
		t.Fatal(err)
	}
	alone, err := sess.Run(bg, "BitonicSort", mobilesim.WithScale(scale))
	if err != nil {
		t.Fatal(err)
	}

	started, launched := make(chan struct{}), make(chan struct{})
	var launchedMidRun bool
	spec := hooked(t, "BitonicSort", func(_ context.Context, sim func() (any, error)) (any, error) {
		close(started)
		select {
		case <-launched:
		case <-time.After(100 * time.Millisecond):
		}
		out, err := sim()
		select {
		case <-launched:
			launchedMidRun = true
		default:
		}
		return out, err
	})
	type outcome struct {
		res *mobilesim.RunResult
		err error
	}
	ran := make(chan outcome, 1)
	go func() {
		res, err := sess.RunSpec(bg, spec, mobilesim.WithScale(scale))
		ran <- outcome{res, err}
	}()
	<-started
	var launchErr error
	go func() {
		launchErr = k.Launch(bg, mobilesim.Dim1(4), mobilesim.Dim1(4))
		close(launched)
	}()

	run := <-ran
	<-launched
	if run.err != nil || launchErr != nil {
		t.Fatalf("run: %v; launch: %v", run.err, launchErr)
	}
	if launchedMidRun {
		t.Error("Launch returned while the run still held the session")
	}
	if !sameDelta(run.res.Stats, alone.Stats) {
		t.Errorf("the run's delta counts the concurrent Launch:\n got  %+v\n want %+v", run.res.Stats, alone.Stats)
	}
}

// TestCancelWhileWaitingForSession: a caller whose context ends while
// another run holds the session returns promptly with the context error,
// without its run ever starting and without disturbing the run in
// flight; the session stays usable.
func TestCancelWhileWaitingForSession(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	spinCtx, stopSpin := context.WithCancel(bg)
	defer stopSpin()
	spinDone := startSpin(t, spinCtx, sess, nil)

	waitCtx, cancelWait := context.WithCancel(bg)
	// Whether the cancel lands before the call or while it waits, the
	// outcome must be the same.
	time.AfterFunc(20*time.Millisecond, cancelWait)
	started := make(chan struct{})
	t0 := time.Now()
	res, err := sess.RunSpec(waitCtx, probe(t, "BinarySearch", started), mobilesim.WithScale(256))
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("waiting call returned (%+v, %v), want (nil, context.Canceled)", res, err)
	}
	// Uncancelled the spin holds the session for seconds.
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("waiting call took %v to give up", elapsed)
	}
	select {
	case <-started:
		t.Fatal("the cancelled call's run executed")
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

// TestCloseStopsRunAndWaiters: Close soft-stops the run in flight at a
// clause boundary, waits for it to let go of the platform before tearing
// down, and fails it, the callers waiting behind it and every later call
// with ErrClosed. The spin stays in its run a little after it is stopped
// and records whether Close returned meanwhile — which would mean the
// platform was torn down under a run still holding it.
func TestCloseStopsRunAndWaiters(t *testing.T) {
	sess := newQueueTestSession(t)
	bg := context.Background()

	closeReturned := make(chan struct{})
	var tornDown atomic.Bool
	running := startSpin(t, bg, sess, func() {
		select {
		case <-closeReturned:
			tornDown.Store(true)
		case <-time.After(50 * time.Millisecond):
		}
	})
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
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
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
	if _, err := sess.NewBuffer(16); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("NewBuffer after Close returned %v, want ErrClosed", err)
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
		info, err := mobilesim.Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if info.Name != name {
			t.Errorf("Lookup(%q).Name = %q", name, info.Name)
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
}

// TestWorkloadsListTheSpecs: the facade lists the workloads package's
// Specs — every Spec of all three kinds with its metadata, and nothing
// else.
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
		t.Errorf("Workloads() lists %q, which is no Spec", name)
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	batch := &mobilesim.Batch{
		Jobs: []mobilesim.BatchJob{
			{Benchmark: spinName, Scale: spinScale},
			{Benchmark: "BinarySearch", Scale: 256},
		},
		Workers: 1, // force the second job to queue behind the spin
		Config:  queueTestConfig(),
	}
	// The batch boots job 0's session in well under this delay, and the
	// spin then runs for seconds.
	time.AfterFunc(200*time.Millisecond, cancel)
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
