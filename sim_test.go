// Facade tests: single-session runs, the 8-way concurrent Batch, and the
// failure paths (bad Config, JIT errors, use-after-Close, cancellation).
package mobilesim_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mobilesim"
)

const axpbSrc = `
kernel void axpb(global float* x, global float* y, float a, float b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + b;
    }
}
`

// smallScale looks up a benchmark's test-sized input scale.
func smallScale(t *testing.T, name string) int {
	t.Helper()
	for _, b := range mobilesim.Benchmarks() {
		if b.Name == name {
			return b.SmallScale
		}
	}
	t.Fatalf("benchmark %q not registered", name)
	return 0
}

func TestSessionKernelRoundTrip(t *testing.T) {
	sess, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	const n = 256
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
	}
	bx, err := sess.NewBuffer(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	by, err := sess.NewBuffer(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	if err := bx.WriteF32(nil, xs); err != nil {
		t.Fatal(err)
	}
	k, err := sess.LoadKernel(axpbSrc, "axpb")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgs(bx, by, float32(3.0), float32(1.0), n); err != nil {
		t.Fatal(err)
	}
	if err := k.Launch(bg, mobilesim.Dim1(n), mobilesim.Dim1(64)); err != nil {
		t.Fatal(err)
	}
	ys, err := by.ReadF32(nil, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ys {
		want := 3.0*xs[i] + 1.0
		if ys[i] != want {
			t.Fatalf("y[%d] = %g, want %g", i, ys[i], want)
		}
	}

	st := sess.Stats()
	if st.GPU.TotalInstr() == 0 || st.GPU.Threads != n {
		t.Errorf("GPU stats: instr %d, threads %d (want %d)", st.GPU.TotalInstr(), st.GPU.Threads, n)
	}
	if st.System.ComputeJobs != 1 || st.System.IRQsAsserted == 0 {
		t.Errorf("system stats: jobs %d, IRQs %d", st.System.ComputeJobs, st.System.IRQsAsserted)
	}
	if st.GuestInstructions == 0 {
		t.Error("driver executed no guest instructions")
	}
}

func TestSessionRunBenchmark(t *testing.T) {
	sess, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	res, err := sess.Run(bg, "BinarySearch", mobilesim.WithScale(smallScale(t, "BinarySearch")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("verification failed: %v", res.VerifyErr)
	}
	if res.Stats.GPU.TotalInstr() == 0 || res.Stats.System.ComputeJobs == 0 {
		t.Errorf("empty stats: instr %d, jobs %d",
			res.Stats.GPU.TotalInstr(), res.Stats.System.ComputeJobs)
	}
}

func TestSessionRunUnknownBenchmark(t *testing.T) {
	sess, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	err = nil
	_, err = sess.Run(bg, "NoSuchBenchmark")
	if err == nil {
		t.Fatal("expected error for unknown workload")
	}
	// The error must be actionable: it lists the registry (satellite:
	// mirror Config.validate's compiler-version error).
	if !strings.Contains(err.Error(), "BinarySearch") {
		t.Errorf("unknown-workload error does not list names: %v", err)
	}
	// A near-miss also gets a nearest-match suggestion.
	_, err = sess.Run(bg, "binarysearch")
	if err == nil || !strings.Contains(err.Error(), `did you mean "BinarySearch"`) {
		t.Errorf("near-miss error lacks suggestion: %v", err)
	}
}

// TestBatch8Way is the acceptance scenario: eight independent sessions
// across a bounded pool, with aggregated statistics.
func TestBatch8Way(t *testing.T) {
	names := []string{
		"BinarySearch", "BitonicSort", "MatrixTranspose", "Reduction",
		"DCT", "DwtHaar1D", "ScanLargeArrays", "SobelFilter",
	}
	batch := &mobilesim.Batch{Jobs: jobs8(t, names), Workers: 4}
	res, err := batch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(names) || res.Failed != 0 || res.Skipped != 0 {
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Logf("job %d (%s): %v", jr.Index, jr.Job.Benchmark, jr.Err)
			}
		}
		t.Fatalf("batch: %d completed, %d failed, %d skipped; want %d/0/0",
			res.Completed, res.Failed, res.Skipped, len(names))
	}

	var wantInstr, wantJobs uint64
	for _, jr := range res.Jobs {
		if jr.Result == nil || !jr.Result.Verified {
			t.Fatalf("job %d (%s) did not verify", jr.Index, jr.Job.Benchmark)
		}
		wantInstr += jr.Result.Stats.GPU.TotalInstr()
		wantJobs += jr.Result.Stats.System.ComputeJobs
	}
	if got := res.Aggregate.GPU.TotalInstr(); got != wantInstr {
		t.Errorf("aggregate GPU instructions %d, want %d", got, wantInstr)
	}
	if got := res.Aggregate.System.ComputeJobs; got != wantJobs {
		t.Errorf("aggregate compute jobs %d, want %d", got, wantJobs)
	}
	if res.Aggregate.GuestInstructions == 0 {
		t.Error("aggregate lost guest instruction counts")
	}
}

// jobs8 builds one small-scale job per benchmark name.
func jobs8(t *testing.T, names []string) []mobilesim.BatchJob {
	t.Helper()
	jobs := make([]mobilesim.BatchJob, len(names))
	for i, n := range names {
		jobs[i] = mobilesim.BatchJob{Benchmark: n, Scale: smallScale(t, n)}
	}
	return jobs
}

func TestBatchEmpty(t *testing.T) {
	res, err := (&mobilesim.Batch{}).Run(context.Background())
	if err != nil || len(res.Jobs) != 0 {
		t.Fatalf("empty batch: res %+v, err %v", res, err)
	}
}

func TestBadConfig(t *testing.T) {
	cases := map[string]struct {
		cfg  mobilesim.Config
		want string // in the error
	}{
		"tiny RAM":         {mobilesim.Config{RAMSize: 1 << 20}, "RAMSize"},
		"negative shaders": {mobilesim.Config{ShaderCores: -2}, "ShaderCores -2"},
		// RegShaderPres is a 64-bit mask: at 65 cores it would read 64.
		"65 shaders":       {mobilesim.Config{ShaderCores: 65}, "ShaderCores 65 outside 0…64"},
		"2^40 shaders":     {mobilesim.Config{ShaderCores: 1 << 40}, "ShaderCores 1099511627776"},
		"negative threads": {mobilesim.Config{HostThreads: -8}, "HostThreads -8"},
		"threads > cores":  {mobilesim.Config{ShaderCores: 4, HostThreads: 5}, "HostThreads 5 outside 0…4"},
		"threads > 8":      {mobilesim.Config{HostThreads: 16}, "HostThreads 16 outside 0…8"},
		"bad compiler":     {mobilesim.Config{CompilerVersion: "9.9"}, "9.9"},
	}
	for name, c := range cases {
		if _, err := mobilesim.New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New(%+v) = %v, want an error naming %q", name, c.cfg, err, c.want)
		}
	}
	for _, cfg := range []mobilesim.Config{{ShaderCores: 64, HostThreads: 64}, {ShaderCores: 4}} {
		s, err := mobilesim.New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		s.Close()
	}

	// A bad batch Config must fail the whole batch up front, before any
	// session boots.
	batch := &mobilesim.Batch{
		Jobs:   []mobilesim.BatchJob{{Benchmark: "BinarySearch", Scale: 1}},
		Config: mobilesim.Config{CompilerVersion: "9.9"},
	}
	if _, err := batch.Run(context.Background()); err == nil {
		t.Error("batch accepted job with bad config")
	}
}

func TestLoadKernelJITError(t *testing.T) {
	sess, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := sess.LoadKernel("kernel void broken(global float* x) {", "broken"); err == nil {
		t.Error("expected JIT error for unterminated kernel")
	}
	if _, err := sess.LoadKernel(axpbSrc, "nonexistent"); err == nil {
		t.Error("expected error for missing kernel name")
	}
}

func TestUseAfterClose(t *testing.T) {
	sess, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := sess.NewBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sess.LoadKernel(axpbSrc, "axpb")
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Stats()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if after := sess.Stats(); after != before {
		t.Errorf("Stats after Close = %+v, want final snapshot %+v", after, before)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, err := sess.Run(bg, "BinarySearch", mobilesim.WithScale(1)); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("Run after Close: %v, want ErrClosed", err)
	}
	if _, err := sess.LoadKernel(axpbSrc, "axpb"); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("LoadKernel after Close: %v, want ErrClosed", err)
	}
	if _, err := sess.NewBuffer(64); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("NewBuffer after Close: %v, want ErrClosed", err)
	}
	if err := buf.WriteF32(nil, []float32{1}); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("Buffer.WriteF32 after Close: %v, want ErrClosed", err)
	}
	if err := k.Launch(bg, mobilesim.Dim1(1), mobilesim.Dim1(1)); !errors.Is(err, mobilesim.ErrClosed) {
		t.Errorf("Kernel.Launch after Close: %v, want ErrClosed", err)
	}
}

func TestCrossSessionBufferRejected(t *testing.T) {
	a, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	foreign, err := a.NewBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	k, err := b.LoadKernel(axpbSrc, "axpb")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgs(foreign); err == nil ||
		!strings.Contains(err.Error(), "different session") {
		t.Errorf("SetArgs accepted a foreign buffer (err = %v)", err)
	}
}

func TestBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the batch starts: every job must be skipped

	batch := &mobilesim.Batch{Jobs: jobs8(t, []string{"BinarySearch", "Reduction", "DwtHaar1D"})}
	res, err := batch.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if res.Skipped != 3 || res.Completed != 0 {
		t.Fatalf("batch: %d skipped, %d completed; want 3 skipped", res.Skipped, res.Completed)
	}
	for _, jr := range res.Jobs {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Errorf("job %d err %v, want context.Canceled", jr.Index, jr.Err)
		}
	}
}

// TestHostThreads4AllBenchmarksVerify is the acceptance test for the
// race-clean guest memory model at the facade level: one session with
// four concurrent host threads runs every Table II workload and every
// result must verify against its host-native reference. The exact
// per-workload counter values, which no thread count moves, are pinned by
// the golden-stats test in internal/workloads; here the per-run deltas are
// sanity-checked so a facade-level stats regression cannot hide behind
// the internal harness.
func TestHostThreads4AllBenchmarksVerify(t *testing.T) {
	sess, err := mobilesim.New(mobilesim.Config{RAMSize: 256 << 20, HostThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, b := range mobilesim.Benchmarks() {
		res, err := sess.Run(context.Background(), b.Name, mobilesim.WithScale(b.SmallScale))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !res.Verified {
			t.Errorf("%s: verified = false at HostThreads 4: %v", b.Name, res.VerifyErr)
		}
		if res.Stats.GPU.Threads == 0 || res.Stats.System.ComputeJobs == 0 {
			t.Errorf("%s: empty per-run stats delta: %+v", b.Name, res.Stats)
		}
		if res.Stats.System.TLBHits+res.Stats.System.TLBWalks == 0 {
			t.Errorf("%s: GPU MMU traffic not accounted", b.Name)
		}
	}
}

// TestEveryWorkloadAtScaleOne runs the whole registry at the smallest input
// scale. Degenerate sizes — a one-node graph, a matrix smaller than a
// variant's tile — must either run and verify or be refused host-side with
// an error that names the problem; a GPU fault or a bare allocation error
// is the simulator failing to validate its own inputs.
func TestEveryWorkloadAtScaleOne(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry")
	}
	for _, info := range mobilesim.Workloads() {
		t.Run(info.Name, func(t *testing.T) {
			s, err := mobilesim.New(mobilesim.Config{RAMSize: 256 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			res, err := s.Run(context.Background(), info.Name, mobilesim.WithScale(1))
			switch {
			case err != nil:
				for _, opaque := range []string{"GPU fault", "bad allocation size"} {
					if strings.Contains(err.Error(), opaque) {
						t.Errorf("scale 1 fails opaquely: %v", err)
					}
				}
				if info.Name != "sgemm6/2dregblocking" {
					t.Errorf("scale 1 refused: %v", err)
				} else if !strings.Contains(err.Error(), "32x32") {
					t.Errorf("refusal does not name the variant's tile: %v", err)
				}
			case info.Kind != mobilesim.KindSLAM && !res.Verified: // the SLAM pipeline has no host-native reference
				t.Errorf("scale 1 ran but did not verify: %v", res.VerifyErr)
			}
		})
	}
}

// TestBufferReadOutOfRange: a read of a negative count, or of more than
// the buffer holds, is an error and reads nothing; one of the whole buffer
// still reads it.
func TestBufferReadOutOfRange(t *testing.T) {
	sess, err := mobilesim.New(mobilesim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	buf, err := sess.NewBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]func(n int) (int, error){
		"Read": func(n int) (int, error) { b, err := buf.Read(bg, n); return len(b), err },
		"ReadF32": func(n int) (int, error) {
			v, err := buf.ReadF32(bg, n)
			return len(v), err
		},
		"ReadI32": func(n int) (int, error) {
			v, err := buf.ReadI32(bg, n)
			return len(v), err
		},
	}
	for _, c := range []struct {
		call string
		n    int
		ok   bool
	}{
		{"Read", 16, true},
		{"Read", 64, false},
		{"Read", -1, false},
		{"ReadF32", 4, true},
		{"ReadF32", 8, false},
		{"ReadF32", -1, false},
		{"ReadI32", 4, true},
		{"ReadI32", 8, false},
		{"ReadI32", 1 << 62, false},
		{"ReadI32", -1, false},
	} {
		got, err := read[c.call](c.n)
		switch {
		case c.ok && (err != nil || got != c.n):
			t.Errorf("%s(%d) = %d values, %v; want %d", c.call, c.n, got, err, c.n)
		case !c.ok && (err == nil || got != 0 || !strings.Contains(err.Error(), "16-byte buffer")):
			t.Errorf("%s(%d) = %d values, %v; want an error naming the 16-byte buffer", c.call, c.n, got, err)
		}
	}
}
