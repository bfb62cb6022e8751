package mobilesim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"mobilesim/internal/cl"
	"mobilesim/internal/clc"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
	"mobilesim/internal/stats"
	"mobilesim/internal/workloads"
)

// ErrClosed is returned by Session methods called after Close.
var ErrClosed = errors.New("mobilesim: session is closed")

// GPUStats is the per-program GPU statistics record (§IV of the paper):
// instruction mixes, clause metrics, data-access breakdowns and divergence
// counters. It aliases the internal data model so facade users get the
// full method set (TotalInstr, MixFractions, ClauseSizeQuartiles, ...).
type GPUStats = stats.GPUStats

// SystemStats is the system-level statistics record: CPU↔GPU control
// traffic, IRQs, jobs and page activity.
type SystemStats = stats.SystemStats

// Stats is one session's combined statistics snapshot. Counters are
// cumulative over the session's lifetime.
type Stats struct {
	// GPU holds program-execution statistics from the simulated GPU.
	GPU GPUStats
	// System holds CPU↔GPU system-interaction statistics.
	System SystemStats
	// DriverCPUTime is host wall-clock spent executing driver guest code
	// on the simulated CPU (the Fig 9 "driver runtime" metric).
	DriverCPUTime time.Duration
	// GuestInstructions counts instructions retired by the simulated CPU
	// core that runs the driver's guest routines.
	GuestInstructions uint64
}

// merge accumulates another snapshot (used by Batch aggregation).
func (s *Stats) merge(o *Stats) {
	s.GPU.Merge(&o.GPU)
	s.System.Merge(&o.System)
	s.DriverCPUTime += o.DriverCPUTime
	s.GuestInstructions += o.GuestInstructions
}

// sub returns the counter-wise difference s - o (per-run deltas diffed
// around a run).
func (s Stats) sub(o Stats) Stats {
	return Stats{
		GPU:               s.GPU.Sub(&o.GPU),
		System:            s.System.Sub(&o.System),
		DriverCPUTime:     s.DriverCPUTime - o.DriverCPUTime,
		GuestInstructions: s.GuestInstructions - o.GuestInstructions,
	}
}

// Config selects the shape of one simulated platform. The zero value is a
// usable default: the paper's Mali-G71 MP8 setup with 512 MiB RAM and JIT
// compiler 6.1, beside the one CPU core the driver's guest code runs on.
type Config struct {
	// RAMSize is guest physical memory in bytes (default 512 MiB,
	// minimum 16 MiB).
	RAMSize uint64
	// ShaderCores is the architectural GPU core count (default 8, the
	// G71 MP8 of the paper; at most 64).
	ShaderCores int
	// HostThreads is the number of host threads that run the shader
	// cores, each a fixed set of whole cores (default one per core; at
	// most ShaderCores). It changes no statistic, only how fast a run is.
	HostThreads int
	// CompilerVersion selects the JIT compiler release (5.6 … 6.2);
	// empty means the default (6.1).
	CompilerVersion string
}

const minRAM = platform.MinRAMSize

// validate rejects configurations the platform cannot boot.
func (c *Config) validate() error {
	if c.RAMSize != 0 && c.RAMSize < minRAM {
		return fmt.Errorf("mobilesim: RAMSize %d below minimum %d", c.RAMSize, uint64(minRAM))
	}
	if c.ShaderCores < 0 || c.ShaderCores > gpu.MaxShaderCores {
		return fmt.Errorf("mobilesim: ShaderCores %d outside 0…%d", c.ShaderCores, gpu.MaxShaderCores)
	}
	if cores := c.platformConfig().GPU.ShaderCores; c.HostThreads < 0 || c.HostThreads > cores {
		return fmt.Errorf("mobilesim: HostThreads %d outside 0…%d (at most one host thread per shader core)", c.HostThreads, cores)
	}
	if c.CompilerVersion != "" {
		if _, ok := clc.Versions[c.CompilerVersion]; !ok {
			return fmt.Errorf("mobilesim: unknown compiler version %q (have %s)",
				c.CompilerVersion, strings.Join(clc.VersionNames(), ", "))
		}
	}
	return nil
}

// platformConfig lowers the facade config onto the internal layers.
func (c *Config) platformConfig() platform.Config {
	gcfg := gpu.DefaultConfig()
	if c.ShaderCores > 0 {
		gcfg.ShaderCores = c.ShaderCores
	}
	if c.HostThreads > 0 {
		gcfg.HostThreads = c.HostThreads
	}
	return platform.Config{RAMSize: c.RAMSize, GPU: gcfg}
}

// Session is one booted guest: a full simulated platform (CPU, GPU,
// interrupt controller, memory) with the driver loaded and an OpenCL-like context open,
// behaving like one application running on one device.
//
// A Session holds one lock for every operation, so it is safe for
// concurrent use — though calls block each other, a primitive call
// waiting for a whole run in flight. For throughput, run
// independent Sessions concurrently (see Batch): separate Sessions share
// nothing and scale with host cores.
type Session struct {
	cfg Config

	// closed, p, rt and final belong to whoever holds lock.
	closed bool
	p      *platform.Platform
	rt     *cl.Context
	// final is the statistics snapshot taken at Close, so Stats stays
	// meaningful on a closed session.
	final Stats

	// base scopes every run to the session lifetime: Close cancels it,
	// which soft-stops the kernel in flight and fails callers waiting for
	// the lock.
	base       context.Context
	baseCancel context.CancelFunc

	// lock is a one-token channel (see queue.go): every operation that
	// touches the platform holds its one token for its whole duration.
	lock chan struct{}
}

// New boots a platform from cfg and opens the device: GPU soft reset,
// address-space setup and IRQ unmasking all run as guest code, exactly as
// the kernel module's probe path would. Callers must Close the session.
//
// With FromSnapshot the cold boot is skipped entirely: the session is
// forked from a captured snapshot and is ready to run in microseconds (see
// Snapshot).
func New(cfg Config, opts ...NewOption) (*Session, error) {
	var o newOptions
	for _, fn := range opts {
		fn(&o)
	}
	if o.snap != nil {
		return newFromSnapshot(cfg, o.snap)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p, err := platform.New(cfg.platformConfig())
	if err != nil {
		return nil, err
	}
	rt, err := cl.NewContext(p, cfg.CompilerVersion)
	if err != nil {
		p.Close()
		return nil, err
	}
	return newSession(cfg, p, rt), nil
}

// newSession wraps a live platform + runtime pair in the facade.
func newSession(cfg Config, p *platform.Platform, rt *cl.Context) *Session {
	s := &Session{cfg: cfg, p: p, rt: rt, lock: make(chan struct{}, 1)}
	s.base, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Close stops the platform's background machinery. Callers waiting for
// the session fail with ErrClosed; a run in flight is soft-stopped at a
// clause boundary and returns ErrClosed (or its own context error) before
// the platform is torn down. Closing twice is a no-op. Afterwards every
// operation that touches the device fails with ErrClosed; Stats keeps
// returning the final snapshot taken at Close.
func (s *Session) Close() error {
	s.baseCancel()
	// Taking the lock is the wait for the operation in flight. It is given
	// back so that a second Close, like any late caller, gets through to
	// find the session closed.
	s.lock <- struct{}{}
	defer s.release()
	if s.closed {
		return nil
	}
	s.final = s.statsLocked()
	s.closed = true
	s.p.Close()
	return nil
}

// Config returns the configuration the session was created with.
func (s *Session) Config() Config { return s.cfg }

// Stats returns the session's cumulative statistics snapshot (per-run
// deltas are in RunResult.Stats). It waits for a run in flight, so it
// reads between runs. After Close it returns the final snapshot taken at
// close time.
func (s *Session) Stats() Stats {
	// Like Close, Stats waits out a closing session instead of failing.
	s.lock <- struct{}{}
	defer s.release()
	if s.closed {
		return s.final
	}
	return s.statsLocked()
}

func (s *Session) statsLocked() Stats {
	gs, sys := s.p.GPU.Stats()
	return Stats{
		GPU:               gs,
		System:            sys,
		DriverCPUTime:     s.rt.Drv.CPUTime,
		GuestInstructions: s.p.CPU.Instret,
	}
}

// Buffer is a device memory allocation owned by one session.
type Buffer struct {
	s *Session
	b *cl.Buffer
}

// Size returns the allocation size in bytes.
func (b *Buffer) Size() int { return b.b.Size }

// NewBuffer allocates size bytes of GPU-visible memory through the
// driver's allocator and page tables.
func (s *Session) NewBuffer(size int) (*Buffer, error) {
	var buf *Buffer
	err := s.locked(nil, func(context.Context) error {
		b, err := s.rt.CreateBuffer(size)
		if err != nil {
			return err
		}
		buf = &Buffer{s: s, b: b}
		return nil
	})
	return buf, err
}

// orBackground lets nil stand in for context.Background() on the
// public device primitives.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Write copies host bytes into the buffer via the simulated-CPU memcpy
// path (clEnqueueWriteBuffer). Cancellation is honoured at staging-chunk
// (4 MiB) granularity; a nil ctx means context.Background().
func (b *Buffer) Write(ctx context.Context, data []byte) error {
	return b.s.locked(ctx, func(ctx context.Context) error { return b.s.rt.WriteBuffer(ctx, b.b, data) })
}

// Read copies the first n bytes of the buffer back to the host.
func (b *Buffer) Read(ctx context.Context, n int) ([]byte, error) {
	var out []byte
	err := b.s.locked(ctx, func(ctx context.Context) (err error) {
		out, err = b.s.rt.ReadBuffer(ctx, b.b, n)
		return
	})
	return out, err
}

// WriteF32 marshals float32 values into the buffer.
func (b *Buffer) WriteF32(ctx context.Context, vals []float32) error {
	return b.s.locked(ctx, func(ctx context.Context) error { return b.s.rt.WriteF32(ctx, b.b, vals) })
}

// ReadF32 reads n float32 values from the buffer.
func (b *Buffer) ReadF32(ctx context.Context, n int) ([]float32, error) {
	var out []float32
	err := b.s.locked(ctx, func(ctx context.Context) (err error) {
		out, err = b.s.rt.ReadF32(ctx, b.b, n)
		return
	})
	return out, err
}

// WriteI32 marshals int32 values into the buffer.
func (b *Buffer) WriteI32(ctx context.Context, vals []int32) error {
	return b.s.locked(ctx, func(ctx context.Context) error { return b.s.rt.WriteI32(ctx, b.b, vals) })
}

// ReadI32 reads n int32 values from the buffer.
func (b *Buffer) ReadI32(ctx context.Context, n int) ([]int32, error) {
	var out []int32
	err := b.s.locked(ctx, func(ctx context.Context) (err error) {
		out, err = b.s.rt.ReadI32(ctx, b.b, n)
		return
	})
	return out, err
}

// Kernel is a JIT-compiled, device-loaded kernel with argument state,
// owned by one session.
type Kernel struct {
	s *Session
	k *cl.Kernel
}

// LoadKernel JIT-compiles src through the CLite toolchain (at the version
// the session was configured with), loads the resulting Bifrost-style
// binary into GPU memory through the driver, and returns the named kernel.
func (s *Session) LoadKernel(src, name string) (*Kernel, error) {
	var kern *Kernel
	err := s.locked(nil, func(ctx context.Context) error {
		prog, err := s.rt.BuildProgram(ctx, src)
		if err != nil {
			return err
		}
		k, err := prog.CreateKernel(name)
		if err != nil {
			return err
		}
		kern = &Kernel{s: s, k: k}
		return nil
	})
	return kern, err
}

// SetArgs binds kernel arguments in declaration order. Accepted types:
// *Buffer for global pointers, int/int32/uint32 for integer scalars,
// float32/float64 for float scalars.
func (k *Kernel) SetArgs(args ...any) error {
	return k.s.locked(nil, func(context.Context) error {
		bound := make([]any, len(args))
		for i, a := range args {
			bound[i] = a
			if b, ok := a.(*Buffer); ok {
				if b.s != k.s {
					return fmt.Errorf("mobilesim: argument %d: buffer belongs to a different session", i)
				}
				bound[i] = b.b
			}
		}
		return k.k.SetArgs(bound...)
	})
}

// Launch enqueues one NDRange run of the kernel and waits for the
// completion interrupt: descriptor written to shared memory, doorbell
// rung, Job Manager dispatch, guest ISR — the full hardware/software
// contract. Cancelling ctx soft-stops the running kernel at a clause
// boundary and returns ctx.Err(); the session stays usable. A nil ctx
// means context.Background().
func (k *Kernel) Launch(ctx context.Context, global, local [3]uint32) error {
	return k.s.locked(ctx, func(ctx context.Context) error { return k.s.rt.EnqueueKernel(ctx, k.k, global, local) })
}

// Dim1 builds a 1-D NDRange dimension triple.
func Dim1(n uint32) [3]uint32 { return [3]uint32{n, 1, 1} }

// Dim2 builds a 2-D NDRange dimension triple.
func Dim2(x, y uint32) [3]uint32 { return [3]uint32{x, y, 1} }

// Dim3 builds a 3-D NDRange dimension triple.
func Dim3(x, y, z uint32) [3]uint32 { return [3]uint32{x, y, z} }

// RunResult is one completed workload run.
type RunResult struct {
	// Workload names what ran (see Workloads); Kind
	// classifies it; Scale is the resolved input scale (0 when the
	// workload does not take one).
	Workload string
	Kind     WorkloadKind
	Scale    int
	// SimDuration is time spent in full-stack simulation; NativeDuration
	// is the host-native reference implementation's time (their ratio is
	// the paper's Fig 7 slowdown); Wall is total elapsed time including
	// verification.
	SimDuration    time.Duration
	NativeDuration time.Duration
	Wall           time.Duration
	// QueueWait is the time this call waited for the session's lock while
	// another run, a capture or a direct primitive call (Launch, buffer
	// I/O) held it — a fraction of a microsecond when none did. Wall
	// covers execution only.
	QueueWait time.Duration
	// Verified reports whether the simulated output matched the
	// host-native reference; VerifyErr carries the first mismatch. Both
	// stay zero for workload kinds without a reference (SLAM) and for
	// runs with verification disabled (WithVerify(false)).
	Verified  bool
	VerifyErr error
	// Stats is the per-run statistics delta: the session snapshot diffed
	// around this run (Session.Stats has the session-cumulative record).
	Stats Stats
	// CFG is the rendered divergence control-flow graph of exactly this
	// run, collected when the run was submitted WithCFG.
	CFG string
	// Modeled carries the analytical Mali-G71/K20m cost estimates
	// evaluated on this run's own statistics delta. See ModeledCost for
	// what the numbers do and do not claim.
	Modeled ModeledCost
	// SLAM carries the pipeline metrics of a KindSLAM run.
	SLAM *SLAMMetrics
}

// Benchmarks lists the Table II suite sorted by name.
func Benchmarks() []WorkloadInfo {
	specs := workloads.OfKind(workloads.KindBenchmark)
	out := make([]WorkloadInfo, len(specs))
	for i, s := range specs {
		out[i] = infoOf(s)
	}
	return out
}

// CompilerVersions lists the available JIT compiler releases in order.
func CompilerVersions() []string { return clc.VersionNames() }
