// Package cl is the user-space OpenCL-like runtime — the simulator's
// libOpenCL.so equivalent. Applications create buffers, build programs
// (JIT-compiled through the clc toolchain exactly when the real stack
// would invoke the vendor compiler), set kernel arguments and enqueue
// NDRange kernels. All device interaction flows through the kernel driver
// and the simulated hardware interface.
package cl

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"mobilesim/internal/clc"
	"mobilesim/internal/driver"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
)

// Context owns a device connection and a JIT configuration.
type Context struct {
	P       *platform.Platform
	Drv     *driver.Driver
	Version string // compiler version; empty = clc.DefaultVersion

	localVA    uint64
	localBytes uint32
}

// NewContext opens the device. One context per simulated application.
func NewContext(p *platform.Platform, compilerVersion string) (*Context, error) {
	drv, err := driver.Open(p)
	if err != nil {
		return nil, err
	}
	return &Context{P: p, Drv: drv, Version: compilerVersion}, nil
}

// State is the serializable runtime state for snapshots: the compiler
// version and the driver-allocated local-memory slots, plus the nested
// driver state. Built Programs and Kernels are host-side handles into
// guest memory and are not captured — a restored context rebuilds them
// from source, cheaply: clc's compile memo and the GPU's program cache are
// per process.
type State struct {
	Version    string
	LocalVA    uint64
	LocalBytes uint32
	Drv        driver.State
}

// CaptureState snapshots the runtime.
func (c *Context) CaptureState() State {
	return State{
		Version:    c.Version,
		LocalVA:    c.localVA,
		LocalBytes: c.localBytes,
		Drv:        c.Drv.CaptureState(),
	}
}

// Restore reopens a runtime context on a restored platform without
// re-probing the device (see driver.Restore).
func Restore(p *platform.Platform, st State) (*Context, error) {
	drv, err := driver.Restore(p, st.Drv)
	if err != nil {
		return nil, err
	}
	return &Context{
		P: p, Drv: drv, Version: st.Version,
		localVA:    st.LocalVA,
		localBytes: st.LocalBytes,
	}, nil
}

// Buffer is a device allocation.
type Buffer struct {
	VA   uint64
	Size int
}

// CreateBuffer allocates a device buffer. A zero-length buffer is legal (an
// empty input, such as the edge list of a one-node graph) and is backed by
// one word, so it still has an address to bind as a kernel argument.
func (c *Context) CreateBuffer(size int) (*Buffer, error) {
	alloc := size
	if size == 0 {
		alloc = 4
	}
	va, err := c.Drv.AllocGPU(alloc)
	if err != nil {
		return nil, err
	}
	return &Buffer{VA: va, Size: size}, nil
}

// WriteBuffer copies host bytes into a buffer (clEnqueueWriteBuffer).
func (c *Context) WriteBuffer(ctx context.Context, b *Buffer, data []byte) error {
	if len(data) > b.Size {
		return fmt.Errorf("cl: write of %d bytes into %d-byte buffer", len(data), b.Size)
	}
	return c.Drv.CopyToDevice(ctx, b.VA, data)
}

// ReadBuffer copies the first n bytes of a buffer back to the host
// (clEnqueueReadBuffer).
func (c *Context) ReadBuffer(ctx context.Context, b *Buffer, n int) ([]byte, error) {
	if n < 0 || n > b.Size {
		return nil, fmt.Errorf("cl: read of %d bytes from %d-byte buffer", n, b.Size)
	}
	return c.Drv.CopyFromDevice(ctx, b.VA, n)
}

// readWords copies the first n 32-bit words of a buffer back to the host.
// n is held to the buffer's word count, so 4*n cannot wrap.
func (c *Context) readWords(ctx context.Context, b *Buffer, n int) ([]byte, error) {
	if n < 0 || n > b.Size/4 {
		return nil, fmt.Errorf("cl: read of %d 4-byte values from %d-byte buffer", n, b.Size)
	}
	return c.ReadBuffer(ctx, b, 4*n)
}

// WriteF32 marshals float32 data into a buffer.
func (c *Context) WriteF32(ctx context.Context, b *Buffer, vals []float32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return c.WriteBuffer(ctx, b, buf)
}

// ReadF32 reads n float32 values from a buffer.
func (c *Context) ReadF32(ctx context.Context, b *Buffer, n int) ([]float32, error) {
	raw, err := c.readWords(ctx, b, n)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

// WriteI32 marshals int32 data into a buffer.
func (c *Context) WriteI32(ctx context.Context, b *Buffer, vals []int32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return c.WriteBuffer(ctx, b, buf)
}

// ReadI32 reads n int32 values from a buffer.
func (c *Context) ReadI32(ctx context.Context, b *Buffer, n int) ([]int32, error) {
	raw, err := c.readWords(ctx, b, n)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

// Program is a built (JIT-compiled and device-loaded) program.
type Program struct {
	ctx     *Context
	kernels map[string]*loadedKernel
}

type loadedKernel struct {
	ck     *clc.CompiledKernel
	binVA  uint64
	descVA uint64
	argsVA uint64
}

// BuildProgram JIT-compiles source and loads the binaries into GPU-visible
// memory through the driver, as clBuildProgram does. A binary the device
// would refuse to fetch (gpu.MaxShaderBytes) is refused here, before
// anything is staged.
func (c *Context) BuildProgram(ctx context.Context, src string) (*Program, error) {
	compiled, err := clc.CompileAll(src, clc.Options{Version: c.Version})
	if err != nil {
		return nil, err
	}
	for _, ck := range compiled {
		if len(ck.Binary) > gpu.MaxShaderBytes {
			return nil, fmt.Errorf("cl: kernel %s: %w", ck.Name, &gpu.ShaderSizeError{Size: uint64(len(ck.Binary))})
		}
	}
	p := &Program{ctx: c, kernels: make(map[string]*loadedKernel)}
	for name, ck := range compiled {
		binVA, err := c.Drv.AllocGPU(len(ck.Binary))
		if err != nil {
			return nil, err
		}
		if err := c.Drv.CopyToDevice(ctx, binVA, ck.Binary); err != nil {
			return nil, err
		}
		descVA, err := c.Drv.AllocGPU(gpu.JobDescSize)
		if err != nil {
			return nil, err
		}
		argBytes := 8 * len(ck.Params)
		if argBytes == 0 {
			argBytes = 8
		}
		argsVA, err := c.Drv.AllocGPU(argBytes)
		if err != nil {
			return nil, err
		}
		p.kernels[name] = &loadedKernel{ck: ck, binVA: binVA, descVA: descVA, argsVA: argsVA}
	}
	return p, nil
}

// Kernel is an invocable kernel with bound arguments.
type Kernel struct {
	prog *Program
	lk   *loadedKernel
	args []uint64
	set  []bool
}

// CreateKernel looks up a kernel by name.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	lk, ok := p.kernels[name]
	if !ok {
		return nil, fmt.Errorf("cl: kernel %q not in program", name)
	}
	return &Kernel{
		prog: p,
		lk:   lk,
		args: make([]uint64, len(lk.ck.Params)),
		set:  make([]bool, len(lk.ck.Params)),
	}, nil
}

// Report exposes the offline-compiler metrics for the kernel.
func (k *Kernel) Report() clc.StaticReport { return k.lk.ck.Report }

// Params returns a copy of the kernel's declared parameters: the compiled
// kernel is shared with every context that built the same source.
func (k *Kernel) Params() []clc.Param { return slices.Clone(k.lk.ck.Params) }

func (k *Kernel) setRaw(i int, v uint64) error {
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("cl: kernel %s has no argument %d", k.lk.ck.Name, i)
	}
	k.args[i] = v
	k.set[i] = true
	return nil
}

// SetArgBuffer binds a device buffer to a pointer parameter.
func (k *Kernel) SetArgBuffer(i int, b *Buffer) error {
	p := k.lk.ck.Params
	if i < len(p) && p[i].Type.Kind != clc.TypeGlobalPtr {
		return fmt.Errorf("cl: argument %d of %s is %s, not a buffer", i, k.lk.ck.Name, p[i].Type)
	}
	return k.setRaw(i, b.VA)
}

// SetArgInt binds an int scalar.
func (k *Kernel) SetArgInt(i int, v int32) error {
	return k.setRaw(i, uint64(uint32(v)))
}

// SetArgFloat binds a float scalar.
func (k *Kernel) SetArgFloat(i int, v float32) error {
	return k.setRaw(i, uint64(math.Float32bits(v)))
}

// SetArgs binds arguments in declaration order: *Buffer for global
// pointers, int/int32/uint32 for integer scalars, float32/float64 for
// float scalars.
func (k *Kernel) SetArgs(args ...any) error {
	for i, a := range args {
		var err error
		switch v := a.(type) {
		case *Buffer:
			err = k.SetArgBuffer(i, v)
		case int:
			err = k.SetArgInt(i, int32(v))
		case int32:
			err = k.SetArgInt(i, v)
		case uint32:
			err = k.SetArgInt(i, int32(v))
		case float32:
			err = k.SetArgFloat(i, v)
		case float64:
			err = k.SetArgFloat(i, float32(v))
		default:
			err = fmt.Errorf("cl: unsupported argument %d type %T", i, a)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// EnqueueKernel runs one kernel synchronously (enqueue + finish): it
// writes the argument table and one job descriptor through the guest-code
// driver path and rings the doorbell. A cancelled ctx soft-stops the
// running kernel at a clause boundary and returns ctx.Err(); the context
// and device stay usable.
func (c *Context) EnqueueKernel(ctx context.Context, k *Kernel, global, local [3]uint32) error {
	for i, ok := range k.set {
		if !ok {
			return fmt.Errorf("cl: kernel %s argument %d (%s) not set",
				k.lk.ck.Name, i, k.lk.ck.Params[i].Name)
		}
	}
	g, l := normalizeDims(global, local)
	if _, err := (&gpu.JobDescriptor{GlobalSize: g, LocalSize: l}).Workgroups(); err != nil || global[0] == 0 {
		return &NDRangeError{Kernel: k.lk.ck.Name, Global: global, Local: local}
	}

	if k.lk.ck.LocalBytes > 0 {
		if err := c.ensureLocal(k.lk.ck.LocalBytes); err != nil {
			return err
		}
	}
	argBuf := make([]byte, 8*len(k.args))
	for i, a := range k.args {
		binary.LittleEndian.PutUint64(argBuf[8*i:], a)
	}
	if len(argBuf) > 0 {
		if err := c.Drv.CopyToDevice(ctx, k.lk.argsVA, argBuf); err != nil {
			return err
		}
	}
	desc := &gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: g,
		LocalSize:  l,
		ShaderVA:   k.lk.binVA,
		ShaderSize: uint32(len(k.lk.ck.Binary)),
		ArgsVA:     k.lk.argsVA,
	}
	if k.lk.ck.LocalBytes > 0 {
		desc.LocalMemVA = c.localVA
		desc.LocalMemBytes = k.lk.ck.LocalBytes
	}
	if err := c.Drv.WriteDescriptor(ctx, k.lk.descVA, desc); err != nil {
		return err
	}
	c.P.GPU.NoteKernelLaunch()
	return c.Drv.SubmitAndWait(ctx, k.lk.descVA)
}

// ensureLocal sizes the driver-allocated local-memory slots for the
// architectural shader-core count (§III-B3: the driver allocates local
// storage for the cores it detects, one slot per core).
func (c *Context) ensureLocal(bytes uint32) error {
	if bytes <= c.localBytes {
		return nil
	}
	cores := c.P.GPU.Config().ShaderCores
	va, err := c.Drv.AllocGPU(int(bytes) * cores)
	if err != nil {
		return err
	}
	c.localVA = va
	c.localBytes = bytes
	return nil
}

// NDRangeError reports a dispatch the Job Manager would refuse
// (gpu.JobDescriptor.Workgroups): it splits the global range into whole
// workgroups, so the range must not be empty and every global dimension
// must be a multiple of its local dimension, and a core holds a whole
// workgroup, so one may not exceed gpu.MaxWorkgroupThreads. Checked
// host-side, before anything is staged — the same descriptor would
// otherwise surface as an opaque GPU job fault. The sizes are the caller's.
type NDRangeError struct {
	Kernel        string
	Global, Local [3]uint32
}

func (e *NDRangeError) Error() string {
	return fmt.Sprintf("cl: kernel %s: global size %v is not a non-empty multiple of local size %v, or a workgroup exceeds %d threads",
		e.Kernel, e.Global, e.Local, gpu.MaxWorkgroupThreads)
}

// normalizeDims reads an unset (zero) dimension as 1, so 1-D and 2-D
// dispatches may leave the trailing dimensions — and the local size — out.
func normalizeDims(global, local [3]uint32) ([3]uint32, [3]uint32) {
	for i := 0; i < 3; i++ {
		if global[i] == 0 {
			global[i] = 1
		}
		if local[i] == 0 {
			local[i] = 1
		}
	}
	return global, local
}

// G1 builds a 1-D dimension triple.
func G1(n uint32) [3]uint32 { return [3]uint32{n, 1, 1} }

// G2 builds a 2-D dimension triple.
func G2(x, y uint32) [3]uint32 { return [3]uint32{x, y, 1} }
