// Package m2s implements the Multi2Sim-style comparator the paper
// evaluates against (§V-B): a standalone GPU simulator whose OpenCL calls
// are intercepted by a simulator-specific runtime rather than flowing
// through a real driver stack.
//
// The architectural differences to the full-system simulator are exactly
// the ones the paper attributes its results to:
//
//   - No GPU MMU in the execution path: buffers live in a flat address
//     space with translation off (so no page statistics, no fault model).
//   - No kernel driver, no job descriptors in memory, no interrupts: the
//     intercepted runtime hands the "GPU" work directly.
//   - CPU-side work (buffer marshalling) runs on a per-instruction-dispatch
//     interpreter core rather than a DBT engine, which is what makes its
//     driver-side runtime grow steeply with input size (Fig 9).
//
// It reuses the same shader-core execution engine, because Fig 8's point
// is that *GPU* throughput is comparable — the stacks around it differ.
package m2s

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"mobilesim/internal/asm"
	"mobilesim/internal/clc"
	"mobilesim/internal/cpu"
	"mobilesim/internal/gpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
)

// Context is the intercepted-runtime equivalent of cl.Context. It exposes
// the same surface the workloads need, so benchmarks can run unmodified on
// either stack.
type Context struct {
	ram   *mem.RAM
	bus   *mem.Bus
	alloc *mem.PageAllocator
	intc  *irq.Controller
	dev   *gpu.Device
	core  *cpu.Core // interpreter-mode core for runtime-side copies

	memcpyEntry uint64
	staging     uint64

	// KernelLaunches counts intercepted enqueues.
	KernelLaunches uint64

	// CPUTime is host wall-clock spent in the interpreter core simulating
	// runtime-side copies — the Fig 9 comparison metric.
	CPUTime time.Duration
}

// interpMemcpySource is the runtime's bounce-copy loop, executed on the
// interpreter engine (per-instruction dispatch).
const interpMemcpySource = `
memcpy:
    mov   x4, x0
    cmpi  x2, #8
    b.lo  tail
loop8:
    ldrx  x3, [x1]
    strx  x3, [x0]
    addi  x0, x0, #8
    addi  x1, x1, #8
    subi  x2, x2, #8
    cmpi  x2, #8
    b.hs  loop8
tail:
    cmpi  x2, #0
    b.eq  done
tloop:
    ldrb  x3, [x1]
    strb  x3, [x0]
    addi  x0, x0, #1
    addi  x1, x1, #1
    subi  x2, x2, #1
    cmpi  x2, #0
    b.ne  tloop
done:
    mov   x0, x4
    ret
`

const ramBase = 0x0
const stagingSize = 4 << 20

// New creates a standalone simulator context. gpuCfg mirrors the device
// shape used by the full-system runs so GPU-side work is comparable.
func New(ramSize uint64, gpuCfg gpu.Config) (_ *Context, err error) {
	if ramSize == 0 {
		ramSize = 512 << 20
	}
	ram := mem.AcquireRAM(ramBase, ramSize)
	bus := mem.NewBus(ram)
	alloc, err := mem.NewPageAllocator(ramBase+(1<<20), ramSize-(1<<20))
	if err != nil {
		ram.Recycle()
		return nil, err
	}
	intc := irq.New()
	intc.Enable(irq.LineGPU)
	dev := gpu.NewDevice(gpuCfg, bus, intc, irq.LineGPU)
	dev.Start()

	core := cpu.NewCore(0, bus, intc)
	core.SetEngine(cpu.EngineInterp)

	c := &Context{ram: ram, bus: bus, alloc: alloc, intc: intc, dev: dev, core: core}
	defer func() { // a failed set-up stops the device and returns the RAM
		if err != nil {
			c.Close()
		}
	}()

	// Load the runtime's copy loop.
	prog, err := memcpyProg()
	if err != nil {
		return nil, err
	}
	if err := bus.WriteBytes(prog.Base, prog.Code); err != nil {
		return nil, err
	}
	if c.memcpyEntry, err = prog.Entry("memcpy"); err != nil {
		return nil, err
	}
	c.staging, err = alloc.AllocPages(stagingSize / mem.PageSize)
	if err != nil {
		return nil, err
	}

	// Flat memory: no translation table (root 0 = identity), no faults.
	if err := dev.WriteReg(gpu.RegAS0Transtab, 8, 0); err != nil {
		return nil, err
	}
	if err := dev.WriteReg(gpu.RegAS0Command, 8, 1); err != nil {
		return nil, err
	}
	if err := dev.WriteReg(gpu.RegIRQMask, 8, gpu.IRQJobDone|gpu.IRQJobFault); err != nil {
		return nil, err
	}
	return c, nil
}

// Close stops the device and recycles main memory, which scrubs exactly
// the pages the run wrote (see mem.RAM.Recycle).
func (c *Context) Close() {
	c.dev.Close()
	c.ram.Recycle()
}

// Device exposes the underlying GPU (for statistics).
func (c *Context) Device() *gpu.Device { return c.dev }

// CPUInstret returns guest instructions retired by the runtime-side core.
func (c *Context) CPUInstret() uint64 { return c.core.Instret }

// CPUDecodes returns the fetch-and-decode events of the runtime-side core:
// on its interpreter engine, one per retired instruction.
func (c *Context) CPUDecodes() uint64 { return c.core.Decodes }

// Buffer is a flat-memory allocation.
type Buffer struct {
	VA   uint64
	Size int
}

// CreateBuffer allocates device-visible memory.
func (c *Context) CreateBuffer(size int) (*Buffer, error) {
	pages := (size + mem.PageSize - 1) / mem.PageSize
	if pages == 0 {
		pages = 1
	}
	pa, err := c.alloc.AllocPages(pages)
	if err != nil {
		return nil, err
	}
	return &Buffer{VA: pa, Size: size}, nil
}

func (c *Context) guestCopy(dst, src, n uint64) error {
	t0 := time.Now()
	_, err := c.core.CallRoutine(c.memcpyEntry, dst, src, n)
	c.CPUTime += time.Since(t0)
	return err
}

// WriteBuffer stages and copies host data in through the interpreter core.
func (c *Context) WriteBuffer(b *Buffer, data []byte) error {
	for off := 0; off < len(data); off += stagingSize {
		n := len(data) - off
		if n > stagingSize {
			n = stagingSize
		}
		if err := c.bus.WriteBytes(c.staging, data[off:off+n]); err != nil {
			return err
		}
		if err := c.guestCopy(b.VA+uint64(off), c.staging, uint64(n)); err != nil {
			return err
		}
	}
	return nil
}

// ReadBuffer copies data back out through the interpreter core.
func (c *Context) ReadBuffer(b *Buffer, n int) ([]byte, error) {
	out := make([]byte, n)
	for off := 0; off < n; off += stagingSize {
		cn := n - off
		if cn > stagingSize {
			cn = stagingSize
		}
		if err := c.guestCopy(c.staging, b.VA+uint64(off), uint64(cn)); err != nil {
			return nil, err
		}
		if err := c.bus.ReadBytes(c.staging, out[off:off+cn]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteF32 marshals floats into a buffer.
func (c *Context) WriteF32(b *Buffer, vals []float32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return c.WriteBuffer(b, buf)
}

// ReadF32 reads floats back.
func (c *Context) ReadF32(b *Buffer, n int) ([]float32, error) {
	raw, err := c.ReadBuffer(b, 4*n)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out, nil
}

// Kernel is a compiled kernel held by the intercepted runtime. Unlike the
// full-system stack, the binary is pre-decoded host-side — Multi2Sim runs
// pre-built kernel binaries rather than JITing through a vendor stack.
type Kernel struct {
	ck    *clc.CompiledKernel
	binVA uint64
	args  []uint64
}

// BuildKernel compiles (with the fixed bundled toolchain, mirroring
// Multi2Sim's reliance on one frozen compiler) and loads a kernel.
func (c *Context) BuildKernel(src, name string) (*Kernel, error) {
	ck, err := clc.Compile(src, name, clc.Options{Version: "5.6"})
	if err != nil {
		return nil, err
	}
	binVA, err := c.alloc.AllocPages((len(ck.Binary) + mem.PageSize - 1) / mem.PageSize)
	if err != nil {
		return nil, err
	}
	if err := c.bus.WriteBytes(binVA, ck.Binary); err != nil {
		return nil, err
	}
	return &Kernel{ck: ck, binVA: binVA, args: make([]uint64, len(ck.Params))}, nil
}

// SetArgBuffer binds a buffer.
func (k *Kernel) SetArgBuffer(i int, b *Buffer) { k.args[i] = b.VA }

// SetArgInt binds an int scalar.
func (k *Kernel) SetArgInt(i int, v int32) { k.args[i] = uint64(uint32(v)) }

// SetArgFloat binds a float scalar.
func (k *Kernel) SetArgFloat(i int, v float32) { k.args[i] = uint64(math.Float32bits(v)) }

// Enqueue launches the kernel: the runtime writes the descriptor and rings
// the device directly (no driver, no guest code, no interrupt handler —
// the host runtime spins on the register).
func (c *Context) Enqueue(k *Kernel, global, local [3]uint32) error {
	for i := 0; i < 3; i++ {
		if global[i] == 0 {
			global[i] = 1
		}
		if local[i] == 0 {
			local[i] = 1
		}
	}
	c.KernelLaunches++
	argVA, err := c.alloc.AllocPages(1)
	if err != nil {
		return err
	}
	argBuf := make([]byte, 8*len(k.args))
	for i, a := range k.args {
		binary.LittleEndian.PutUint64(argBuf[8*i:], a)
	}
	if len(argBuf) > 0 {
		if err := c.bus.WriteBytes(argVA, argBuf); err != nil {
			return err
		}
	}
	desc := &gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: global,
		LocalSize:  local,
		ShaderVA:   k.binVA,
		ShaderSize: uint32(len(k.ck.Binary)),
		ArgsVA:     argVA,
	}
	if k.ck.LocalBytes > 0 {
		lva, err := c.alloc.AllocPages((int(k.ck.LocalBytes)*c.dev.Config().ShaderCores + mem.PageSize - 1) / mem.PageSize)
		if err != nil {
			return err
		}
		desc.LocalMemVA = lva
		desc.LocalMemBytes = k.ck.LocalBytes
	}
	descVA, err := c.alloc.AllocPages(1)
	if err != nil {
		return err
	}
	if err := c.bus.WriteBytes(descVA, gpu.EncodeDescriptor(desc)); err != nil {
		return err
	}
	if err := c.dev.WriteReg(gpu.RegJS0Head, 8, descVA); err != nil {
		return err
	}
	if err := c.dev.WriteReg(gpu.RegJS0Command, 8, 1); err != nil {
		return err
	}
	// Host-side spin (no guest ISR).
	deadline := time.Now().Add(120 * time.Second)
	for {
		raw, err := c.dev.ReadReg(gpu.RegIRQRawstat, 8)
		if err != nil {
			return err
		}
		if raw != 0 {
			if err := c.dev.WriteReg(gpu.RegIRQClear, 8, raw); err != nil {
				return err
			}
			c.intc.Claim()
			if raw&gpu.IRQJobDone == 0 {
				return fmt.Errorf("m2s: GPU fault rawstat=%#x", raw)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("m2s: kernel timed out")
		}
		<-c.intc.WaitChan()
	}
}

// memcpyProg assembles the constant copy loop once per process; the
// program is shared by every context and never modified.
var memcpyProg = sync.OnceValues(func() (*asm.Program, error) {
	return asm.Assemble(interpMemcpySource, ramBase+0x1000)
})
