// Package simtest provides a GPU-only test harness: guest memory, an
// identity-mapped GPU address space, and direct job submission through the
// register interface. Compiler and workload tests use it to execute CLite
// kernels without booting the full platform (which has its own tests).
package simtest

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"mobilesim/internal/clc"
	"mobilesim/internal/gpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
)

// Harness drives a GPU device the way the kernel driver would, minus the
// simulated CPU in the middle.
type Harness struct {
	TB    testing.TB
	Bus   *mem.Bus
	Alloc *mem.PageAllocator
	AS    *mmu.AddressSpace
	Intc  *irq.Controller
	Dev   *gpu.Device
}

// NewMP creates a started harness whose device runs its eight cores on
// hostThreads concurrent host threads — the multi-core configuration the
// race-clean guest memory model is accountable for.
// Tests that hammer shared guest memory use it so GPU concurrency is
// exercised directly, not only through the facade.
func NewMP(tb testing.TB, hostThreads int) *Harness {
	tb.Helper()
	cfg := gpu.DefaultConfig()
	cfg.HostThreads = hostThreads
	return New(tb, cfg)
}

// New creates a started harness; the device is closed via test cleanup.
func New(tb testing.TB, cfg gpu.Config) *Harness {
	tb.Helper()
	bus := mem.NewBus(mem.NewRAM(0, 256<<20))
	alloc, err := mem.NewPageAllocator(1<<20, 224<<20)
	if err != nil {
		tb.Fatal(err)
	}
	as, err := mmu.NewAddressSpace(bus, alloc)
	if err != nil {
		tb.Fatal(err)
	}
	intc := irq.New()
	intc.Enable(irq.LineGPU)
	dev := gpu.NewDevice(cfg, bus, intc, irq.LineGPU)
	dev.Start()
	tb.Cleanup(dev.Close)

	h := &Harness{TB: tb, Bus: bus, Alloc: alloc, AS: as, Intc: intc, Dev: dev}
	h.wr(gpu.RegAS0Transtab, as.Root())
	h.wr(gpu.RegAS0Command, 1)
	h.wr(gpu.RegIRQMask, gpu.IRQJobDone|gpu.IRQJobFault|gpu.IRQMMUFault)
	return h
}

func (h *Harness) wr(off, val uint64) {
	h.TB.Helper()
	if err := h.Dev.WriteReg(off, 8, val); err != nil {
		h.TB.Fatal(err)
	}
}

func (h *Harness) rd(off uint64) uint64 {
	h.TB.Helper()
	v, err := h.Dev.ReadReg(off, 8)
	if err != nil {
		h.TB.Fatal(err)
	}
	return v
}

// AllocBuf allocates n bytes of zeroed guest memory mapped RW for the GPU.
func (h *Harness) AllocBuf(n int) uint64 {
	h.TB.Helper()
	pages := (n + mem.PageSize - 1) / mem.PageSize
	if pages == 0 {
		pages = 1
	}
	pa, err := h.Alloc.AllocPages(pages)
	if err != nil {
		h.TB.Fatal(err)
	}
	if err := h.AS.MapRange(pa, pa, uint64(pages)*mem.PageSize, mmu.PermR|mmu.PermW); err != nil {
		h.TB.Fatal(err)
	}
	return pa
}

// WriteF32 fills a buffer with float32 values.
func (h *Harness) WriteF32(va uint64, vals []float32) {
	h.TB.Helper()
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	if err := h.Bus.WriteBytes(va, buf); err != nil {
		h.TB.Fatal(err)
	}
}

// ReadF32 reads n float32 values.
func (h *Harness) ReadF32(va uint64, n int) []float32 {
	h.TB.Helper()
	buf := make([]byte, 4*n)
	if err := h.Bus.ReadBytes(va, buf); err != nil {
		h.TB.Fatal(err)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

// WriteI32 fills a buffer with int32 values.
func (h *Harness) WriteI32(va uint64, vals []int32) {
	h.TB.Helper()
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	if err := h.Bus.WriteBytes(va, buf); err != nil {
		h.TB.Fatal(err)
	}
}

// ReadI32 reads n int32 values.
func (h *Harness) ReadI32(va uint64, n int) []int32 {
	h.TB.Helper()
	buf := make([]byte, 4*n)
	if err := h.Bus.ReadBytes(va, buf); err != nil {
		h.TB.Fatal(err)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

// WriteU8 fills a buffer with raw bytes.
func (h *Harness) WriteU8(va uint64, vals []byte) {
	h.TB.Helper()
	if err := h.Bus.WriteBytes(va, vals); err != nil {
		h.TB.Fatal(err)
	}
}

// ReadU8 reads n raw bytes.
func (h *Harness) ReadU8(va uint64, n int) []byte {
	h.TB.Helper()
	buf := make([]byte, n)
	if err := h.Bus.ReadBytes(va, buf); err != nil {
		h.TB.Fatal(err)
	}
	return buf
}

// F32Arg converts a float kernel argument to its uniform slot encoding.
func F32Arg(f float32) uint64 { return uint64(math.Float32bits(f)) }

// RunKernel loads the compiled kernel into guest memory and submits one
// compute job with the given dimensions and raw uniform arguments
// (pointer VAs, int values, float bits — one per kernel parameter).
// It fails the test on a GPU fault.
func (h *Harness) RunKernel(k *clc.CompiledKernel, global, local [3]uint32, args []uint64) {
	h.TB.Helper()
	if len(args) != len(k.Params) {
		h.TB.Fatalf("kernel %s wants %d args, got %d", k.Name, len(k.Params), len(args))
	}
	for i := range global {
		if global[i] == 0 {
			global[i] = 1
		}
		if local[i] == 0 {
			local[i] = 1
		}
	}
	progVA := h.AllocBuf(len(k.Binary))
	h.WriteU8(progVA, k.Binary)

	desc := &gpu.JobDescriptor{
		JobType:    gpu.JobTypeCompute,
		GlobalSize: global,
		LocalSize:  local,
		ShaderVA:   progVA,
		ShaderSize: uint32(len(k.Binary)),
	}
	if k.LocalBytes > 0 {
		desc.LocalMemBytes = k.LocalBytes
		desc.LocalMemVA = h.AllocBuf(int(k.LocalBytes) * h.Dev.Config().ShaderCores)
	}
	if len(args) > 0 {
		argVA := h.AllocBuf(8 * len(args))
		buf := make([]byte, 8*len(args))
		for i, a := range args {
			binary.LittleEndian.PutUint64(buf[8*i:], a)
		}
		h.WriteU8(argVA, buf)
		desc.ArgsVA = argVA
	}
	descVA := h.AllocBuf(gpu.JobDescSize)
	h.WriteU8(descVA, gpu.EncodeDescriptor(desc))
	h.wr(gpu.RegJS0Head, descVA)
	h.wr(gpu.RegJS0Command, 1)

	raw := h.waitIRQ()
	if raw&gpu.IRQJobDone == 0 {
		h.TB.Fatalf("kernel %s: GPU fault (rawstat=%#x, faultaddr=%#x)",
			k.Name, raw, h.rd(gpu.RegAS0FaultAddr))
	}
}

func (h *Harness) waitIRQ() uint32 {
	h.TB.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-h.Intc.WaitChan():
		case <-time.After(10 * time.Millisecond):
		}
		raw := uint32(h.rd(gpu.RegIRQRawstat))
		if raw != 0 {
			h.wr(gpu.RegIRQClear, uint64(raw))
			h.Intc.Claim()
			return raw
		}
		if time.Now().After(deadline) {
			h.TB.Fatal("timed out waiting for GPU interrupt")
			return 0
		}
	}
}

// CompileAndRun compiles source with the default compiler version and runs
// the named kernel.
func (h *Harness) CompileAndRun(src, kernel string, global, local [3]uint32, args []uint64) *clc.CompiledKernel {
	h.TB.Helper()
	k, err := clc.Compile(src, kernel, clc.Options{})
	if err != nil {
		h.TB.Fatalf("compile %s: %v", kernel, err)
	}
	h.RunKernel(k, global, local, args)
	return k
}
