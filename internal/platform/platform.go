// Package platform assembles the full simulated system (Fig 5 of the
// paper): the VA64 CPU core the driver's guest code runs on, the
// Bifrost-style GPU and the interrupt controller, sharing one physical
// memory. It stands in for the Arm Versatile Express / Juno platforms the
// paper models, augmented with a Mali-G71, cut down to what guest code
// touches.
package platform

import (
	"fmt"
	"sync"

	"mobilesim/internal/asm"
	"mobilesim/internal/cpu"
	"mobilesim/internal/gpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
)

// Physical memory map.
const (
	RAMBase = 0x8000_0000
	GPUBase = 0x1003_0000

	// FirmwareBase is where the guest helper routines (memcpy, register
	// accessors, ISR stubs) are loaded.
	FirmwareBase = RAMBase + 0x1000

	// heapBase is the first allocatable page, above the firmware image.
	heapBase = RAMBase + 0x10_0000

	// MinRAMSize is the smallest main memory a platform boots with: the
	// 1 MiB firmware region below heapBase plus what the driver allocates
	// at probe time (a 4 MiB staging buffer, page tables, job slots),
	// rounded up with room for a workload's buffers.
	MinRAMSize = 16 << 20

	// DefaultRAMSize is the main memory a zero Config.RAMSize boots with.
	DefaultRAMSize = 512 << 20
)

// Config selects the platform shape.
type Config struct {
	// RAMSize is main memory size in bytes (default DefaultRAMSize).
	RAMSize uint64
	// GPU configures the simulated GPU.
	GPU gpu.Config
}

// Platform is the assembled system.
type Platform struct {
	Bus   *mem.Bus
	RAM   *mem.RAM
	Alloc *mem.PageAllocator
	Intc  *irq.Controller
	GPU   *gpu.Device
	// CPU is the core the driver's guest routines run on.
	CPU *cpu.Core

	// Firmware holds the assembled guest helper routines. The program is
	// assembled once per process and shared by every platform (a restored
	// platform borrows its snapshot's copy instead): treat it as immutable.
	Firmware *asm.Program

	closed bool
}

// firmware assembles the constant guest helper routines once per process.
var firmware = sync.OnceValues(func() (*asm.Program, error) {
	return asm.Assemble(firmwareSource, FirmwareBase)
})

// checkRAMSize rejects main memory sizes the platform cannot boot with.
func checkRAMSize(size uint64) error {
	if size < MinRAMSize || size%mem.PageSize != 0 {
		return fmt.Errorf("platform: RAMSize %d must be a multiple of the %d-byte page and at least %d (%d MiB)",
			size, mem.PageSize, uint64(MinRAMSize), uint64(MinRAMSize)>>20)
	}
	return nil
}

// New cold-boots a platform: fresh main memory, a fresh page allocator and
// the firmware image written to RAM. Callers must Close it.
func New(cfg Config) (*Platform, error) {
	return NewFromState(cfg, nil)
}

// NewFromState builds and starts a platform — the one place the system is
// wired together. With a nil st it cold-boots (see New). Otherwise it
// restores captured state: guest memory starts as a copy of the state's
// RAM image (mem.ForkRAM copies its content pages; any number of platforms
// can be restored from one state), and no guest code runs — the boot work
// the snapshot captured is not repeated; cfg then supplies only the GPU
// configuration, and the RAM size comes from the state. Callers must Close
// the platform.
func NewFromState(cfg Config, st *State) (_ *Platform, err error) {
	if st == nil {
		if cfg.RAMSize == 0 {
			cfg.RAMSize = DefaultRAMSize
		}
	} else {
		if cfg.RAMSize != 0 && cfg.RAMSize != st.RAM.Size() {
			return nil, fmt.Errorf("platform: config RAM %d MiB does not match snapshot %d MiB",
				cfg.RAMSize>>20, st.RAM.Size()>>20)
		}
		if st.RAM.Base() != RAMBase {
			return nil, fmt.Errorf("platform: snapshot RAM image is based at %#x, the platform's RAM at %#x",
				st.RAM.Base(), uint64(RAMBase))
		}
		cfg.RAMSize = st.RAM.Size()
	}
	if err := checkRAMSize(cfg.RAMSize); err != nil {
		return nil, err
	}
	if cfg.GPU.ShaderCores == 0 {
		cfg.GPU = gpu.DefaultConfig()
	}

	// Main memory comes from the recycling pool: platform teardown scrubs
	// only the pages written, so short-lived platforms (benchmark
	// iterations, Batch sessions) skip the multi-hundred-MiB clear.
	var ram *mem.RAM
	if st == nil {
		ram = mem.AcquireRAM(RAMBase, cfg.RAMSize)
	} else {
		ram = mem.ForkRAM(st.RAM)
	}
	bus := mem.NewBus(ram)
	intc := irq.New()

	p := &Platform{Bus: bus, RAM: ram, Intc: intc}
	// From here on every failure must stop what was started and hand the
	// RAM back: Close copes with a half-built platform.
	defer func() {
		if err != nil {
			p.Close()
		}
	}()

	p.GPU = gpu.NewDevice(cfg.GPU, bus, intc, irq.LineGPU)
	if err := bus.MapDevice("gpu", GPUBase, gpu.RegWindowSize, p.GPU); err != nil {
		return nil, err
	}
	p.GPU.Start()
	p.CPU = cpu.NewCore(0, bus, intc)

	if st != nil {
		if err := p.restore(st); err != nil {
			return nil, err
		}
		return p, nil
	}
	p.Alloc, err = mem.NewPageAllocator(heapBase, cfg.RAMSize-(heapBase-RAMBase))
	if err != nil {
		return nil, err
	}
	fw, err := firmware()
	if err != nil {
		return nil, fmt.Errorf("platform: firmware assembly failed: %w", err)
	}
	if err := bus.WriteBytes(FirmwareBase, fw.Code); err != nil {
		return nil, err
	}
	p.Firmware = fw
	return p, nil
}

// Close stops background machinery (the GPU's Job Manager) and recycles
// main memory, which scrubs exactly the pages the session wrote (see
// mem.RAM.Recycle). Close is idempotent, and safe on the half-built
// platform a failed constructor leaves; the platform must not be used
// afterwards.
func (p *Platform) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.GPU != nil {
		p.GPU.Close()
	}
	p.RAM.Recycle()
}

// firmwareSource holds the guest-side helper routines the driver and
// runtime execute on the simulated CPU. Keeping this work in guest code is
// what makes the CPU-side cost of the software stack real and measurable
// (Fig 9): buffer copies and descriptor writes scale with input size and
// run through the CPU simulator's execution engine.
const firmwareSource = `
// memcpy(x0=dst, x1=src, x2=len) -> x0=dst
memcpy:
    mov   x4, x0
    cmpi  x2, #8
    b.lo  mc_tail
mc_loop8:
    ldrx  x3, [x1]
    strx  x3, [x0]
    addi  x0, x0, #8
    addi  x1, x1, #8
    subi  x2, x2, #8
    cmpi  x2, #8
    b.hs  mc_loop8
mc_tail:
    cmpi  x2, #0
    b.eq  mc_done
mc_tloop:
    ldrb  x3, [x1]
    strb  x3, [x0]
    addi  x0, x0, #1
    addi  x1, x1, #1
    subi  x2, x2, #1
    cmpi  x2, #0
    b.ne  mc_tloop
mc_done:
    mov   x0, x4
    ret

// memset(x0=dst, x1=byte, x2=len) -> x0=dst
memset:
    mov   x4, x0
    cmpi  x2, #0
    b.eq  ms_done
ms_loop:
    strb  x1, [x0]
    addi  x0, x0, #1
    subi  x2, x2, #1
    cmpi  x2, #0
    b.ne  ms_loop
ms_done:
    mov   x0, x4
    ret

// store64(x0=addr, x1=val)
store64:
    strx  x1, [x0]
    ret

// store32(x0=addr, x1=val)
store32:
    strw  x1, [x0]
    ret

// load32(x0=addr) -> x0
load32:
    ldrw  x0, [x0]
    ret

// load64(x0=addr) -> x0
load64:
    ldrx  x0, [x0]
    ret

// gpu_submit(x0=JS0_HEAD reg addr, x1=chain head VA)
// Writes the chain head and rings the job slot doorbell.
gpu_submit:
    strx  x1, [x0]
    movz  x2, #1
    strw  x2, [x0, #8]
    ret

// gpu_isr(x0=GPU reg base) -> x0 = rawstat
// Reads and acknowledges the GPU interrupt, as the kernel driver's
// interrupt handler does.
gpu_isr:
    ldrw  x1, [x0, #4]
    strw  x1, [x0, #8]
    mov   x0, x1
    ret

// gpu_init(x0=GPU reg base, x1=AS0 translation table root)
// Soft-resets the GPU, programs the address space and unmasks interrupts.
gpu_init:
    movz  x2, #1
    strw  x2, [x0, #0x20]       // GPU_CMD: soft reset
    strx  x1, [x0, #0x200]      // AS0_TRANSTAB
    strw  x2, [x0, #0x208]      // AS0_COMMAND: apply
    movz  x2, #15
    strw  x2, [x0, #0xC]        // IRQ_MASK: done|fault|mmu|stopped
    ret

// gpu_softstop(x0=GPU reg base)
// Requests a soft-stop of the active job chain (JS0_COMMAND = 2); the
// GPU acknowledges with a stopped interrupt once the shader cores reach a
// clause boundary.
gpu_softstop:
    movz  x1, #2
    strw  x1, [x0, #0x108]      // JS0_COMMAND: soft-stop
    ret

// gpu_status(x0=GPU reg base) -> x0 = JS0_STATUS
gpu_status:
    ldrw  x0, [x0, #0x110]
    ret
`
