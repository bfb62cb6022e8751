package platform

import (
	"fmt"

	"mobilesim/internal/asm"
	"mobilesim/internal/cpu"
	"mobilesim/internal/dev"
	"mobilesim/internal/gpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
)

// State is the full captured platform: guest memory (as an immutable,
// sharable image), the physical page allocator, every CPU core's
// architectural state, the interrupt controller, the peripherals and the
// GPU. It is what a platform snapshot serialises and what copy-on-write
// forks are built from. The platform must be quiescent when captured (no
// job chain executing, no guest call in flight).
type State struct {
	RAM   *mem.Image
	Alloc mem.AllocState
	CPUs  []cpu.State
	IRQ   irq.State
	Timer dev.TimerState
	UART  dev.UARTState
	Block dev.BlockState
	GPU   gpu.State

	// Firmware carries the assembled guest-helper program's geometry and
	// symbol table so a restored platform can call routines without
	// reassembling; the code bytes themselves live in the RAM image (and
	// are kept here too so the serialized form is self-contained).
	FirmwareBase uint64
	FirmwareCode []byte
	FirmwareSyms map[string]uint64
}

// Capture snapshots the platform. The guest RAM image covers everything
// up to the page allocator's high watermark (and the RAM's own dirty
// watermark, whichever is higher) — every byte a correct guest can have
// written.
func (p *Platform) Capture() (*State, error) {
	if p.closed {
		return nil, fmt.Errorf("platform: cannot capture a closed platform")
	}
	img, err := p.RAM.CaptureImage(p.Alloc.HighWater())
	if err != nil {
		return nil, err
	}
	st := &State{
		RAM:   img,
		Alloc: p.Alloc.State(),
		IRQ:   p.Intc.CaptureState(),
		Timer: p.Timer.CaptureState(),
		UART:  p.UART.CaptureState(),
		Block: p.Disk.CaptureState(),
		GPU:   p.GPU.CaptureState(),

		FirmwareBase: p.Firmware.Base,
		FirmwareCode: append([]byte(nil), p.Firmware.Code...),
		FirmwareSyms: make(map[string]uint64, len(p.Firmware.Symbols)),
	}
	for name, addr := range p.Firmware.Symbols {
		st.FirmwareSyms[name] = addr
	}
	for _, c := range p.CPUs {
		st.CPUs = append(st.CPUs, c.CaptureState())
	}
	return st, nil
}

// NewFromState builds a running platform from captured state: guest
// memory is a copy-on-write fork of the state's RAM image (many restored
// platforms share the image's pages until they write), and no guest code
// runs — the boot work the snapshot captured is not repeated. cfg
// supplies only host-side wiring (console writer) and GPU instrumentation
// knobs; the platform shape (RAM size, core count, disk) comes from the
// state. Callers must Close the platform as usual.
func NewFromState(cfg Config, st *State) (_ *Platform, err error) {
	if cfg.RAMSize != 0 && cfg.RAMSize != st.RAM.Size() {
		return nil, fmt.Errorf("platform: config RAM %d MiB does not match snapshot %d MiB",
			cfg.RAMSize>>20, st.RAM.Size()>>20)
	}
	if err := checkRAMSize(st.RAM.Size()); err != nil {
		return nil, err
	}
	if cfg.GPU.ShaderCores == 0 {
		cfg.GPU = gpu.DefaultConfig()
	}

	ram := mem.ForkRAM(st.RAM)
	bus := mem.NewBus(ram)
	intc := irq.New()

	p := &Platform{Bus: bus, RAM: ram, Intc: intc}
	defer func() { // as in New: a failed restore leaks nothing
		if err != nil {
			p.Close()
		}
	}()

	p.UART = dev.NewUART(cfg.ConsoleOut, intc, irq.LineUART)
	if err := bus.MapDevice("uart", UARTBase, dev.UARTSize, p.UART); err != nil {
		return nil, err
	}
	p.UART.RestoreState(st.UART)
	p.Timer = dev.NewTimer(intc, irq.LineTimer)
	if err := bus.MapDevice("timer", TimerBase, dev.TimerSize, p.Timer); err != nil {
		return nil, err
	}
	p.Timer.RestoreState(st.Timer)
	p.Disk = dev.NewBlock(nil, bus, intc, irq.LineBlock)
	if err := bus.MapDevice("block", BlockBase, dev.BlkSize, p.Disk); err != nil {
		return nil, err
	}
	p.Disk.RestoreState(st.Block)

	alloc, err := mem.NewPageAllocatorFromState(st.Alloc)
	if err != nil {
		return nil, err
	}
	p.Alloc = alloc

	// Restore the interrupt controller before the GPU: the GPU's restore
	// re-asserts its line when an unmasked interrupt was pending, and the
	// controller's enable mask must already be in place.
	intc.RestoreState(st.IRQ)

	p.GPU = gpu.NewDevice(cfg.GPU, bus, intc, irq.LineGPU)
	if err := bus.MapDevice("gpu", GPUBase, gpu.RegWindowSize, p.GPU); err != nil {
		return nil, err
	}
	p.GPU.Start()
	p.GPU.RestoreState(st.GPU)

	for i, cs := range st.CPUs {
		core := cpu.NewCore(i, bus, intc)
		core.RestoreState(cs)
		p.CPUs = append(p.CPUs, core)
	}

	// The program's code and symbols are borrowed from the (immutable)
	// state: firmware is never patched after assembly, and forking must
	// stay allocation-light.
	p.Firmware = &asm.Program{
		Base:    st.FirmwareBase,
		Code:    st.FirmwareCode,
		Symbols: st.FirmwareSyms,
	}
	return p, nil
}
