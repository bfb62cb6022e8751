package platform

import (
	"fmt"

	"mobilesim/internal/asm"
	"mobilesim/internal/cpu"
	"mobilesim/internal/gpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
)

// State is the full captured platform: guest memory (as an immutable
// image), the physical page allocator, the CPU core's architectural state,
// the interrupt controller and the GPU. It is what a platform snapshot
// serialises and what forked platforms are built from. The platform must be
// quiescent when captured (no job chain executing, no guest call in
// flight).
type State struct {
	RAM   *mem.Image
	Alloc mem.AllocState
	CPU   cpu.State
	IRQ   irq.State
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
// up to the RAM's highest dirty page — every byte that was ever written.
func (p *Platform) Capture() (*State, error) {
	if p.closed {
		return nil, fmt.Errorf("platform: cannot capture a closed platform")
	}
	img, err := p.RAM.CaptureImage()
	if err != nil {
		return nil, err
	}
	st := &State{
		RAM:   img,
		Alloc: p.Alloc.State(),
		CPU:   p.CPU.CaptureState(),
		IRQ:   p.Intc.CaptureState(),
		GPU:   p.GPU.CaptureState(),

		FirmwareBase: p.Firmware.Base,
		FirmwareCode: append([]byte(nil), p.Firmware.Code...),
		FirmwareSyms: make(map[string]uint64, len(p.Firmware.Symbols)),
	}
	for name, addr := range p.Firmware.Symbols {
		st.FirmwareSyms[name] = addr
	}
	return st, nil
}

// restore loads captured state into a freshly wired platform (see
// NewFromState).
func (p *Platform) restore(st *State) (err error) {
	p.Alloc, err = mem.NewPageAllocatorFromState(st.Alloc)
	if err != nil {
		return err
	}
	// Restore the interrupt controller before the GPU: the GPU's restore
	// re-asserts its line when an unmasked interrupt was pending, and the
	// controller's enable mask must already be in place.
	p.Intc.RestoreState(st.IRQ)
	p.GPU.RestoreState(st.GPU)
	p.CPU.RestoreState(st.CPU)
	// The program's code and symbols are borrowed from the (immutable)
	// state: firmware is never patched after assembly, and forking must
	// stay allocation-light.
	p.Firmware = &asm.Program{
		Base:    st.FirmwareBase,
		Code:    st.FirmwareCode,
		Symbols: st.FirmwareSyms,
	}
	return nil
}
