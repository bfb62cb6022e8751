// Package driver is the simulator's equivalent of the vendor's kernel-
// space GPU driver ("kbase"): it owns the GPU address space, allocates and
// maps memory for the runtime, writes job descriptors and submits them to
// the Job Manager's job slot, and handles the GPU interrupt. Its only channel to the GPU is the hardware
// interface — MMIO registers, shared memory, page tables and the IRQ
// line — and its bulk work (buffer copies, descriptor writes, register
// accesses) executes as real guest code on the simulated CPU, so the
// CPU-side cost of the software stack is measured, not modelled.
package driver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mobilesim/internal/cpu"
	"mobilesim/internal/gpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/platform"
)

// ErrStopped is returned by SubmitAndWait when the chain ended on a
// soft-stop that was not requested through the context (another goroutine
// wrote JS0_COMMAND). Context-driven stops surface as ctx.Err() instead.
var ErrStopped = errors.New("driver: job chain soft-stopped")

// stagingSize is the bounce-buffer size for host<->guest copies.
const stagingSize = 4 << 20

// Driver is one opened GPU device context.
type Driver struct {
	P    *platform.Platform
	Core *cpu.Core
	AS   *mmu.AddressSpace

	staging uint64

	// Jobs submitted and interrupts served, driver-side view.
	JobsSubmitted uint64
	IRQsHandled   uint64

	// HandOff, when set, runs between ringing the doorbell and waiting for
	// the interrupt: the seam where tests inject a scheduling yield to pin
	// that no counter depends on which side of the driver↔GPU hand-off
	// the host scheduler runs first.
	HandOff func()

	// CPUTime is host wall-clock spent simulating driver-side guest code
	// (the Fig 9 "driver runtime" metric). Waiting for the GPU does not
	// count.
	CPUTime time.Duration
}

// Open initialises the GPU: builds an address space, soft-resets the
// device, programs AS0 and unmasks interrupts — all through guest code and
// MMIO, as the kernel module's probe path would.
func Open(p *platform.Platform) (*Driver, error) {
	as, err := mmu.NewAddressSpace(p.Bus, p.Alloc)
	if err != nil {
		return nil, err
	}
	d := &Driver{P: p, Core: p.CPU, AS: as}
	p.Intc.Enable(irq.LineGPU)

	if _, err := d.call("gpu_init", platform.GPUBase, as.Root()); err != nil {
		return nil, fmt.Errorf("driver: gpu_init: %w", err)
	}
	d.staging, err = d.allocPhys(stagingSize)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// State is the serializable driver-side state for snapshots: the staging
// buffer address, the GPU address-space geometry (the page tables
// themselves live in guest RAM) and the driver's counters. CPUTime is host
// time, not platform state: a restored driver's meter starts at zero.
type State struct {
	Staging       uint64
	ASRoot        uint64
	ASPages       int
	JobsSubmitted uint64
	IRQsHandled   uint64
}

// CaptureState snapshots the driver.
func (d *Driver) CaptureState() State {
	return State{
		Staging:       d.staging,
		ASRoot:        d.AS.Root(),
		ASPages:       d.AS.MappedPages(),
		JobsSubmitted: d.JobsSubmitted,
		IRQsHandled:   d.IRQsHandled,
	}
}

// Restore reopens the device on a restored platform without running any
// guest code: the GPU was already initialised when the snapshot was
// taken (its register state, the address space's page tables and the
// staging buffer all live in the restored platform), so the probe path is
// not repeated.
func Restore(p *platform.Platform, st State) (*Driver, error) {
	as, err := mmu.RestoreAddressSpace(p.Bus, p.Alloc, st.ASRoot, st.ASPages)
	if err != nil {
		return nil, err
	}
	return &Driver{
		P: p, Core: p.CPU, AS: as,
		staging:       st.Staging,
		JobsSubmitted: st.JobsSubmitted,
		IRQsHandled:   st.IRQsHandled,
	}, nil
}

// call runs a firmware routine on the simulated CPU.
func (d *Driver) call(name string, args ...uint64) (uint64, error) {
	entry, err := d.P.Firmware.Entry(name)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	v, err := d.Core.CallRoutine(entry, args...)
	d.CPUTime += time.Since(t0)
	return v, err
}

// allocPhys grabs physically contiguous pages (CPU-only memory, not GPU
// mapped).
func (d *Driver) allocPhys(size int) (uint64, error) {
	pages := (size + mem.PageSize - 1) / mem.PageSize
	return d.P.Alloc.AllocPages(pages)
}

// AllocGPU allocates guest memory and maps it into the GPU address space
// (identity VA=PA, as a kernel's physically-contiguous carveout would be).
// The mapping goes through real page tables that the GPU MMU walks.
func (d *Driver) AllocGPU(size int) (uint64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("driver: bad allocation size %d", size)
	}
	pages := (size + mem.PageSize - 1) / mem.PageSize
	pa, err := d.P.Alloc.AllocPages(pages)
	if err != nil {
		return 0, err
	}
	if err := d.AS.MapRange(pa, pa, uint64(pages)*mem.PageSize, mmu.PermR|mmu.PermW); err != nil {
		return 0, err
	}
	return pa, nil
}

// CopyToDevice writes data into GPU-visible memory. The application-side
// bytes are staged (the app already produced them), then the runtime's
// guest memcpy moves them into the buffer on the simulated CPU — the cost
// that dominates driver runtime for large inputs (Fig 9). Cancellation is
// honoured between staging chunks (4 MiB granularity).
func (d *Driver) CopyToDevice(ctx context.Context, va uint64, data []byte) error {
	for off := 0; off < len(data); off += stagingSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := len(data) - off
		if n > stagingSize {
			n = stagingSize
		}
		if err := d.P.Bus.WriteBytes(d.staging, data[off:off+n]); err != nil {
			return err
		}
		if _, err := d.call("memcpy", va+uint64(off), d.staging, uint64(n)); err != nil {
			return err
		}
	}
	return nil
}

// CopyFromDevice reads n bytes back from GPU-visible memory through the
// same guest-code path.
func (d *Driver) CopyFromDevice(ctx context.Context, va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for off := 0; off < n; off += stagingSize {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := n - off
		if c > stagingSize {
			c = stagingSize
		}
		if _, err := d.call("memcpy", d.staging, va+uint64(off), uint64(c)); err != nil {
			return nil, err
		}
		if err := d.P.Bus.ReadBytes(d.staging, out[off:off+c]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Submit writes a job-chain head pointer and rings the job slot doorbell.
func (d *Driver) Submit(head uint64) error {
	if _, err := d.call("gpu_submit", platform.GPUBase+gpu.RegJS0Head, head); err != nil {
		return err
	}
	d.JobsSubmitted++
	return nil
}

// SoftStop asks the Job Manager to stop the active chain at the next
// clause boundary (JS0_COMMAND = soft-stop), through the same guest-code
// path every other register write takes. The GPU acknowledges with a
// stopped interrupt; callers must keep waiting for it.
func (d *Driver) SoftStop() error {
	_, err := d.call("gpu_softstop", platform.GPUBase)
	return err
}

// WaitJob blocks until the GPU's interrupt is pending, then runs the guest
// ISR to read and acknowledge it, and returns the rawstat. A fault rawstat
// is returned, not an error; hardware-interface errors are.
//
// The ISR runs only once the line is pending — exactly one ISR per
// asserted IRQ (Table III's "one IRQ per job submission"). Polling the
// status register before blocking would add a register read, a write and
// four guest instructions whenever the driver got there before the GPU
// finished: host scheduling leaking into the exact-counter contract.
//
// When ctx is cancelled mid-wait the driver soft-stops the chain and then
// keeps waiting for the GPU's acknowledgement — the hardware owns shared
// state (job slot, address space, stats shards) and must quiesce before
// the slot is reusable, so cancellation is prompt but never abandons a
// running chain.
func (d *Driver) WaitJob(ctx context.Context) (uint32, error) {
	cancel := ctx.Done()
	for {
		select {
		case <-d.P.Intc.WaitChan():
		case <-cancel:
			if err := d.SoftStop(); err != nil {
				return 0, err
			}
			cancel = nil // stop once; wait for the acknowledgement IRQ
			continue
		}
		if !d.P.Intc.Pending() {
			continue // woken by a masked line
		}
		raw, err := d.call("gpu_isr", platform.GPUBase)
		if err != nil {
			return 0, err
		}
		d.P.Intc.Claim()
		if raw != 0 {
			d.IRQsHandled++
			return uint32(raw), nil
		}
	}
}

// SubmitAndWait is the common synchronous path: returns an error when the
// chain faulted, and the context error when ctx cancelled the run (the
// kernel is interrupted at a clause boundary via soft-stop).
func (d *Driver) SubmitAndWait(ctx context.Context, head uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := d.Submit(head); err != nil {
		return err
	}
	if d.HandOff != nil {
		d.HandOff()
	}
	raw, err := d.WaitJob(ctx)
	if err != nil {
		return err
	}
	if raw&(gpu.IRQJobFault|gpu.IRQMMUFault) != 0 {
		fa, _ := d.P.GPU.ReadReg(gpu.RegAS0FaultAddr, 8)
		return fmt.Errorf("driver: GPU fault (rawstat=%#x, fault addr=%#x)", raw, fa)
	}
	if raw&gpu.IRQJobStopped != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrStopped
	}
	if raw&gpu.IRQJobDone == 0 {
		return fmt.Errorf("driver: unexpected rawstat %#x", raw)
	}
	return nil
}

// WriteDescriptor copies an encoded job descriptor into GPU memory through
// the guest path.
func (d *Driver) WriteDescriptor(ctx context.Context, va uint64, desc *gpu.JobDescriptor) error {
	return d.CopyToDevice(ctx, va, gpu.EncodeDescriptor(desc))
}
