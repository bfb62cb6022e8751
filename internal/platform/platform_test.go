package platform_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mobilesim/internal/asm"
	"mobilesim/internal/gpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/platform"
)

func TestBootAndFirmwareLoaded(t *testing.T) {
	p, err := platform.New(platform.Config{RAMSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, name := range []string{"memcpy", "memset", "store64", "load64", "gpu_isr", "gpu_submit", "gpu_init", "gpu_status"} {
		if _, err := p.Firmware.Entry(name); err != nil {
			t.Errorf("firmware routine %s missing: %v", name, err)
		}
	}
	// Firmware routines run.
	if _, err := p.CPU.CallRoutine(p.Firmware.MustEntry("memset"),
		platform.RAMBase+0x20_0000, 0xAB, 64); err != nil {
		t.Fatal(err)
	}
	v, err := p.Bus.Read(platform.RAMBase+0x20_0000, 1)
	if err != nil || v != 0xAB {
		t.Errorf("memset result: %v %#x", err, v)
	}
}

// TestGuestWithMMUAndTimerIRQ boots a guest that builds page tables,
// enables translation, installs a vector table, unmasks interrupts and
// services one — the full-system CPU feature set end to end. The host
// raises the GPU's line while the guest spins.
func TestGuestWithMMUAndTimerIRQ(t *testing.T) {
	p, err := platform.New(platform.Config{RAMSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Host-side "bootloader" builds an identity map for RAM (as early boot
	// assembly would).
	as, err := mmu.NewAddressSpace(p.Bus, p.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MapRange(platform.RAMBase, platform.RAMBase, 16<<20,
		mmu.PermR|mmu.PermW|mmu.PermX); err != nil {
		t.Fatal(err)
	}

	// Guest: vectors at +0x0/+0x80; main enables the MMU, unmasks IRQs and
	// waits; the IRQ handler records the claimed line and sets x20.
	code := `
vectors:
    b sync_handler
    .zero 124
irq_vec:
    b irq_handler
    .zero 124
main:
    msr ttbr0, x0          // x0 = table root (host-provided)
    msr vbar, x1           // x1 = vectors base
    movz x2, #1
    msr sctlr, x2          // MMU on
    msr ie, x2             // interrupts on
spin:
    cmpi x20, #0
    b.eq spin
    hlt
sync_handler:
    hlt
irq_handler:
    mrs x21, esr           // 0x100 | the claimed line
    movz x20, #1
    eret
`
	prog, err := asm.Assemble(code, platform.RAMBase+0x50_0000)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bus.WriteBytes(prog.Base, prog.Code); err != nil {
		t.Fatal(err)
	}
	c := p.CPU
	p.Intc.Enable(irq.LineGPU)
	c.X[0] = as.Root()
	c.X[1] = prog.MustEntry("vectors")
	c.X[20] = 0
	c.Reset(prog.MustEntry("main"))

	// Let the guest reach its spin loop, then raise the line.
	c.Run(10_000)
	if c.Halted() {
		t.Fatalf("guest halted before the interrupt: pc=%#x err=%v", c.PC, c.Err())
	}
	p.Intc.Assert(irq.LineGPU)
	for i := 0; i < 100 && !c.Halted(); i++ {
		c.Run(10_000)
	}
	if !c.Halted() {
		t.Fatalf("guest never completed: pc=%#x x20=%d", c.PC, c.X[20])
	}
	if c.Err() != nil {
		t.Fatalf("guest stopped on error: %v", c.Err())
	}
	if c.X[20] != 1 {
		t.Error("IRQ handler never ran")
	}
	if want := 0x100 | uint64(irq.LineGPU); c.X[21] != want {
		t.Errorf("handler saw ESR %#x, want %#x", c.X[21], want)
	}
	if !c.Walker().Enabled() {
		t.Error("MMU should be enabled")
	}
	if c.IRQs != 1 {
		t.Errorf("%d IRQs taken, want 1", c.IRQs)
	}
}

func TestMemoryMapNoOverlaps(t *testing.T) {
	p, err := platform.New(platform.Config{RAMSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The GPU answers at its base, RAM at its; nothing else is mapped.
	if _, err := p.Bus.Read(platform.GPUBase, 4); err != nil {
		t.Errorf("GPU at %#x unreachable: %v", uint64(platform.GPUBase), err)
	}
	if _, err := p.Bus.Read(platform.RAMBase, 8); err != nil {
		t.Errorf("RAM unreachable: %v", err)
	}
	for _, hole := range []uint64{0x7000_0000, platform.GPUBase - 0x1000, platform.GPUBase + gpu.RegWindowSize} {
		if _, err := p.Bus.Read(hole, 4); err == nil {
			t.Errorf("hole at %#x in the map should fault", hole)
		}
	}
}

// TestConstructorFailuresLeakNothing pins the error paths of the one
// constructor over both of its arms (cold boot and restore from state): a
// RAM size the platform cannot boot with is refused up front with an error
// naming it, and a failure after main memory was acquired hands the RAM
// back and leaves no Job Manager goroutine behind.
func TestConstructorFailuresLeakNothing(t *testing.T) {
	var recycled atomic.Int32
	mem.SetRecycleAudit(func([]byte, uint64) { recycled.Add(1) })
	defer mem.SetRecycleAudit(nil)

	good, err := platform.New(platform.Config{RAMSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	st, err := good.Capture()
	if err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()

	// Each arm builds a platform whose main memory is size bytes. An image
	// is page-granular by construction, so only the page-multiple sizes can
	// reach the constructor through a state.
	arms := []struct {
		name         string
		pageGranular bool
		build        func(size uint64) (*platform.Platform, error)
	}{
		{"cold", false, func(size uint64) (*platform.Platform, error) {
			return platform.New(platform.Config{RAMSize: size})
		}},
		{"from-state", true, func(size uint64) (*platform.Platform, error) {
			img, err := mem.NewImage(platform.RAMBase, size, nil)
			if err != nil {
				t.Fatal(err)
			}
			small := *st
			small.RAM = img
			return platform.NewFromState(platform.Config{}, &small)
		}},
	}
	for _, arm := range arms {
		for _, size := range []uint64{4096, 512 << 10, 1<<20 + 100, platform.MinRAMSize - 4096, platform.MinRAMSize + 8} {
			if arm.pageGranular && size%mem.PageSize != 0 {
				continue
			}
			p, err := arm.build(size)
			if err == nil {
				p.Close()
				t.Errorf("%s: RAMSize %d accepted", arm.name, size)
				continue
			}
			for _, want := range []string{"RAMSize", "16 MiB"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: RAMSize %d: error %q does not mention %q", arm.name, size, err, want)
				}
			}
		}
	}
	if n := recycled.Load(); n != 0 {
		t.Errorf("refused sizes acquired and recycled RAM %d times", n)
	}

	// A state whose RAM image is based anywhere but RAMBase would put main
	// memory where the devices, the firmware and the allocator do not
	// expect it (its first run never returned): refused up front, too.
	moved := *st
	if moved.RAM, err = mem.NewImage(platform.RAMBase+0x1000, st.RAM.Size(), st.RAM.Data()); err != nil {
		t.Fatal(err)
	}
	if p, err := platform.NewFromState(platform.Config{}, &moved); err == nil {
		p.Close()
		t.Error("from-state: RAM image based at RAMBase+0x1000 accepted")
	} else {
		for _, want := range []string{fmt.Sprintf("%#x", moved.RAM.Base()), fmt.Sprintf("%#x", uint64(platform.RAMBase))} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("from-state: moved base: error %q does not mention %s", err, want)
			}
		}
	}
	if n := recycled.Load(); n != 0 {
		t.Errorf("refused states acquired and recycled RAM %d times", n)
	}

	// A failure past the RAM acquisition: a snapshot whose allocator state
	// does not parse.
	bad := *st
	bad.Alloc.Next++
	if p, err := platform.NewFromState(platform.Config{}, &bad); err == nil {
		p.Close()
		t.Error("corrupt allocator state accepted")
	}
	if n := recycled.Load(); n != 1 {
		t.Errorf("failed restore recycled its RAM %d times, want 1", n)
	}
	if after := goroutinesBackTo(before); after > before {
		t.Errorf("goroutines: %d before the failed constructors, %d after", before, after)
	}

	// The intact state still restores, into the RAM the failure returned.
	p, err := platform.NewFromState(platform.Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
}

// settledGoroutines returns the goroutine count once it has held still for
// 50 ms, reading for at most 2 s. A goroutine an earlier test joined may
// still be on its way out: a Job Manager calls wg.Done in a defer, so
// Device.Close returns before the goroutine has exited.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), time.Now()
	for deadline := still.Add(2 * time.Second); time.Now().Before(deadline) && time.Since(still) < 50*time.Millisecond; {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		}
	}
	return n
}

// goroutinesBackTo waits at most 2 s for the goroutine count to fall to
// want, and returns the last count read: one that stays above want is a
// goroutine that outlived its join.
func goroutinesBackTo(want int) int {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if n := runtime.NumGoroutine(); n <= want || time.Now().After(deadline) {
			return n
		}
	}
}
