package platform_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"mobilesim/internal/asm"
	"mobilesim/internal/cpu"
	"mobilesim/internal/dev"
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
	if len(p.CPUs) != 4 {
		t.Errorf("default core count = %d", len(p.CPUs))
	}
	for _, name := range []string{"memcpy", "memset", "store64", "load64", "gpu_isr", "gpu_submit", "gpu_init", "gpu_status"} {
		if _, err := p.Firmware.Entry(name); err != nil {
			t.Errorf("firmware routine %s missing: %v", name, err)
		}
	}
	// Firmware routines run.
	if _, err := p.CPUs[0].CallRoutine(p.Firmware.MustEntry("memset"),
		platform.RAMBase+0x20_0000, 0xAB, 64); err != nil {
		t.Fatal(err)
	}
	v, err := p.Bus.Read(platform.RAMBase+0x20_0000, 1)
	if err != nil || v != 0xAB {
		t.Errorf("memset result: %v %#x", err, v)
	}
}

func TestGuestHelloWorldThroughUART(t *testing.T) {
	var console bytes.Buffer
	p, err := platform.New(platform.Config{RAMSize: 64 << 20, ConsoleOut: &console})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A bare-metal guest program printing over the UART.
	prog, err := asm.Assemble(`
main:
    movz x1, #0x1000, lsl #16   // UART base
    movz x2, #72                // 'H'
    strw x2, [x1]
    movz x2, #105               // 'i'
    strw x2, [x1]
    movz x2, #10                // newline
    strw x2, [x1]
    hlt
`, platform.RAMBase+0x40_0000)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bus.WriteBytes(prog.Base, prog.Code); err != nil {
		t.Fatal(err)
	}
	c := p.CPUs[1]
	c.Reset(prog.MustEntry("main"))
	if r := c.Run(1000); r != cpu.StopHalted {
		t.Fatalf("guest stopped with %v (%v)", r, c.Err())
	}
	if console.String() != "Hi\n" {
		t.Errorf("console output %q", console.String())
	}
}

// TestGuestWithMMUAndTimerIRQ boots a guest that builds page tables,
// enables translation, installs a vector table, unmasks the timer
// interrupt and services it — the full-system CPU feature set end to end.
func TestGuestWithMMUAndTimerIRQ(t *testing.T) {
	p, err := platform.New(platform.Config{RAMSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Host-side "bootloader" builds an identity map for RAM + devices (as
	// early boot assembly would).
	as, err := mmu.NewAddressSpace(p.Bus, p.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MapRange(platform.RAMBase, platform.RAMBase, 16<<20,
		mmu.PermR|mmu.PermW|mmu.PermX); err != nil {
		t.Fatal(err)
	}
	if err := as.MapRange(platform.TimerBase, platform.TimerBase, dev.TimerSize,
		mmu.PermR|mmu.PermW); err != nil {
		t.Fatal(err)
	}

	// Guest: vectors at +0x0/+0x80; main enables MMU, arms the timer,
	// unmasks IRQs and waits; the IRQ handler acknowledges the timer and
	// sets x20.
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
    movz x3, #0x1001, lsl #16   // timer base
    movz x4, #100
    strx x4, [x3, #8]      // compare = 100
    movz x4, #1
    strw x4, [x3, #0x10]   // enable
spin:
    cmpi x20, #0
    b.eq spin
    hlt
sync_handler:
    hlt
irq_handler:
    movz x3, #0x1001, lsl #16
    strw xzr, [x3, #0x18]  // ack
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
	c := p.CPUs[0]
	p.Intc.Enable(2) // wrong line guard: enable timer line properly below
	p.Intc.Enable(1)
	c.X[0] = as.Root()
	c.X[1] = prog.MustEntry("vectors")
	c.X[20] = 0
	c.Reset(prog.MustEntry("main"))

	// Run in slices, advancing the virtual timer between them.
	for i := 0; i < 100 && !c.Halted(); i++ {
		c.Run(10_000)
		p.Timer.Tick(20)
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
	if !c.Walker().Enabled() {
		t.Error("MMU should be enabled")
	}
	if c.IRQs == 0 {
		t.Error("no IRQ taken")
	}
}

func TestBlockDeviceRoundTripFromGuest(t *testing.T) {
	image := make([]byte, 16*dev.SectorSize)
	copy(image[dev.SectorSize:], []byte("sector-one-data"))
	p, err := platform.New(platform.Config{RAMSize: 64 << 20, DiskImage: image})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Guest reads sector 1 into RAM via MMIO-programmed DMA.
	prog, err := asm.Assemble(`
main:
    movz x1, #0x1002, lsl #16   // block device base
    movz x2, #1
    strx x2, [x1]               // sector = 1
    movz x3, #0x8030, lsl #16   // DMA target
    strx x3, [x1, #8]
    strx x2, [x1, #0x10]        // count = 1
    strx x2, [x1, #0x18]        // command = read
    ldrx x4, [x1, #0x20]        // status
    hlt
`, platform.RAMBase+0x60_0000)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bus.WriteBytes(prog.Base, prog.Code); err != nil {
		t.Fatal(err)
	}
	c := p.CPUs[2]
	c.Reset(prog.MustEntry("main"))
	if r := c.Run(1000); r != cpu.StopHalted {
		t.Fatalf("run: %v (%v)", r, c.Err())
	}
	if c.X[4] != 1 {
		t.Fatalf("status = %d, want done", c.X[4])
	}
	got := make([]byte, 15)
	if err := p.Bus.ReadBytes(0x8030_0000, got); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), "sector-one-data") {
		t.Errorf("DMA data %q", got)
	}
}

func TestMemoryMapNoOverlaps(t *testing.T) {
	p, err := platform.New(platform.Config{RAMSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Each device answers at its base; RAM answers at its base.
	for _, base := range []uint64{platform.UARTBase, platform.TimerBase,
		platform.BlockBase, platform.GPUBase} {
		if _, err := p.Bus.Read(base, 4); err != nil {
			t.Errorf("device at %#x unreachable: %v", base, err)
		}
	}
	if _, err := p.Bus.Read(platform.RAMBase, 8); err != nil {
		t.Errorf("RAM unreachable: %v", err)
	}
	if _, err := p.Bus.Read(0x7000_0000, 4); err == nil {
		t.Error("hole in the map should fault")
	}
	_ = mem.PageSize
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
	before := runtime.NumGoroutine()

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
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d before the failed constructors, %d after", before, after)
	}

	// The intact state still restores, into the RAM the failure returned.
	p, err := platform.NewFromState(platform.Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
}
