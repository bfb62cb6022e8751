package cpu_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mobilesim/internal/asm"
	"mobilesim/internal/cpu"
	"mobilesim/internal/irq"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
)

// The guest load/store host-view fast path (Core.hostView) on a forked
// RAM: it may never serve stale bytes, never reach the image, never leave
// a written page unmarked, and never swallow an access that belongs on the
// bus.

const (
	dpCode   = ramBase          // the accessor routines
	dpPageA  = ramBase + 0x4000 // three data pages captured in the image
	dpPageB  = ramBase + 0x5000
	dpPageC  = ramBase + 0x6000
	dpHeap   = ramBase + 0x10000 // beyond the image: page tables for the MMU test
	dpDevice = 0x1000_0000
)

var dpRoutines = func() *asm.Program {
	p, err := asm.Assemble(`
load64:
    ldrx x0, [x0]
    ret
load32:
    ldrw x0, [x0]
    ret
store64:
    strx x1, [x0]
    ret
store32:
    strw x1, [x0]
    ret
`, dpCode)
	if err != nil {
		panic(err)
	}
	return p
}()

// countingDevice records how often the bus reached it.
type countingDevice struct{ reads, writes int }

func (d *countingDevice) ReadReg(uint64, int) (uint64, error) { d.reads++; return 0xD0D0, nil }
func (d *countingDevice) WriteReg(uint64, int, uint64) error  { d.writes++; return nil }

type dpMachine struct {
	t   *testing.T
	c   *cpu.Core
	bus *mem.Bus
	ram *mem.RAM
	img *mem.Image
	dev *countingDevice
}

// newForkMachine boots a core on a fork of an image that holds the
// routines and three data pages filled with 0xA1, 0xB2 and 0xC3.
func newForkMachine(t *testing.T) *dpMachine {
	t.Helper()
	cold := mem.NewRAM(ramBase, 1<<20)
	coldBus := mem.NewBus(cold)
	for addr, fill := range map[uint64]byte{dpPageA: 0xA1, dpPageB: 0xB2, dpPageC: 0xC3} {
		if err := coldBus.WriteBytes(addr, bytes.Repeat([]byte{fill}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := coldBus.WriteBytes(dpCode, dpRoutines.Code); err != nil {
		t.Fatal(err)
	}
	img, err := cold.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	m := &dpMachine{t: t, img: img, dev: &countingDevice{}}
	m.ram = mem.ForkRAM(img)
	m.bus = mem.NewBus(m.ram)
	if err := m.bus.MapDevice("counter", dpDevice, 0x100, m.dev); err != nil {
		t.Fatal(err)
	}
	m.c = cpu.NewCore(0, m.bus, irq.New())
	return m
}

func (m *dpMachine) call(routine string, args ...uint64) uint64 {
	m.t.Helper()
	v, err := m.c.CallRoutine(dpRoutines.MustEntry(routine), args...)
	if err != nil {
		m.t.Fatalf("%s%#x: %v", routine, args, err)
	}
	return v
}

func (m *dpMachine) hostWrite(addr, val uint64) {
	m.t.Helper()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	if err := m.bus.WriteBytes(addr, b[:]); err != nil {
		m.t.Fatal(err)
	}
}

func TestGuestLoadsNeverGoStale(t *testing.T) {
	for _, engine := range []cpu.Engine{cpu.EngineDBT, cpu.EngineInterp} {
		t.Run(engine.String(), func(t *testing.T) {
			m := newForkMachine(t)
			m.c.SetEngine(engine)
			// The first load caches the page's view; it is the page the
			// host writes, before any guest store to it and after.
			if got := m.call("load64", dpPageA); got != 0xA1A1A1A1A1A1A1A1 {
				t.Fatalf("image content read %#x", got)
			}
			m.hostWrite(dpPageA, 0x1111)
			if got := m.call("load64", dpPageA); got != 0x1111 {
				t.Errorf("load after the first host write to the page = %#x, want 0x1111", got)
			}
			m.hostWrite(dpPageA+8, 0x2222)
			if got := m.call("load64", dpPageA+8); got != 0x2222 {
				t.Errorf("load after a second host write = %#x, want 0x2222", got)
			}
			// A guest store and a guest load see each other through their
			// separate views.
			m.call("store64", dpPageA+16, 0x3333)
			if got := m.call("load64", dpPageA+16); got != 0x3333 {
				t.Errorf("load after guest store = %#x, want 0x3333", got)
			}
			if got, _ := m.bus.Read(dpPageA+16, 8); got != 0x3333 {
				t.Errorf("bus read after guest store = %#x, want 0x3333", got)
			}
		})
	}
}

// TestGuestStorePrivatizesAndMarks: a guest store through the core's store
// view stays in the fork, dirty-marks its page and drops code translated
// from it.
func TestGuestStorePrivatizesAndMarks(t *testing.T) {
	m := newForkMachine(t)
	m.call("load64", dpPageB)
	m.call("store64", dpPageB+64, 0xFEED)
	m.call("store64", dpPageB+72, 0xFACE) // second store: through the cached view
	m.call("store32", dpPageC, 0xBEEF)
	m.call("store64", dpHeap+8, 0xD1D1) // a page the fork did not start with marked
	if got, _ := m.bus.Read(dpPageB+56, 8); got != 0xB2B2B2B2B2B2B2B2 {
		t.Errorf("neighbouring bytes of the stored page = %#x", got)
	}
	if got, _ := m.bus.Read(dpPageB+72, 8); got != 0xFACE {
		t.Errorf("bus read of the guest store = %#x", got)
	}
	// Neither the image nor a sibling fork sees any of it.
	sibling := mem.ForkRAM(m.img)
	defer sibling.Recycle()
	for addr, fill := range map[uint64]byte{dpPageB: 0xB2, dpPageC: 0xC3, dpHeap: 0} {
		want, got := bytes.Repeat([]byte{fill}, mem.PageSize), make([]byte, mem.PageSize)
		if err := mem.NewBus(sibling).ReadBytes(addr, got); err != nil || !bytes.Equal(got, want) {
			t.Errorf("a guest store to %#x reached a sibling fork (%v)", addr, err)
		}
		if off := addr - ramBase; off < m.img.CapturedBytes() && !bytes.Equal(m.img.Data()[off:off+mem.PageSize], want) {
			t.Errorf("a guest store to %#x reached the image", addr)
		}
	}
	// A store into a page holding translated code drops the translation:
	// load32 becomes "movz x0, #7; ret".
	if got := m.call("load32", dpPageA); got != 0xA1A1A1A1 {
		t.Fatalf("load32 before the patch = %#x", got)
	}
	m.call("store32", dpRoutines.MustEntry("load32"), uint64(cpu.Encode(cpu.Inst{Op: cpu.OpMOVZ, Rd: 0, Imm: 7})))
	if got := m.call("load32", dpPageA); got != 7 {
		t.Errorf("patched load32 returned %#x, want 7 (stale translation?)", got)
	}
	// Dirty-marked: the recycler scrubs what the guest wrote.
	audited := false
	mem.SetRecycleAudit(func(store []byte, _ uint64) {
		audited = true
		if i := bytes.IndexFunc(store, func(r rune) bool { return r != 0 }); i >= 0 {
			t.Errorf("recycled store holds a guest byte at offset %#x", i)
		}
	})
	defer mem.SetRecycleAudit(nil)
	m.ram.Recycle()
	if !audited {
		t.Error("recycle audit did not run")
	}
}

func TestDeviceAndPageCrossingAccessesStayOnTheBus(t *testing.T) {
	m := newForkMachine(t)
	for i := 1; i <= 3; i++ {
		if got := m.call("load32", dpDevice+8); got != 0xD0D0 {
			t.Fatalf("device read %#x", got)
		}
		m.call("store32", dpDevice+8, 1)
		if m.dev.reads != i || m.dev.writes != i {
			t.Fatalf("after %d round trips the device saw %d reads, %d writes", i, m.dev.reads, m.dev.writes)
		}
	}
	// Warm both views on page A, then straddle A|B.
	m.call("store64", dpPageA, 1)
	m.call("load64", dpPageA)
	const val = 0x1122334455667788
	m.call("store64", dpPageB-4, val)
	if got := m.call("load64", dpPageB-4); got != val {
		t.Errorf("page-crossing load = %#x, want %#x", got, uint64(val))
	}
	lo, _ := m.bus.Read(dpPageB-4, 4)
	hi, _ := m.bus.Read(dpPageB, 4)
	if lo != val&0xFFFFFFFF || hi != val>>32 {
		t.Errorf("page-crossing store landed as %#x | %#x", lo, hi)
	}
	off := dpPageB - 4 - ramBase
	if !bytes.Equal(m.img.Data()[off:off+8], []byte{0xA1, 0xA1, 0xA1, 0xA1, 0xB2, 0xB2, 0xB2, 0xB2}) {
		t.Error("the page-crossing store reached the image")
	}
}

func TestHostViewsDroppedWhenTheAddressSpaceChanges(t *testing.T) {
	// With translation on, VA page A maps to physical page B.
	setup := func(t *testing.T) (*dpMachine, uint64) {
		m := newForkMachine(t)
		alloc, err := mem.NewPageAllocator(dpHeap, 64*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		as, err := mmu.NewAddressSpace(m.bus, alloc)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.Map(dpCode, dpCode, mmu.PermR|mmu.PermX); err != nil {
			t.Fatal(err)
		}
		if err := as.Map(dpPageA, dpPageB, mmu.PermR|mmu.PermW); err != nil {
			t.Fatal(err)
		}
		return m, as.Root()
	}
	warm := func(m *dpMachine) { // both views now hold physical page A
		m.call("store64", dpPageA, 0xAAAA)
		if got := m.call("load64", dpPageA); got != 0xAAAA {
			m.t.Fatalf("warm-up load %#x", got)
		}
	}
	check := func(m *dpMachine) {
		t := m.t
		t.Helper()
		if got := m.call("load64", dpPageA); got != 0xB2B2B2B2B2B2B2B2 {
			t.Errorf("load through the new mapping = %#x, want page B's bytes", got)
		}
		m.call("store64", dpPageA, 0xBBBB)
		if got, _ := m.bus.Read(dpPageB, 8); got != 0xBBBB {
			t.Errorf("store through the new mapping left page B = %#x", got)
		}
		if got, _ := m.bus.Read(dpPageA, 8); got != 0xAAAA {
			t.Errorf("store through the new mapping hit the old page: %#x", got)
		}
	}
	t.Run("SetSys", func(t *testing.T) {
		m, root := setup(t)
		warm(m)
		m.c.SetSys(cpu.SysTTBR0, root)
		m.c.SetSys(cpu.SysSCTLR, 1)
		check(m)
	})
	t.Run("RestoreState", func(t *testing.T) {
		m, root := setup(t)
		st := m.c.CaptureState()
		st.Sys[cpu.SysTTBR0], st.Sys[cpu.SysSCTLR] = root, 1
		warm(m)
		m.c.RestoreState(st)
		check(m)
	})
}
