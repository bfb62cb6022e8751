package mmu

import (
	"testing"

	"mobilesim/internal/mem"
)

// HitPage is the warp engine's one TLB probe per full warp (DESIGN.md §9).
// Its contract has two halves. On a hit it counts the n accesses' hits, as
// n per-access probes would. On anything else — a miss, a permission the
// entry refuses, an MMIO frame — it leaves the walker's counters and TLB
// untouched, so the per-access path that follows does every piece of
// accounting itself, a fault's included.

func TestHitPageCountsPerAccess(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x3000, 0x0040_0000
	if err := as.Map(va, pa, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	if _, err := w.Load(va, 4, mem.Read); err != nil { // prime the TLB
		t.Fatal(err)
	}
	page := w.HitPage(va+8, mem.Read, 4)
	if page == nil {
		t.Fatalf("HitPage on a primed TLB entry declined")
	}
	if w.Walks != 1 || w.Hits != 4 {
		t.Errorf("probe of 4 accesses: walks=%d hits=%d, want 1/4", w.Walks, w.Hits)
	}
	if err := bus.Write(pa+8, 4, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if v := mem.LaneLoad32(page, va+8); v != 0xfeed {
		t.Errorf("lane load through the probed page: %#x, want 0xfeed", v)
	}
}

// TestHitPageDeclineLeavesWalkerUntouched drives every decline and requires
// no counter movement and no TLB fill, so the per-access path starts from
// the state the interpreter would have seen.
func TestHitPageDeclineLeavesWalkerUntouched(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const roVA, roPA = 0x1000, 0x0020_0000
	if err := as.Map(roVA, roPA, PermR); err != nil {
		t.Fatal(err)
	}
	dev := &recordingDev{}
	if err := bus.MapDevice("probe", testDevBase, mem.PageSize, dev); err != nil {
		t.Fatal(err)
	}
	const mmioVA = 0x9000
	if err := as.Map(mmioVA, testDevBase, PermR|PermW); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		va    uint64
		kind  mem.AccessKind
		prime bool // load va first, so the TLB holds its entry
	}{
		{"translation_fault", 0xdead_0000, mem.Read, false},
		{"permission_fault", roVA, mem.Write, true},
		{"mmio_miss_path", mmioVA, mem.Read, false},
		{"mmio_hit_path", mmioVA, mem.Read, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWalker(bus)
			w.SetRoot(as.Root())
			if tc.prime {
				if _, err := w.Load(tc.va, 4, mem.Read); err != nil {
					t.Fatal(err)
				}
			}
			walks, hits, reads := w.Walks, w.Hits, dev.reads
			if p := w.HitPage(tc.va, tc.kind, 4); p != nil {
				t.Fatalf("HitPage(%#x, %v) served a page", tc.va, tc.kind)
			}
			if w.Walks != walks || w.Hits != hits || dev.reads != reads {
				t.Errorf("decline moved walks/hits/device reads %d/%d/%d -> %d/%d/%d",
					walks, hits, reads, w.Walks, w.Hits, dev.reads)
			}
			if tc.prime {
				return
			}
			// No TLB entry may have been planted: the next Translate does
			// (and accounts) the walk itself.
			if _, fault := w.Translate(roVA, mem.Read); fault != nil {
				t.Fatal(fault)
			}
			if w.Walks != 1 || w.Hits != 0 {
				t.Errorf("walk after decline: walks=%d hits=%d, want 1/0", w.Walks, w.Hits)
			}
		})
	}
}

// TestHitPageCowWrite pins the fork interaction of a store the warp engine
// serves through the probe: the page it returns is the fork's own, and the
// fill it hits marked the page dirty — the store bypasses the bus, so the
// walk that cached the view is the only place that can — so the fork's
// next capture holds the stored word and the image and a sibling fork do
// not.
func TestHitPageCowWrite(t *testing.T) {
	const va, pa = uint64(0x4000_0000), uint64(0x00C0_0000) // above everything the image captures
	ram := mem.NewRAM(0, 16<<20)
	bus := mem.NewBus(ram)
	alloc, err := mem.NewPageAllocator(1<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	as, err := NewAddressSpace(bus, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Map(va, pa, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	img, err := ram.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	if img.CapturedBytes() > pa {
		t.Fatalf("the image captured the target page (%#x bytes)", img.CapturedBytes())
	}
	fork := mem.ForkRAM(img)
	defer fork.Recycle()
	w := NewWalker(mem.NewBus(fork))
	w.SetRoot(as.Root())                               // the page tables were forked with the rest
	if _, err := w.Load(va, 4, mem.Read); err != nil { // a read fills the entry
		t.Fatal(err)
	}
	walks := w.Walks

	page := w.HitPage(va, mem.Write, 4)
	if page == nil {
		t.Fatal("HitPage declined a store to a writable page a load cached")
	}
	if w.Walks != walks {
		t.Errorf("the probe walked (%d -> %d)", walks, w.Walks)
	}
	mem.LaneStore32(page, va+16, 0xbeef)
	if v, err := w.Load(va+16, 4, mem.Read); err != nil || v != 0xbeef {
		t.Fatalf("readback through the walker: %#x (%v)", v, err)
	}
	next, err := fork.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	if next.CapturedBytes() <= pa+16 || next.Data()[pa+16] != 0xef {
		t.Errorf("the fork's capture misses the stored word (%#x bytes captured): its page was never marked dirty", next.CapturedBytes())
	}
	sibling := mem.ForkRAM(img)
	defer sibling.Recycle()
	if v, err := mem.NewBus(sibling).Read(pa+16, 4); err != nil || v != 0 {
		t.Errorf("a sibling fork reads %#x (%v), want 0", v, err)
	}
}
