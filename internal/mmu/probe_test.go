package mmu

import (
	"testing"

	"mobilesim/internal/mem"
)

// HitPage and FillPage are the warp engine's TLB probe for the accesses of
// a warp's active lanes to one page (DESIGN.md §3.2, §9). Each contract has
// two halves. Served, the probe counts what n per-access probes would: n
// hits, or — FillPage, on a miss — one walk, n-1 hits and the fill, with
// its touched bit and dirty mark. Declined, it leaves the walker's counters
// and TLB untouched and reads no device, so the per-access path that
// follows does every piece of accounting itself, a fault's included.

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

// forkEnv is a forked RAM holding a read-write mapping of va to pa that
// its image does not capture, and a walker over it with touched-page
// tracking on.
func forkEnv(t *testing.T) (img *mem.Image, fork *mem.RAM, w *Walker, va, pa uint64) {
	t.Helper()
	va, pa = 0x4000_0000, 0x00C0_0000 // above everything the image captures
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
	if img, err = ram.CaptureImage(); err != nil {
		t.Fatal(err)
	}
	if img.CapturedBytes() > pa {
		t.Fatalf("the image captured the target page (%#x bytes)", img.CapturedBytes())
	}
	fork = mem.ForkRAM(img)
	t.Cleanup(fork.Recycle)
	w = NewWalker(mem.NewBus(fork))
	w.SetRoot(as.Root()) // the page tables were forked with the rest
	w.ResetTouched()
	return img, fork, w, va, pa
}

// storeCaptured stores a word through page at va+16 and reports whether
// fork's next capture holds it: whether the page was marked dirty when its
// view was cached, since the store bypasses the bus.
func storeCaptured(t *testing.T, fork *mem.RAM, page *[mem.PageSize]byte, va, pa uint64) bool {
	t.Helper()
	mem.LaneStore32(page, va+16, 0xbeef)
	next, err := fork.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	return next.CapturedBytes() > pa+16 && next.Data()[pa+16] == 0xef
}

// TestHitPageCowWrite pins the fork interaction of a store the warp engine
// serves through the probe: the page it returns is the fork's own, and the
// fill it hits marked the page dirty — the store bypasses the bus, so the
// walk that cached the view is the only place that can — so the fork's
// next capture holds the stored word and the image and a sibling fork do
// not.
func TestHitPageCowWrite(t *testing.T) {
	img, fork, w, va, pa := forkEnv(t)
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
	if !storeCaptured(t, fork, page, va, pa) {
		t.Errorf("the fork's capture misses the stored word: its page was never marked dirty")
	}
	if v, err := w.Load(va+16, 4, mem.Read); err != nil || v != 0xbeef {
		t.Fatalf("readback through the walker: %#x (%v)", v, err)
	}
	sibling := mem.ForkRAM(img)
	defer sibling.Recycle()
	if v, err := mem.NewBus(sibling).Read(pa+16, 4); err != nil || v != 0 {
		t.Errorf("a sibling fork reads %#x (%v), want 0", v, err)
	}
}

// TestFillPageCountsPerAccess: a miss FillPage serves counts one walk and
// n-1 hits, records the page as touched, marks it dirty for the store
// through the view and leaves the entry filled, so the next probe hits
// without walking.
func TestFillPageCountsPerAccess(t *testing.T) {
	_, fork, w, va, pa := forkEnv(t)
	page := w.FillPage(va+8, mem.Write, 4)
	if page == nil {
		t.Fatal("FillPage declined a store miss on a writable RAM page")
	}
	if w.Walks != 1 || w.Hits != 3 {
		t.Errorf("fill of 4 accesses: walks=%d hits=%d, want 1/3", w.Walks, w.Hits)
	}
	var touched []uint64
	w.ForEachTouched(func(vpn uint64) { touched = append(touched, vpn) })
	if len(touched) != 1 || touched[0] != va>>12 {
		t.Errorf("touched pages %#x, want [%#x]", touched, va>>12)
	}
	if !storeCaptured(t, fork, page, va, pa) {
		t.Errorf("the fork's capture misses the stored word: the fill did not mark the page dirty")
	}
	if w.HitPage(va, mem.Read, 1) != page || w.Walks != 1 || w.Hits != 4 {
		t.Errorf("probe after the fill: walks=%d hits=%d, want a hit on the filled page (1/4)", w.Walks, w.Hits)
	}
}

// TestFillPageDeclineLeavesWalkerUntouched drives every decline — a
// translation fault, a permission fault, an MMIO frame, an entry the TLB
// already holds and a page table in a device range — and requires no
// counter movement, no device read and no TLB fill: the per-access
// Translate that follows still misses, or, for the held entry, hits. The
// held entry is read-only and the tables have since made its page
// writable, so only the held entry declines the store: the per-access
// path faults on it.
func TestFillPageDeclineLeavesWalkerUntouched(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const roVA, roPA, heldVA, heldPA = 0x1000, 0x0020_0000, 0x5000, 0x0021_0000
	if err := as.Map(roVA, roPA, PermR); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(heldVA, heldPA, PermR); err != nil {
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
		root  uint64
		prime bool // load va first, so the TLB holds its entry
	}{
		{"translation_fault", 0xdead_0000, mem.Read, as.Root(), false},
		{"permission_fault", roVA, mem.Write, as.Root(), false},
		{"mmio_frame", mmioVA, mem.Read, as.Root(), false},
		{"entry_held", heldVA, mem.Write, as.Root(), true},
		{"table_in_device_range", roVA, mem.Read, testDevBase, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWalker(bus)
			w.SetRoot(tc.root)
			w.ResetTouched()
			if tc.prime {
				if _, err := w.Load(tc.va, 4, mem.Read); err != nil {
					t.Fatal(err)
				}
				if err := as.Map(heldVA, heldPA, PermR|PermW); err != nil {
					t.Fatal(err)
				}
			}
			walks, hits, reads := w.Walks, w.Hits, dev.reads
			if p := w.FillPage(tc.va, tc.kind, 4); p != nil {
				t.Fatalf("FillPage(%#x, %v) served a page", tc.va, tc.kind)
			}
			if w.Walks != walks || w.Hits != hits || dev.reads != reads {
				t.Errorf("decline moved walks/hits/device reads %d/%d/%d -> %d/%d/%d",
					walks, hits, reads, w.Walks, w.Hits, dev.reads)
			}
			touched := 0
			w.ForEachTouched(func(uint64) { touched++ })
			if want := map[bool]int{true: 1}[tc.prime]; touched != want {
				t.Errorf("%d pages touched, want %d", touched, want)
			}
			w.Translate(tc.va, mem.Read)
			if tc.prime && (w.Walks != walks || w.Hits != hits+1) || !tc.prime && (w.Walks != walks+1 || w.Hits != hits) {
				t.Errorf("Translate after the decline: walks/hits %d/%d -> %d/%d: the TLB changed",
					walks, hits, w.Walks, w.Hits)
			}
		})
	}
}
