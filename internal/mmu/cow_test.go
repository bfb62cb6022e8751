package mmu

import (
	"bytes"
	"testing"

	"mobilesim/internal/mem"
)

// cowEnv builds an address space with one RW mapping over RAM carrying a
// known pattern, captures an image, and returns a walker over a fork of
// it plus the image.
func cowEnv(t *testing.T) (*Walker, *mem.Image, uint64, uint64) {
	t.Helper()
	const va, pa = uint64(0x4000_0000), uint64(0x0050_0000)
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
	for i := uint64(0); i < mem.PageSize; i += 8 {
		if err := bus.Write(pa+i, 8, 0x5151_5151_5151_5151); err != nil {
			t.Fatal(err)
		}
	}
	img, err := ram.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	if pa+mem.PageSize > img.CapturedBytes() {
		t.Fatalf("pattern page %#x beyond captured %#x", pa, img.CapturedBytes())
	}
	w := NewWalker(mem.NewBus(mem.ForkRAM(img)))
	w.SetRoot(as.Root()) // the page tables were forked with the rest
	return w, img, va, pa
}

// untouched fails the test unless the pattern page is intact both in the
// image and in a fresh sibling fork of it: nothing a fork does through its
// walker may reach either.
func untouched(t *testing.T, img *mem.Image, pa uint64) {
	t.Helper()
	want := bytes.Repeat([]byte{0x51}, mem.PageSize)
	if !bytes.Equal(img.Data()[pa:pa+mem.PageSize], want) {
		t.Fatal("the fork's accesses changed the image")
	}
	sibling := mem.ForkRAM(img)
	defer sibling.Recycle()
	got := make([]byte, mem.PageSize)
	if err := mem.NewBus(sibling).ReadBytes(pa, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the fork's accesses changed what a sibling fork reads (%v)", err)
	}
}

// TestCowReadDoesNotPrivatize: loads through a fork's walker return the
// image's content.
func TestCowReadDoesNotPrivatize(t *testing.T) {
	w, img, va, pa := cowEnv(t)
	for off := uint64(0); off < 256; off += 8 {
		v, err := w.Load(va+off, 8, mem.Read)
		if err != nil || v != 0x5151_5151_5151_5151 {
			t.Fatalf("load %#x: %#x (%v)", va+off, v, err)
		}
	}
	untouched(t, img, pa)
}

// TestCowFirstStoreUpgradesView: a store through the view a load cached
// lands in the fork — and only there — without another walk.
func TestCowFirstStoreUpgradesView(t *testing.T) {
	w, img, va, pa := cowEnv(t)
	if _, err := w.Load(va, 8, mem.Read); err != nil {
		t.Fatal(err)
	}
	walks := w.Walks
	if err := w.Store(va+16, 8, 0xbeef); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Load(va+16, 8, mem.Read); err != nil || v != 0xbeef {
		t.Fatalf("readback %#x (%v)", v, err)
	}
	if v, err := w.Load(va+24, 8, mem.Read); err != nil || v != 0x5151_5151_5151_5151 {
		t.Fatalf("page remainder %#x (%v)", v, err)
	}
	if err := w.Store(va+32, 8, 0xcafe); err != nil {
		t.Fatal(err)
	}
	if w.Walks != walks {
		t.Fatalf("stores through the cached view walked (%d -> %d)", walks, w.Walks)
	}
	untouched(t, img, pa)
}

// TestCowSharedWalkerBulk exercises the walker's atomic bulk paths over a
// fork: bulk reads of image content, bulk writes that stay in the fork.
func TestCowSharedWalkerBulk(t *testing.T) {
	w, img, va, pa := cowEnv(t)
	dst := make([]byte, 128)
	if err := w.ReadBytes(va+64, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0x51 {
		t.Fatalf("bulk read %#x", dst[0])
	}
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	if err := w.WriteBytes(va+128, src); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 64)
	if err := w.ReadBytes(va+128, back); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != byte(i) {
			t.Fatalf("bulk readback[%d] = %#x", i, back[i])
		}
	}
	untouched(t, img, pa)
}
