package mem

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

// imageFixture builds a small RAM with recognisable content and captures
// it: page 0 holds 0x11.., page 1 holds 0x22.., page 2 is marked but
// zero (so the image has two content pages of three), pages beyond the
// highest dirty page are not captured at all.
func imageFixture(t *testing.T) (*Image, uint64) {
	t.Helper()
	const base = uint64(0x8000_0000)
	r := NewRAM(base, 16*PageSize)
	for i := 0; i < PageSize; i++ {
		if err := r.Write(base+uint64(i), 1, 0x11); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Write(base+PageSize, 8, 0x2222_2222_2222_2222); err != nil {
		t.Fatal(err)
	}
	ZeroPage(r, base+2*PageSize)
	img, err := r.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	if img.CapturedBytes() != 3*PageSize {
		t.Fatalf("captured %d bytes, want %d", img.CapturedBytes(), 3*PageSize)
	}
	if !slices.Equal(img.content, []uint64{0, 1}) {
		t.Fatalf("content pages %v, want [0 1]", img.content)
	}
	return img, base
}

func TestForkReadsImageContent(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	if v, err := f.Read(base, 4); err != nil || v != 0x11111111 {
		t.Fatalf("page0 read %#x (%v)", v, err)
	}
	if v, err := f.Read(base+PageSize, 8); err != nil || v != 0x2222_2222_2222_2222 {
		t.Fatalf("page1 read %#x (%v)", v, err)
	}
	// Beyond the captured prefix: zero.
	if v, err := f.Read(base+5*PageSize, 8); err != nil || v != 0 {
		t.Fatalf("uncaptured read %#x (%v)", v, err)
	}
	// A fresh fork starts with exactly the image's content pages marked,
	// and reading marks nothing.
	if got := f.DirtyPages(); !slices.Equal(got, img.content) {
		t.Fatalf("fresh fork has pages %v marked, want the content pages %v", got, img.content)
	}
}

func TestForkWritePrivatizesAndIsolates(t *testing.T) {
	img, base := imageFixture(t)
	a, b := ForkRAM(img), ForkRAM(img)

	if err := a.Write(base+8, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	// a sees its own write and the rest of the page's image content.
	if v, _ := a.Read(base+8, 4); v != 0xdeadbeef {
		t.Fatalf("a readback %#x", v)
	}
	if v, _ := a.Read(base+12, 4); v != 0x11111111 {
		t.Fatalf("a page remainder %#x", v)
	}
	// The sibling and the image are untouched.
	if v, _ := b.Read(base+8, 4); v != 0x11111111 {
		t.Fatalf("write leaked into sibling: %#x", v)
	}
	if got := img.Data()[8]; got != 0x11 {
		t.Fatalf("write leaked into image: %#x", got)
	}
}

// TestForkWritePathsPrivatize: a store through each write entry point of
// fork A lands in A and is invisible in sibling fork B and in the image.
// (The MMU's cached views and the guest CPU's store view have their own
// isolation tests in mmu, cpu and TestForkIsolation.)
func TestForkWritePathsPrivatize(t *testing.T) {
	img, base := imageFixture(t)
	one := []byte{1, 0, 0, 0}
	paths := []struct {
		name  string
		write func(r *RAM) error
		want  uint64 // what the fork then reads at base
	}{
		{"Write", func(r *RAM) error { return r.Write(base, 4, 1) }, 1},
		{"AtomicWrite", func(r *RAM) error { return r.AtomicWrite(base, 4, 1) }, 1},
		{"WriteBytes", func(r *RAM) error { return NewBus(r).WriteBytes(base, one) }, 1},
		{"AtomicWriteBytes", func(r *RAM) error { return NewBus(r).AtomicWriteBytes(base, one) }, 1},
		{"Bytes", func(r *RAM) error { copy(r.Bytes(base, 4), one); return nil }, 1},
		{"ZeroPage", func(r *RAM) error { ZeroPage(r, base); return nil }, 0},
		{"PageView", func(r *RAM) error { copy(NewBus(r).PageView(base+8), one); return nil }, 1},
	}
	before := bytes.Clone(img.Data())
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			a, b := ForkRAM(img), ForkRAM(img)
			if err := p.write(a); err != nil {
				t.Fatal(err)
			}
			if v, _ := a.Read(base, 4); v != p.want {
				t.Errorf("%s: the fork reads back %#x, want %#x", p.name, v, p.want)
			}
			if v, _ := b.Read(base, 4); v != 0x11111111 {
				t.Errorf("%s leaked into the sibling fork: %#x", p.name, v)
			}
			if !bytes.Equal(img.Data(), before) {
				t.Errorf("%s mutated the image", p.name)
			}
		})
	}
}

func TestForkBusPaths(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	bus := NewBus(f)

	// Bulk read of image content.
	dst := make([]byte, 64)
	if err := bus.ReadBytes(base+PageSize/2, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0x11 {
		t.Fatalf("bulk read %#x", dst[0])
	}
	// Bulk write crossing a page boundary.
	src := bytes.Repeat([]byte{0xAB}, 32)
	if err := bus.WriteBytes(base+PageSize-16, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	if err := bus.ReadBytes(base+PageSize-16, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("crossing write readback %x", got)
	}
	// Atomic bulk paths.
	if err := bus.AtomicWriteBytes(base+2*PageSize-8, bytes.Repeat([]byte{0xCD}, 16)); err != nil {
		t.Fatal(err)
	}
	adst := make([]byte, 16)
	if err := bus.AtomicReadBytes(base+2*PageSize-8, adst); err != nil {
		t.Fatal(err)
	}
	if adst[0] != 0xCD || adst[15] != 0xCD {
		t.Fatalf("atomic crossing readback %x", adst)
	}
	if img.Data()[PageSize-16] != 0x11 || img.Data()[2*PageSize-8] != 0 {
		t.Fatal("a bulk write reached the image")
	}
}

// TestForkReadCrossingSharedPrivateBoundary reads across the two edges a
// fork's contents have: from one content page into the next, and from the
// last captured page into the never-captured zeros beyond the image's end.
func TestForkReadCrossingSharedPrivateBoundary(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	v, err := f.Read(base+PageSize-4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x2222_2222_1111_1111 {
		t.Fatalf("crossing read %#x", v)
	}
	if av, err := f.AtomicRead(base+PageSize-4, 8); err != nil || av != v {
		t.Fatalf("atomic crossing read %#x (%v)", av, err)
	}
	end := base + img.CapturedBytes()
	if err := f.Write(end-4, 4, 0x3333_3333); err != nil {
		t.Fatal(err)
	}
	for _, read := range []func(uint64, int) (uint64, error){f.Read, f.AtomicRead} {
		if v, err := read(end-4, 8); err != nil || v != 0x3333_3333 {
			t.Fatalf("read across the image's end %#x (%v)", v, err)
		}
	}
}

func TestForkPageView(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	bus := NewBus(f)
	view := bus.PageView(base + 8) // any address inside the page names it
	if len(view) != PageSize || view[0] != 0x11 {
		t.Fatalf("view of %d bytes, first %#x", len(view), view[0])
	}
	view[0] = 0x77
	if v, _ := f.Read(base, 1); v != 0x77 {
		t.Fatalf("write through view invisible: %#x", v)
	}
	if img.Data()[0] != 0x11 {
		t.Fatal("write through the view mutated the image")
	}
	// PageView never marks: page 2 is image-zero, so the fork did not mark it.
	if bus.PageView(base+2*PageSize) == nil || f.pageDirty(2) {
		t.Fatal("PageView refused a RAM page or marked it")
	}
	// Pages outside the region have no view.
	if bus.PageView(base+1<<30) != nil || bus.PageView(base-1) != nil {
		t.Fatal("out-of-range PageView accepted")
	}
}

// TestForkRecycleScrubsOnlyPrivatePages: Recycle clears exactly the pages
// the fork copied from the image plus the pages written since — nothing
// else, and those completely.
func TestForkRecycleScrubsOnlyPrivatePages(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	if err := f.Write(base+5*PageSize, 4, 0xdead); err != nil {
		t.Fatal(err)
	}
	if got := f.DirtyPages(); !slices.Equal(got, []uint64{0, 1, 5}) {
		t.Fatalf("marked pages %v, want content [0 1] plus written [5]", got)
	}
	words := f.words
	// A sentinel planted behind the dirty map's back, in a page neither
	// copied nor written, shows that Recycle clears no other page.
	words[2*PageSize] = 0xAA
	f.Recycle()
	if words[2*PageSize] != 0xAA {
		t.Fatal("Recycle cleared a page that was never marked")
	}
	words[2*PageSize] = 0 // the store is parked: leave it clean
	for i, b := range words {
		if b != 0 {
			t.Fatalf("byte %d not scrubbed: %#x", i, b)
		}
	}
}

func TestCaptureImageOfFork(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	if err := f.Write(base+8, 4, 0xfeedface); err != nil {
		t.Fatal(err)
	}
	img2, err := f.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	// The re-captured image holds the fork's contents: its write plus the
	// pages inherited from the first image, up to the highest content page
	// (the zero page 2 was not copied, so it is no longer captured).
	if img2.CapturedBytes() != 2*PageSize {
		t.Fatalf("recaptured %d bytes, want %d", img2.CapturedBytes(), 2*PageSize)
	}
	f2 := ForkRAM(img2)
	if v, _ := f2.Read(base+8, 4); v != 0xfeedface {
		t.Fatalf("recaptured write %#x", v)
	}
	if v, _ := f2.Read(base+PageSize, 8); v != 0x2222_2222_2222_2222 {
		t.Fatalf("recaptured inherited page %#x", v)
	}
	if img.Data()[8] != 0x11 {
		t.Fatal("the fork's write reached the first image")
	}
}

// TestForkConcurrentAccess hammers one fork from many goroutines — atomic
// stores and atomic loads on the same pages — and must stay race-clean
// under -race.
func TestForkConcurrentAccess(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				addr := base + uint64((w*61+i*13)%int(3*PageSize))&^3
				if i%3 == 0 {
					if err := f.AtomicWrite(addr, 4, uint64(w)<<16|uint64(i)); err != nil {
						panic(err)
					}
				} else {
					if _, err := f.AtomicRead(addr, 4); err != nil {
						panic(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSiblingForksConcurrent forks one image from several goroutines at
// once; each fork writes its own pattern and must read it back
// unperturbed, and the image must come through unchanged.
func TestSiblingForksConcurrent(t *testing.T) {
	img, base := imageFixture(t)
	before := bytes.Clone(img.Data())
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			f := ForkRAM(img)
			pat := uint64(0xA0A0_0000) | uint64(s)
			for i := 0; i < 256; i++ {
				addr := base + uint64(i*PageSize/64)&^7
				if err := f.AtomicWrite(addr, 8, pat+uint64(i)); err != nil {
					panic(err)
				}
				if v, err := f.AtomicRead(addr, 8); err != nil || v != pat+uint64(i) {
					t.Errorf("fork %d: readback %#x (%v)", s, v, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if !bytes.Equal(img.Data(), before) {
		t.Fatal("image mutated")
	}
}

func TestImageGeometryValidation(t *testing.T) {
	if _, err := NewImage(0, PageSize+1, nil); err == nil {
		t.Fatal("unaligned size accepted")
	}
	if _, err := NewImage(0, PageSize, make([]byte, 2*PageSize)); err == nil {
		t.Fatal("oversized data accepted")
	}
	r := NewRAM(0x1000, 3*PageSize+8)
	if _, err := r.CaptureImage(); err == nil {
		t.Fatal("unaligned RAM imaged")
	}
}
