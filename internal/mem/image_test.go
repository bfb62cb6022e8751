package mem

import (
	"bytes"
	"sync"
	"testing"
)

// imageFixture builds a small RAM with recognisable content and captures
// it: page 0 holds 0x11.., page 1 holds 0x22.., page 2 is untouched
// (zero), pages beyond the watermark are not captured at all.
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
	img, err := r.CaptureImage(base + 3*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if img.CapturedBytes() != 3*PageSize {
		t.Fatalf("captured %d bytes, want %d", img.CapturedBytes(), 3*PageSize)
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
	if n := f.PrivatizedPages(); n != 0 {
		t.Fatalf("reads privatized %d pages", n)
	}
}

func TestForkWritePrivatizesAndIsolates(t *testing.T) {
	img, base := imageFixture(t)
	a, b := ForkRAM(img), ForkRAM(img)

	if err := a.Write(base+8, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if n := a.PrivatizedPages(); n != 1 {
		t.Fatalf("a privatized %d pages, want 1", n)
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
	if n := b.PrivatizedPages(); n != 0 {
		t.Fatalf("sibling privatized %d pages", n)
	}
}

func TestForkWritePathsPrivatize(t *testing.T) {
	img, base := imageFixture(t)
	paths := []struct {
		name  string
		write func(r *RAM) error
	}{
		{"Write", func(r *RAM) error { return r.Write(base, 4, 1) }},
		{"AtomicWrite", func(r *RAM) error { return r.AtomicWrite(base, 4, 1) }},
		{"Bytes", func(r *RAM) error { r.Bytes(base, 4)[0] = 1; return nil }},
		{"Slice", func(r *RAM) error {
			s, ok := r.Slice(base, 8)
			if !ok {
				t.Fatal("slice refused")
			}
			s[0] = 1
			return nil
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			f := ForkRAM(img)
			if err := p.write(f); err != nil {
				t.Fatal(err)
			}
			if n := f.PrivatizedPages(); n != 1 {
				t.Fatalf("%s privatized %d pages, want 1", p.name, n)
			}
			if img.Data()[0] != 0x11 {
				t.Fatalf("%s mutated the image", p.name)
			}
		})
	}
}

func TestForkBusPaths(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	bus := NewBus(f)

	// Bulk read from a shared page does not privatize.
	dst := make([]byte, 64)
	if err := bus.ReadBytes(base+PageSize/2, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0x11 {
		t.Fatalf("bulk read %#x", dst[0])
	}
	if n := f.PrivatizedPages(); n != 0 {
		t.Fatalf("bulk read privatized %d pages", n)
	}
	// Bulk write crossing a page boundary privatizes both pages.
	src := bytes.Repeat([]byte{0xAB}, 32)
	if err := bus.WriteBytes(base+PageSize-16, src); err != nil {
		t.Fatal(err)
	}
	if n := f.PrivatizedPages(); n != 2 {
		t.Fatalf("crossing write privatized %d pages, want 2", n)
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
}

func TestForkFullPageOverwriteSkipsImageCopy(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	bus := NewBus(f)
	// Overwrite pages 0-1 entirely plus a partial tail into page 2: the
	// fully covered pages must carry exactly src (no stale image bytes),
	// the partial page must keep its image remainder.
	src := bytes.Repeat([]byte{0xEE}, 2*PageSize+64)
	if err := bus.WriteBytes(base, src); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(src))
	if err := bus.ReadBytes(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("full-page overwrite content mismatch")
	}
	if v, _ := f.Read(base+2*PageSize+64, 8); v != 0 { // page 2 was zero in the image
		t.Fatalf("partial-page remainder %#x", v)
	}
	if n := f.PrivatizedPages(); n != 3 {
		t.Fatalf("privatized %d pages, want 3", n)
	}
	if img.Data()[0] != 0x11 {
		t.Fatal("overwrite mutated the image")
	}
}

func TestForkReadCrossingSharedPrivateBoundary(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	// Privatize page 0 only; page 1 stays shared.
	if err := f.Write(base, 1, 0x99); err != nil {
		t.Fatal(err)
	}
	// 8-byte read crossing from private page 0 into shared page 1.
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
}

func TestForkZeroPageSkipsCopy(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	ZeroPage(f, base) // page 0 holds 0x11.. in the image
	if v, _ := f.Read(base+128, 8); v != 0 {
		t.Fatalf("zeroed page reads %#x", v)
	}
	if n := f.PrivatizedPages(); n != 1 {
		t.Fatalf("ZeroPage privatized %d pages, want 1", n)
	}
	if img.Data()[128] != 0x11 {
		t.Fatal("ZeroPage mutated the image")
	}
}

func TestForkPageView(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	view, ro, ok := f.PageView(base, false)
	if !ok || !ro {
		t.Fatalf("read view ro=%v ok=%v", ro, ok)
	}
	if view[0] != 0x11 {
		t.Fatalf("read view content %#x", view[0])
	}
	if n := f.PrivatizedPages(); n != 0 {
		t.Fatal("read view privatized")
	}
	wview, ro, ok := f.PageView(base, true)
	if !ok || ro {
		t.Fatalf("write view ro=%v ok=%v", ro, ok)
	}
	wview[0] = 0x77
	if v, _ := f.Read(base, 1); v != 0x77 {
		t.Fatalf("write through view invisible: %#x", v)
	}
	if img.Data()[0] != 0x11 {
		t.Fatal("write view mutated the image")
	}
	// Unaligned or out-of-range pages are refused.
	if _, _, ok := f.PageView(base+8, false); ok {
		t.Fatal("unaligned PageView accepted")
	}
	if _, _, ok := f.PageView(base+1<<30, false); ok {
		t.Fatal("out-of-range PageView accepted")
	}
}

func TestForkRecycleScrubsOnlyPrivatePages(t *testing.T) {
	img, base := imageFixture(t)
	f := ForkRAM(img)
	if err := f.Write(base+PageSize, 4, 0xdead); err != nil {
		t.Fatal(err)
	}
	words := f.words
	// A sentinel planted behind the dirty map's back, in a still-shared
	// page, shows what Recycle clears: the one private page and no other
	// (the boot allocations live in the shared image, not in this store).
	words[2*PageSize] = 0xAA
	f.Recycle()
	if words[2*PageSize] != 0xAA {
		t.Fatal("Recycle cleared a page that was never marked")
	}
	words[2*PageSize] = 0 // the store is parked: leave it clean
	for i, b := range words[:3*PageSize] {
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
	img2, err := f.CaptureImage(base + 3*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// The re-captured image sees the fork's logical contents: its write
	// plus the inherited shared pages.
	f2 := ForkRAM(img2)
	if v, _ := f2.Read(base+8, 4); v != 0xfeedface {
		t.Fatalf("recaptured write %#x", v)
	}
	if v, _ := f2.Read(base+PageSize, 8); v != 0x2222_2222_2222_2222 {
		t.Fatalf("recaptured shared page %#x", v)
	}
}

// TestForkConcurrentAccess hammers one fork from many goroutines —
// concurrent privatization, atomic stores and atomic loads on the same
// pages — and must stay race-clean under -race.
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

// TestSiblingForksConcurrent runs two forks of one image concurrently;
// each writes its own pattern and must read it back unperturbed.
func TestSiblingForksConcurrent(t *testing.T) {
	img, base := imageFixture(t)
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
	for i := 0; i < 3*PageSize; i += PageSize {
		if i == 0 && img.Data()[0] != 0x11 {
			t.Fatal("image mutated")
		}
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
	if _, err := r.CaptureImage(0); err == nil {
		t.Fatal("unaligned RAM imaged")
	}
}
