package mem

import (
	"sync"
	"testing"
	"unsafe"
)

// alignedView returns an n-byte view starting on a host word boundary.
// Production views (RAM backing stores and 4 KiB page views carved from
// them) are page-aligned large allocations; small test slices are not
// guaranteed word alignment, especially under -race.
func alignedView(n int) []byte {
	buf := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), n)
}

// TestAtomicAccessorsMatchPlain checks that the atomic accessors are
// bit-compatible with the plain LE accessors for every size and every
// in-word alignment, including word- and dword-crossing offsets.
func TestAtomicAccessorsMatchPlain(t *testing.T) {
	view := alignedView(64)
	for i := range view {
		view[i] = byte(0xA0 + i)
	}
	ref := append([]byte(nil), view...)

	for _, size := range []int{1, 2, 4, 8} {
		for off := uint64(0); off+uint64(size) <= 32; off++ {
			want := loadLE(ref[off : off+uint64(size)])
			if got := AtomicLoadLE(view, off, size); got != want {
				t.Errorf("AtomicLoadLE(off=%d, size=%d) = %#x, want %#x", off, size, got, want)
			}
		}
	}

	for _, size := range []int{1, 2, 4, 8} {
		for off := uint64(0); off+uint64(size) <= 32; off++ {
			val := uint64(0x1122334455667788) >> (off % 8)
			AtomicStoreLE(view, off, size, val)
			storeLE(ref[off:off+uint64(size)], size, val)
			for i := range view {
				if view[i] != ref[i] {
					t.Fatalf("after AtomicStoreLE(off=%d, size=%d): byte %d = %#x, want %#x",
						off, size, i, view[i], ref[i])
				}
			}
		}
	}
}

func TestAtomicBulkMatchesCopy(t *testing.T) {
	view := alignedView(256)
	for i := range view {
		view[i] = byte(i)
	}
	// Every (offset, length) pair around word boundaries.
	for off := uint64(0); off < 8; off++ {
		for n := 0; n < 24; n++ {
			dst := make([]byte, n)
			AtomicReadBytes(view, off, dst)
			for i := range dst {
				if dst[i] != view[off+uint64(i)] {
					t.Fatalf("AtomicReadBytes(off=%d, n=%d): byte %d = %#x", off, n, i, dst[i])
				}
			}
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(0x80 + i)
			}
			want := append([]byte(nil), view...)
			copy(want[off:], src)
			got := alignedView(len(view))
			copy(got, view)
			AtomicWriteBytes(got, off, src)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("AtomicWriteBytes(off=%d, n=%d): byte %d = %#x, want %#x",
						off, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAtomicNeighbouringBytesCompose is the sub-word contract: concurrent
// stores to the four bytes of one word must all survive (a plain store
// would lose neighbours to the read-modify-write of the containing word,
// and the race detector would flag it).
func TestAtomicNeighbouringBytesCompose(t *testing.T) {
	view := alignedView(8)
	var wg sync.WaitGroup
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				AtomicStoreLE(view, uint64(lane), 1, uint64(0x10+lane))
			}
		}(lane)
	}
	wg.Wait()
	for lane := 0; lane < 4; lane++ {
		if got := AtomicLoadLE(view, uint64(lane), 1); got != uint64(0x10+lane) {
			t.Errorf("byte %d = %#x, want %#x", lane, got, 0x10+lane)
		}
	}
}

// TestAtomicConcurrentWordHammer drives aligned word and dword traffic
// from several goroutines at the same addresses; under -race this is the
// proof that the accessors give guest races defined host semantics.
func TestAtomicConcurrentWordHammer(t *testing.T) {
	ram := NewRAM(0x1000, 1<<16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := ram.AtomicWrite(0x1000, 4, uint64(g)); err != nil {
					t.Error(err)
					return
				}
				if _, err := ram.AtomicRead(0x1000, 4); err != nil {
					t.Error(err)
					return
				}
				if err := ram.AtomicWrite(0x2000, 8, uint64(g)<<32|uint64(g)); err != nil {
					t.Error(err)
					return
				}
				if _, err := ram.AtomicRead(0x2000, 8); err != nil {
					t.Error(err)
					return
				}
				Fence()
				LoadFence()
			}
		}(g)
	}
	wg.Wait()
	v, err := ram.AtomicRead(0x1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v > 7 {
		t.Errorf("word holds %#x, want one of the stored values", v)
	}
}

// TestBusAtomicRoutesMMIO checks that the atomic bus paths keep the
// plain paths' routing: RAM goes word-atomic, devices still get register
// calls, unmapped is a bus error.
func TestBusAtomicRoutesMMIO(t *testing.T) {
	bus := NewBus(NewRAM(0, 1<<16))
	dev := &recordingDevice{}
	if err := bus.MapDevice("dev", 0x10_0000, 0x1000, dev); err != nil {
		t.Fatal(err)
	}
	if err := bus.AtomicWrite(0x100, 4, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if v, err := bus.AtomicRead(0x100, 4); err != nil || v != 0xDEAD {
		t.Fatalf("RAM atomic round trip = %#x, %v", v, err)
	}
	if err := bus.AtomicWrite(0x10_0004, 4, 7); err != nil {
		t.Fatal(err)
	}
	if dev.writes != 1 {
		t.Errorf("device writes = %d, want 1", dev.writes)
	}
	if _, err := bus.AtomicRead(0x10_0004, 4); err != nil {
		t.Fatal(err)
	}
	if dev.reads != 1 {
		t.Errorf("device reads = %d, want 1", dev.reads)
	}
	if _, err := bus.AtomicRead(0xFFFF_0000, 4); err == nil {
		t.Error("unmapped atomic read did not fail")
	}
	if err := bus.AtomicWriteBytes(0x200, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := bus.AtomicReadBytes(0x200, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != byte(i+1) {
			t.Fatalf("bulk byte %d = %d", i, b)
		}
	}
	if err := bus.AtomicWriteBytes(0x10_0000, []byte{1}); err == nil {
		t.Error("bulk atomic write into MMIO did not fail")
	}
}

// TestAtomicWriteMarksDirtyPage keeps the RAM-recycling contract: atomic
// stores must be scrubbed on Recycle like plain ones.
func TestAtomicWriteMarksDirtyPage(t *testing.T) {
	ram := NewRAM(0, 1<<16)
	if err := ram.AtomicWrite(0x5123, 2, 0xFFFF); err != nil {
		t.Fatal(err)
	}
	if !ram.pageDirty(5) {
		t.Error("dirty map does not cover the atomic store")
	}
	if got := ram.markedTop(); got != 6*PageSize {
		t.Errorf("markedTop = %#x, want %#x", got, 6*PageSize)
	}
}

type recordingDevice struct {
	mu     sync.Mutex
	reads  int
	writes int
	last   uint64
}

func (d *recordingDevice) ReadReg(off uint64, size int) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	return d.last, nil
}

func (d *recordingDevice) WriteReg(off uint64, size int, val uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	d.last = val
	return nil
}

// TestAtomicTailOfOddSizedRAM: the backing store is word-rounded (a byte
// store to the last byte of an odd-sized RAM used to panic looking for
// its containing word) while the guest-visible size and bus-error
// boundary stay exactly as configured.
func TestAtomicTailOfOddSizedRAM(t *testing.T) {
	const size = (1 << 20) + 1
	r := NewRAM(0, size)
	if r.Size() != size {
		t.Fatalf("Size() = %d, want the configured %d", r.Size(), size)
	}
	if err := r.AtomicWrite(r.Size()-1, 1, 0xAB); err != nil {
		t.Fatal(err)
	}
	if v, err := r.AtomicRead(r.Size()-1, 1); err != nil || v != 0xAB {
		t.Fatalf("tail byte = %#x, %v", v, err)
	}
	if err := r.AtomicWrite(r.Size(), 1, 1); err == nil {
		t.Error("store past the configured size did not bus-error")
	}
	if _, err := r.Read(r.Size(), 1); err == nil {
		t.Error("plain read past the configured size did not bus-error")
	}
}

// TestMisalignedAccessWordGranular pins the tearing contract: a
// misaligned access may tear only at word boundaries, never within a
// word. A writer flips an aligned word between all-zeros and all-ones
// while a misaligned reader spans it; the reader must always see the
// covered bytes of that word from one generation. The mirror direction
// checks misaligned stores against an aligned reader.
func TestMisalignedAccessWordGranular(t *testing.T) {
	view := alignedView(16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			AtomicStoreLE(view, 4, 4, 0)
			AtomicStoreLE(view, 4, 4, 0xFFFFFFFF)
		}
	}()
	for i := 0; i < 20000; i++ {
		// off 3, size 4: byte 3 of word 0 plus bytes 4-6 of word 1.
		v := AtomicLoadLE(view, 3, 4)
		mid := v >> 8 & 0xFFFFFF // bytes 4-6, all from one word load
		if mid != 0 && mid != 0xFFFFFF {
			t.Fatalf("misaligned load tore within a word: %#x", v)
		}
	}
	<-done

	done = make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			// Misaligned stores covering bytes 3..6.
			AtomicStoreLE(view, 3, 4, 0)
			AtomicStoreLE(view, 3, 4, 0xFFFFFFFF)
		}
	}()
	for i := 0; i < 20000; i++ {
		w := uint32(AtomicLoadLE(view, 4, 4))
		if mid := w & 0xFFFFFF; mid != 0 && mid != 0xFFFFFF {
			t.Fatalf("misaligned store tore within a word: %#x", w)
		}
	}
	<-done
}

// TestLaneAccessorsMatchPlain checks the lane accessors against the plain
// LE accessors on a page view: every doubleword, word and byte of the page's
// first and last 64 bytes, addressed with the page-number bits a guest VA
// carries above PageMask, which the accessors ignore.
func TestLaneAccessorsMatchPlain(t *testing.T) {
	page := AlignedPage(alignedView(PageSize))
	ref := make([]byte, PageSize)
	for i := range page {
		page[i], ref[i] = byte(0x3c+i*5), byte(0x3c+i*5)
	}
	const va = 0x7_0000_0000 // page-number bits above the offset
	var offs []uint64
	for off := uint64(0); off < 64; off++ {
		offs = append(offs, off, PageSize-64+off)
	}
	for _, off := range offs {
		if off%8 == 0 {
			LaneStore64(page, va+off, 0x0f1e2d3c_4b5a6978^off)
			storeLE(ref[off:off+8], 8, 0x0f1e2d3c_4b5a6978^off)
		}
		if off%4 == 0 {
			if got, want := LaneLoad32(page, va+off), uint32(loadLE(ref[off:off+4])); got != want {
				t.Errorf("LaneLoad32(%#x) = %#x, want %#x", off, got, want)
			}
			LaneStore32(page, va+off, 0xa1b2c3d4^uint32(off))
			storeLE(ref[off:off+4], 4, uint64(0xa1b2c3d4^uint32(off)))
		}
		if got, want := LaneLoad8(page, va+off), uint32(ref[off]); got != want {
			t.Errorf("LaneLoad8(%#x) = %#x, want %#x", off, got, want)
		}
		LaneStore8(page, va+off, 0x100|uint32(off)) // only the low byte lands
		ref[off] = byte(off)
		if string(page[:]) != string(ref) {
			t.Fatalf("after the stores at %#x the page differs from the plain stores", off)
		}
	}
}

// TestViewChecksPanic pins the checks the accessors keep: a word beyond its
// view, a view that is not word-aligned, and a page view that is short or
// misaligned all panic; a nil page view is no page.
func TestViewChecksPanic(t *testing.T) {
	view := alignedView(2 * PageSize)
	for name, f := range map[string]func(){
		"word beyond the view":  func() { AtomicLoadLE(view[:8], 6, 4) },
		"dword beyond the view": func() { AtomicLoadLE(view[:8], 8, 8) },
		"misaligned view":       func() { AtomicLoadLE(view[1:], 0, 4) },
		"misaligned dword":      func() { AtomicStoreLE(view[4:], 0, 8, 1) },
		"short page":            func() { AlignedPage(view[:PageSize-1]) },
		"misaligned page":       func() { AlignedPage(view[4 : 4+PageSize]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	if AlignedPage(nil) != nil {
		t.Error("AlignedPage(nil) is not nil")
	}
}
