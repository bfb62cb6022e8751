package mem

import (
	"testing"
	"testing/quick"
)

func TestRAMReadWriteSizes(t *testing.T) {
	r := NewRAM(0x8000_0000, 1<<16)
	cases := []struct {
		addr uint64
		size int
		val  uint64
	}{
		{0x8000_0000, 1, 0xAB},
		{0x8000_0010, 2, 0xBEEF},
		{0x8000_0020, 4, 0xDEADBEEF},
		{0x8000_0030, 8, 0x0123_4567_89AB_CDEF},
	}
	for _, c := range cases {
		if err := r.Write(c.addr, c.size, c.val); err != nil {
			t.Fatalf("write %d bytes at %#x: %v", c.size, c.addr, err)
		}
		got, err := r.Read(c.addr, c.size)
		if err != nil {
			t.Fatalf("read %d bytes at %#x: %v", c.size, c.addr, err)
		}
		if got != c.val {
			t.Errorf("size %d: got %#x want %#x", c.size, got, c.val)
		}
	}
}

func TestRAMLittleEndian(t *testing.T) {
	r := NewRAM(0, 64)
	if err := r.Write(0, 4, 0x0403_0201); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 3, 4} {
		got, err := r.Read(uint64(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("byte %d: got %d want %d", i, got, want)
		}
	}
}

func TestRAMOutOfRange(t *testing.T) {
	r := NewRAM(0x1000, 0x1000)
	if _, err := r.Read(0xFFF, 1); err == nil {
		t.Error("read below base should fail")
	}
	if _, err := r.Read(0x1FFD, 4); err == nil {
		t.Error("read crossing end should fail")
	}
	if err := r.Write(0x2000, 1, 0); err == nil {
		t.Error("write past end should fail")
	}
	// Last valid byte is fine.
	if _, err := r.Read(0x1FFF, 1); err != nil {
		t.Errorf("last byte read failed: %v", err)
	}
	// An access whose end wraps past 2^64 is outside, not a panic: a guest
	// can form any address.
	if _, err := r.Read(^uint64(0)-3, 8); err == nil {
		t.Error("read wrapping the address space should fail")
	}
	if err := r.Write(^uint64(0), 1, 0); err == nil {
		t.Error("write at the last address should fail")
	}
}

func TestRoundTripProperty(t *testing.T) {
	r := NewRAM(0, 1<<20)
	f := func(off uint32, val uint64, szSel uint8) bool {
		sizes := []int{1, 2, 4, 8}
		size := sizes[int(szSel)%4]
		addr := uint64(off) % (1<<20 - 8)
		if err := r.Write(addr, size, val); err != nil {
			return false
		}
		got, err := r.Read(addr, size)
		if err != nil {
			return false
		}
		mask := ^uint64(0)
		if size < 8 {
			mask = (uint64(1) << (8 * uint(size))) - 1
		}
		return got == val&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type probeDevice struct {
	lastOff  uint64
	lastSize int
	lastVal  uint64
	readVal  uint64
}

func (d *probeDevice) ReadReg(off uint64, size int) (uint64, error) {
	d.lastOff, d.lastSize = off, size
	return d.readVal, nil
}

func (d *probeDevice) WriteReg(off uint64, size int, val uint64) error {
	d.lastOff, d.lastSize, d.lastVal = off, size, val
	return nil
}

func TestBusMMIODispatch(t *testing.T) {
	bus := NewBus(NewRAM(0x8000_0000, 1<<16))
	dev := &probeDevice{readVal: 0x42}
	if err := bus.MapDevice("probe", 0x1000_0000, 0x1000, dev); err != nil {
		t.Fatal(err)
	}
	v, err := bus.Read(0x1000_0010, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x42 || dev.lastOff != 0x10 || dev.lastSize != 4 {
		t.Errorf("MMIO read routed wrong: v=%#x off=%#x size=%d", v, dev.lastOff, dev.lastSize)
	}
	if err := bus.Write(0x1000_0020, 8, 0x99); err != nil {
		t.Fatal(err)
	}
	if dev.lastOff != 0x20 || dev.lastVal != 0x99 {
		t.Errorf("MMIO write routed wrong: off=%#x val=%#x", dev.lastOff, dev.lastVal)
	}
}

func TestBusUnmappedAndOverlap(t *testing.T) {
	bus := NewBus(NewRAM(0x8000_0000, 1<<16))
	if _, err := bus.Read(0x2000_0000, 4); err == nil {
		t.Error("unmapped read should fail")
	}
	dev := &probeDevice{}
	if err := bus.MapDevice("a", 0x1000_0000, 0x1000, dev); err != nil {
		t.Fatal(err)
	}
	if err := bus.MapDevice("b", 0x1000_0800, 0x1000, dev); err == nil {
		t.Error("overlapping device map should fail")
	}
	if err := bus.MapDevice("c", 0x8000_0000, 0x10, dev); err == nil {
		t.Error("device overlapping RAM should fail")
	}
}

func TestBusBulkCopies(t *testing.T) {
	bus := NewBus(NewRAM(0x8000_0000, 1<<16))
	src := []byte{1, 2, 3, 4, 5}
	if err := bus.WriteBytes(0x8000_0100, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 5)
	if err := bus.ReadBytes(0x8000_0100, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("bulk copy mismatch at %d: %d != %d", i, dst[i], src[i])
		}
	}
	if err := bus.ReadBytes(0x8000_FFFF, make([]byte, 8)); err == nil {
		t.Error("bulk read past end should fail")
	}
}

func TestPageAllocator(t *testing.T) {
	alloc, err := NewPageAllocator(0x10000, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		p, err := alloc.AllocPage()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if p%PageSize != 0 {
			t.Fatalf("page %#x not aligned", p)
		}
		if seen[p] {
			t.Fatalf("page %#x handed out twice", p)
		}
		seen[p] = true
	}
	if _, err := alloc.AllocPage(); err == nil {
		t.Error("exhausted allocator should fail")
	}
}

func TestPageAllocatorAlignmentChecked(t *testing.T) {
	if _, err := NewPageAllocator(0x10001, PageSize); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := NewPageAllocator(0x10000, 100); err == nil {
		t.Error("unaligned size accepted")
	}
}

func TestPageAllocatorContiguous(t *testing.T) {
	alloc, _ := NewPageAllocator(0, 8*PageSize)
	base, err := alloc.AllocPages(4)
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 {
		t.Errorf("contiguous base = %#x", base)
	}
	if _, err := alloc.AllocPages(8); err == nil {
		t.Error("oversized contiguous alloc should fail")
	}
}

func TestBusPageViewRejectsMMIO(t *testing.T) {
	bus := NewBus(NewRAM(0x8000_0000, 1<<16))
	if err := bus.MapDevice("probe", 0x1000_0000, 0x1000, &probeDevice{}); err != nil {
		t.Fatal(err)
	}
	if bus.PageView(0x1000_0000) != nil {
		t.Error("PageView must not expose device ranges as bytes")
	}
	if bus.PageView(0x2000_0000) != nil {
		t.Error("PageView must not expose unmapped ranges")
	}
	if v := bus.PageView(0x8000_0040); len(v) != PageSize {
		t.Errorf("RAM page view refused: len %d", len(v))
	}
}

// TestBusMMIOTableSorted registers devices out of order and checks the
// binary-searched dispatch finds each one, including boundary addresses.
func TestBusMMIOTableSorted(t *testing.T) {
	bus := NewBus(NewRAM(0x8000_0000, 1<<16))
	devs := make([]*probeDevice, 5)
	bases := []uint64{0x5000_0000, 0x1000_0000, 0x3000_0000, 0x2000_0000, 0x4000_0000}
	for i, base := range bases {
		devs[i] = &probeDevice{readVal: uint64(i + 1)}
		if err := bus.MapDevice("dev", base, 0x1000, devs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, base := range bases {
		for _, off := range []uint64{0, 8, 0xFF8} {
			v, err := bus.Read(base+off, 4)
			if err != nil {
				t.Fatalf("dev %d off %#x: %v", i, off, err)
			}
			if v != uint64(i+1) {
				t.Errorf("dev %d off %#x routed to %d", i, off, v)
			}
		}
		// One past the end must not hit this device.
		if _, err := bus.Read(base+0x1000, 4); err == nil {
			t.Errorf("dev %d: end-of-range address wrongly mapped", i)
		}
	}
	// Below the lowest base.
	if _, err := bus.Read(0x0F00_0000, 4); err == nil {
		t.Error("address below all devices wrongly mapped")
	}
}

// TestBusConcurrentLookupDuringMap exercises the copy-on-write table:
// lookups proceed lock-free while a writer registers devices. Run with
// -race to validate the publication safety.
func TestBusConcurrentLookupDuringMap(t *testing.T) {
	bus := NewBus(NewRAM(0x8000_0000, 1<<16))
	if err := bus.MapDevice("first", 0x1000_0000, 0x1000, &probeDevice{readVal: 7}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			base := 0x2000_0000 + uint64(i)*0x1_0000
			if err := bus.MapDevice("more", base, 0x1000, &probeDevice{}); err != nil {
				t.Errorf("map %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 10000; i++ {
		v, err := bus.Read(0x1000_0000, 4)
		if err != nil || v != 7 {
			t.Fatalf("lookup during map: %#x, %v", v, err)
		}
	}
	<-done
}

func TestLoadStoreLE(t *testing.T) {
	b := make([]byte, 8)
	StoreLE(b, 8, 0x0102_0304_0506_0708)
	if got := LoadLE(b); got != 0x0102_0304_0506_0708 {
		t.Errorf("LoadLE = %#x", got)
	}
	if b[0] != 0x08 {
		t.Errorf("not little-endian: b[0]=%#x", b[0])
	}
	StoreLE(b[:2], 2, 0xFFFF)
	if got := LoadLE(b[:2]); got != 0xFFFF {
		t.Errorf("2-byte LoadLE = %#x", got)
	}
}

// TestRecycleScrubsAllWritePaths pins the pool-reuse contract: a recycled
// backing store must come back all-zero no matter which path dirtied it —
// Bus.Write, Bus.WriteBytes, a Bytes view, or a cached page view handed
// out for the MMU fast path — with nothing but the dirty map to go by.
func TestRecycleScrubsAllWritePaths(t *testing.T) {
	const base, size = 0x8000_0000, uint64(1 << 21)
	// Loop so at least some iterations after the first actually reuse a
	// pooled buffer (sync.Pool may or may not return one).
	for i := 0; i < 8; i++ {
		ram := AcquireRAM(base, size)
		bus := NewBus(ram)
		for off := uint64(0); off < size; off += PageSize {
			if got, err := bus.Read(base+off, 8); err != nil || got != 0 {
				t.Fatalf("iter %d: recycled RAM dirty at +%#x: %#x (err %v)", i, off, got, err)
			}
		}
		// Dirty through every path, well above any allocator bound.
		if err := bus.Write(base+size-PageSize, 8, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
		if err := bus.WriteBytes(base+size/2, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		ram.Bytes(base+size/4, PageSize)[10] = 0xEE
		page := bus.PageView(base + size/8)
		if page == nil {
			t.Fatal("page view refused")
		}
		bus.MarkDirty(base+size/8, PageSize) // what the MMU does at walk time
		page[PageSize-1] = 0xDD
		ram.Recycle()
	}
}
