package mmu

import (
	"testing"
	"testing/quick"

	"mobilesim/internal/mem"
)

func newTestEnv(t *testing.T) (*mem.Bus, *mem.PageAllocator, *AddressSpace) {
	t.Helper()
	bus := mem.NewBus(mem.NewRAM(0, 16<<20))
	alloc, err := mem.NewPageAllocator(1<<20, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	as, err := NewAddressSpace(bus, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return bus, alloc, as
}

func TestIdentityWhenDisabled(t *testing.T) {
	bus := mem.NewBus(mem.NewRAM(0, 1<<20))
	w := NewWalker(bus)
	pa, fault := w.Translate(0x1234, mem.Read)
	if fault != nil || pa != 0x1234 {
		t.Fatalf("disabled walker: pa=%#x fault=%v", pa, fault)
	}
}

func TestMapTranslate(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x4000_0000, 0x0020_0000
	if err := as.Map(va, pa, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	got, fault := w.Translate(va+0x123, mem.Read)
	if fault != nil {
		t.Fatalf("translate: %v", fault)
	}
	if got != pa+0x123 {
		t.Errorf("pa = %#x, want %#x", got, pa+0x123)
	}
}

func TestPermissionFaults(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x1000, 0x0020_0000
	if err := as.Map(va, pa, PermR); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	if _, fault := w.Translate(va, mem.Read); fault != nil {
		t.Errorf("read should be allowed: %v", fault)
	}
	if _, fault := w.Translate(va, mem.Write); fault == nil || fault.Type != FaultPermission {
		t.Errorf("write should permission-fault, got %v", fault)
	}
	if _, fault := w.Translate(va, mem.Execute); fault == nil || fault.Type != FaultPermission {
		t.Errorf("exec should permission-fault, got %v", fault)
	}
}

func TestTranslationFault(t *testing.T) {
	bus, _, as := newTestEnv(t)
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	_, fault := w.Translate(0xdead_0000, mem.Read)
	if fault == nil || fault.Type != FaultTranslation {
		t.Fatalf("expected translation fault, got %v", fault)
	}
	if fault.VA != 0xdead_0000 {
		t.Errorf("fault VA = %#x", fault.VA)
	}
}

func TestTLBCachesAndFlushes(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x1000, 0x0020_0000
	if err := as.Map(va, pa, PermR); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	for i := 0; i < 10; i++ {
		if _, fault := w.Translate(va, mem.Read); fault != nil {
			t.Fatal(fault)
		}
	}
	if w.Walks != 1 {
		t.Errorf("walks = %d, want 1 (TLB should cache)", w.Walks)
	}
	if w.Hits != 9 {
		t.Errorf("hits = %d, want 9", w.Hits)
	}
	w.FlushTLB()
	if _, fault := w.Translate(va, mem.Read); fault != nil {
		t.Fatal(fault)
	}
	if w.Walks != 2 {
		t.Errorf("walks after flush = %d, want 2", w.Walks)
	}
}

// TestReleasedTLBReadsAsFlushed: a walker that takes a TLB array another
// walker released — here one translating a different RAM, as the next
// session's would — starts cold and reads its own RAM, never the stale view.
func TestReleasedTLBReadsAsFlushed(t *testing.T) {
	const va, pa = 0x1000, 0x0020_0000
	// walker translates va to a word holding v in a RAM of its own.
	walker := func(v uint64) *Walker {
		bus, _, as := newTestEnv(t)
		if err := as.Map(va, pa, PermR); err != nil {
			t.Fatal(err)
		}
		if err := bus.Write(pa, 4, v); err != nil {
			t.Fatal(err)
		}
		w := NewWalker(bus)
		w.SetRoot(as.Root())
		return w
	}
	for i := 0; i < 8; i++ { // the pool may drop an array; one reuse suffices
		old := walker(0xAAAA)
		if _, err := old.Load(va, 4, mem.Read); err != nil {
			t.Fatal(err)
		}
		old.Release()
		w := walker(0xBBBB)
		if got, err := w.Load(va, 4, mem.Read); err != nil || got != 0xBBBB || w.Walks != 1 {
			t.Fatalf("after a release: load = %#x, %v with %d walks; want 0xbbbb from one walk", got, err, w.Walks)
		}
		w.Release()
	}
}

func TestTLBPermissionCheckedOnHit(t *testing.T) {
	bus, _, as := newTestEnv(t)
	if err := as.Map(0x1000, 0x0020_0000, PermR); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	if _, fault := w.Translate(0x1000, mem.Read); fault != nil {
		t.Fatal(fault)
	}
	// Now hit the TLB with a disallowed kind.
	if _, fault := w.Translate(0x1000, mem.Write); fault == nil || fault.Type != FaultPermission {
		t.Fatalf("TLB hit skipped permission check: %v", fault)
	}
}

func TestUnmap(t *testing.T) {
	bus, _, as := newTestEnv(t)
	if err := as.Map(0x1000, 0x0020_0000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if as.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d", as.MappedPages())
	}
	if err := as.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if as.MappedPages() != 0 {
		t.Fatalf("MappedPages after unmap = %d", as.MappedPages())
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	if _, fault := w.Translate(0x1000, mem.Read); fault == nil {
		t.Error("unmapped VA should fault")
	}
	// Unmapping twice is fine.
	if err := as.Unmap(0x1000); err != nil {
		t.Errorf("double unmap: %v", err)
	}
}

func TestMapRangeAndLookup(t *testing.T) {
	_, _, as := newTestEnv(t)
	if err := as.MapRange(0x10000, 0x0030_0000, 4*mem.PageSize, PermR|PermW|PermX); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		pa, perms, ok := as.Lookup(0x10000 + i*mem.PageSize + 4)
		if !ok {
			t.Fatalf("page %d not mapped", i)
		}
		if pa != 0x0030_0000+i*mem.PageSize+4 {
			t.Errorf("page %d: pa=%#x", i, pa)
		}
		if perms != PermR|PermW|PermX {
			t.Errorf("page %d: perms=%#x", i, perms)
		}
	}
	if _, _, ok := as.Lookup(0x10000 + 4*mem.PageSize); ok {
		t.Error("page past range should not be mapped")
	}
}

func TestTouchedPages(t *testing.T) {
	bus, _, as := newTestEnv(t)
	if err := as.MapRange(0, 0x0030_0000, 8*mem.PageSize, PermR); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	w.ResetTouched()
	for i := 0; i < 3; i++ {
		for p := uint64(0); p < 5; p++ {
			if _, fault := w.Translate(p*mem.PageSize, mem.Read); fault != nil {
				t.Fatal(fault)
			}
		}
	}
	seen := map[uint64]bool{}
	w.ForEachTouched(func(vpn uint64) { seen[vpn] = true })
	for p := uint64(0); p < 5; p++ {
		if !seen[p] {
			t.Errorf("vpn %d missing from ForEachTouched", p)
		}
	}
	if len(seen) != 5 {
		t.Errorf("ForEachTouched visited %d pages, want 5", len(seen))
	}
}

// TestTouchedRecordedOnWalkOnly pins the tentpole invariant: the distinct-
// page count is identical whether accesses go through Translate or the
// Load/Store fast path, because the first access to any page always walks.
func TestTouchedRecordedOnWalkOnly(t *testing.T) {
	bus, _, as := newTestEnv(t)
	if err := as.MapRange(0, 0x0030_0000, 8*mem.PageSize, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	w.ResetTouched()
	for i := 0; i < 100; i++ {
		for p := uint64(0); p < 6; p++ {
			if _, err := w.Load(p*mem.PageSize+8, 4, mem.Read); err != nil {
				t.Fatal(err)
			}
		}
	}
	touched := 0
	w.ForEachTouched(func(uint64) { touched++ })
	if touched != 6 {
		t.Errorf("touched pages = %d, want 6", touched)
	}
	if w.Walks != 6 {
		t.Errorf("walks = %d, want 6 (one per page)", w.Walks)
	}
	if w.Hits != 594 {
		t.Errorf("hits = %d, want 594", w.Hits)
	}
}

func TestUnalignedAndBadPermsRejected(t *testing.T) {
	_, _, as := newTestEnv(t)
	if err := as.Map(0x1001, 0x2000, PermR); err == nil {
		t.Error("unaligned VA accepted")
	}
	if err := as.Map(0x1000, 0x2001, PermR); err == nil {
		t.Error("unaligned PA accepted")
	}
	if err := as.Map(0x1000, 0x2000, 0); err == nil {
		t.Error("empty perms accepted")
	}
}

// Property: for any set of page mappings, translation of any offset within
// a mapped page returns the mapped frame plus that offset.
func TestTranslateOffsetsProperty(t *testing.T) {
	bus, _, as := newTestEnv(t)
	// Map 64 pages across a sparse VA range.
	for i := uint64(0); i < 64; i++ {
		va := i * 0x40_0000 // spread across level-1 entries
		pa := 0x0040_0000 + i*mem.PageSize
		if err := as.Map(va, pa, PermR|PermW); err != nil {
			t.Fatal(err)
		}
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	f := func(page uint8, off uint16) bool {
		i := uint64(page) % 64
		o := uint64(off) % mem.PageSize
		pa, fault := w.Translate(i*0x40_0000+o, mem.Read)
		return fault == nil && pa == 0x0040_0000+i*mem.PageSize+o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Host-slice fast path (Load/Store/ReadBytes/WriteBytes) ----------------

// fastEnv maps a few RAM pages plus one page pointing at an MMIO frame and
// returns the bus, address space and a primed walker.
const testDevBase = 0x4000_0000 // outside the 16 MiB test RAM

// recordingDev counts register accesses so tests can prove MMIO is never
// served from cached byte views.
type recordingDev struct {
	reads, writes int
	last          uint64
}

func (d *recordingDev) ReadReg(off uint64, size int) (uint64, error) {
	d.reads++
	return 0x5150 + off, nil
}

func (d *recordingDev) WriteReg(off uint64, size int, val uint64) error {
	d.writes++
	d.last = val
	return nil
}

func TestLoadStoreFastPath(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x4000_0000, 0x0020_0000
	if err := as.MapRange(va, pa, 2*mem.PageSize, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	cases := []struct {
		off  uint64
		size int
		val  uint64
	}{
		{0, 1, 0xAB},
		{2, 2, 0xBEEF},
		{4, 4, 0xDEADBEEF},
		{8, 8, 0x0123_4567_89AB_CDEF},
		{mem.PageSize + 16, 4, 0x42},
	}
	for _, c := range cases {
		if err := w.Store(va+c.off, c.size, c.val); err != nil {
			t.Fatalf("store %d@%#x: %v", c.size, c.off, err)
		}
		got, err := w.Load(va+c.off, c.size, mem.Read)
		if err != nil {
			t.Fatalf("load %d@%#x: %v", c.size, c.off, err)
		}
		if got != c.val {
			t.Errorf("round trip %d@%#x = %#x, want %#x", c.size, c.off, got, c.val)
		}
		// The fast path must mutate the same physical bytes the bus sees.
		busVal, berr := bus.Read(pa+c.off, c.size)
		if berr != nil || busVal != c.val {
			t.Errorf("bus sees %#x (err %v), want %#x", busVal, berr, c.val)
		}
	}
	// Every access above was 1 hit or 1 walk, never both.
	total := w.Hits + w.Walks
	if total != uint64(2*len(cases)) {
		t.Errorf("hits+walks = %d, want %d", total, 2*len(cases))
	}
}

func TestLoadIdentityWhenDisabled(t *testing.T) {
	bus := mem.NewBus(mem.NewRAM(0, 1<<20))
	w := NewWalker(bus)
	if err := w.Store(0x1234, 4, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	v, err := w.Load(0x1234, 4, mem.Read)
	if err != nil || v != 0xCAFE {
		t.Fatalf("identity load = %#x, %v", v, err)
	}
	if w.Hits != 0 || w.Walks != 0 {
		t.Errorf("disabled walker counted hits=%d walks=%d", w.Hits, w.Walks)
	}
}

// TestFastPathPermissionFaults verifies the fast path raises the same
// permission faults as Translate, including after the TLB is primed by an
// allowed access kind.
func TestFastPathPermissionFaults(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va = 0x5000
	if err := as.Map(va, 0x0020_0000, PermR); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	// Prime the TLB (and its cached slice) with an allowed read.
	if _, err := w.Load(va, 4, mem.Read); err != nil {
		t.Fatal(err)
	}
	// A store through the now-hot entry must still fault.
	err := w.Store(va, 4, 1)
	f, ok := err.(*Fault)
	if !ok || f.Type != FaultPermission || f.Kind != mem.Write {
		t.Fatalf("store on read-only page: %v, want permission fault", err)
	}
	// Execute is also forbidden.
	_, err = w.Load(va, 4, mem.Execute)
	if f, ok := err.(*Fault); !ok || f.Type != FaultPermission {
		t.Fatalf("exec on read-only page: %v, want permission fault", err)
	}
	// Unmapped VA faults with translation.
	_, err = w.Load(0xdead_0000, 4, mem.Read)
	if f, ok := err.(*Fault); !ok || f.Type != FaultTranslation {
		t.Fatalf("unmapped load: %v, want translation fault", err)
	}
}

// TestFastPathPageCross verifies page-crossing accesses match the
// Translate+Bus semantics exactly (translate the first byte's page, access
// physically contiguous bytes from there).
func TestFastPathPageCross(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x10000, 0x0020_0000
	// Two virtual pages mapped to two physically contiguous frames.
	if err := as.MapRange(va, pa, 2*mem.PageSize, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	cross := uint64(va + mem.PageSize - 4) // 8-byte access spanning pages
	const want = 0x1122_3344_5566_7788
	if err := w.Store(cross, 8, want); err != nil {
		t.Fatal(err)
	}
	got, err := w.Load(cross, 8, mem.Read)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("page-crossing load = %#x, want %#x", got, want)
	}
	// Reference semantics: same bytes as Translate + bus access.
	paRef, fault := w.Translate(cross, mem.Read)
	if fault != nil {
		t.Fatal(fault)
	}
	ref, err := bus.Read(paRef, 8)
	if err != nil || ref != want {
		t.Errorf("reference read = %#x (err %v), want %#x", ref, err, want)
	}
}

// TestMMIONeverCached maps a virtual page onto a device frame and checks
// every access reaches the device model (no cached-slice shortcuts).
func TestMMIONeverCached(t *testing.T) {
	bus, _, as := newTestEnv(t)
	dev := &recordingDev{}
	if err := bus.MapDevice("probe", testDevBase, mem.PageSize, dev); err != nil {
		t.Fatal(err)
	}
	const va = 0x9000
	if err := as.Map(va, testDevBase, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	for i := 0; i < 3; i++ {
		v, err := w.Load(va+8, 4, mem.Read)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0x5150+8 {
			t.Errorf("device read = %#x", v)
		}
	}
	if dev.reads != 3 {
		t.Errorf("device saw %d reads, want 3 (MMIO must never be cached)", dev.reads)
	}
	if err := w.Store(va+16, 4, 77); err != nil {
		t.Fatal(err)
	}
	if dev.writes != 1 || dev.last != 77 {
		t.Errorf("device saw %d writes (last %#x), want 1 write of 77", dev.writes, dev.last)
	}
	// TLB entry exists (hits counted) but with no cached page.
	if w.Hits == 0 {
		t.Error("MMIO accesses should still hit the TLB after the first walk")
	}
}

// TestSliceInvalidation verifies SetRoot and FlushTLB drop cached page
// views: remapping a VA to a different frame must be visible immediately
// after the flush that hardware requires.
func TestSliceInvalidation(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, paA, paB = 0x7000, 0x0020_0000, 0x0030_0000
	if err := as.Map(va, paA, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	if err := w.Store(va, 4, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	// Remap the page to frame B behind the TLB's back, then flush.
	if err := as.Unmap(va); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(va, paB, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	if err := bus.Write(paB, 4, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	w.FlushTLB()
	v, err := w.Load(va, 4, mem.Read)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xBBBB {
		t.Errorf("after FlushTLB load = %#x, want 0xBBBB (stale slice served)", v)
	}

	// SetRoot must flush too: dropping to identity mode reads physical
	// addresses directly, with no stale per-page views in the way.
	w.SetRoot(0)
	if v, err := w.Load(paB, 4, mem.Read); err != nil || v != 0xBBBB {
		t.Errorf("identity after SetRoot(0): %#x, %v", v, err)
	}
}

// TestBulkReadWriteBytes round-trips a buffer spanning several pages whose
// frames are deliberately non-contiguous.
func TestBulkReadWriteBytes(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va = 0x2_0000
	frames := []uint64{0x0050_0000, 0x0030_0000, 0x0070_0000}
	for i, pa := range frames {
		if err := as.Map(va+uint64(i)*mem.PageSize, pa, PermR|PermW); err != nil {
			t.Fatal(err)
		}
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	src := make([]byte, 2*mem.PageSize+512)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := w.WriteBytes(va+100, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := w.ReadBytes(va+100, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("byte %d: got %#x want %#x", i, dst[i], src[i])
		}
	}
	// Fault propagation: writing past the mapped range.
	if err := w.WriteBytes(va+3*mem.PageSize-4, make([]byte, 64)); err == nil {
		t.Error("bulk write past mapping should fault")
	}
}

// TestLoadHitPathZeroAllocs pins the acceptance criterion: a TLB-hit
// load/store allocates nothing.
func TestLoadHitPathZeroAllocs(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va = 0x8000
	if err := as.Map(va, 0x0020_0000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	w.ResetTouched()
	if _, err := w.Load(va, 4, mem.Read); err != nil { // prime
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := w.Load(va+8, 4, mem.Read); err != nil {
			t.Fatal(err)
		}
		if err := w.Store(va+16, 4, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("TLB-hit load/store allocates %v/op, want 0", allocs)
	}
}

// BenchmarkWalkerLoadHit measures the raw fast-path latency (ns/op and
// allocs/op on the TLB-hit access path).
func BenchmarkWalkerLoadHit(b *testing.B) {
	bus := mem.NewBus(mem.NewRAM(0, 16<<20))
	alloc, err := mem.NewPageAllocator(1<<20, 8<<20)
	if err != nil {
		b.Fatal(err)
	}
	as, err := NewAddressSpace(bus, alloc)
	if err != nil {
		b.Fatal(err)
	}
	const va = 0x8000
	if err := as.Map(va, 0x0020_0000, PermR|PermW); err != nil {
		b.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	w.ResetTouched()
	if _, err := w.Load(va, 4, mem.Read); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := w.Load(va+uint64(i)%1024, 4, mem.Read)
		if err != nil {
			b.Fatal(err)
		}
		_ = v
	}
}

// TestSharedWalkerMatchesPlain runs the fast-path edge cases through a
// walker's atomic accessors (the ones that let walkers share guest memory)
// and checks bit-identical results with the plain bus path: same values,
// same fault behaviour, same hit/walk accounting.
func TestSharedWalkerMatchesPlain(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x4000_0000, 0x0020_0000
	if err := as.MapRange(va, pa, 2*mem.PageSize, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())

	cases := []struct {
		off  uint64
		size int
		val  uint64
	}{
		{0, 1, 0xAB},
		{1, 1, 0xCD},                                 // sub-word, mid-word byte
		{2, 2, 0xBEEF},                               // 16-bit in upper half-word
		{5, 2, 0x1234},                               // 16-bit straddling no word boundary (bytes 5-6)
		{7, 2, 0x5678},                               // 16-bit crossing a word boundary
		{4, 4, 0xDEADBEEF},                           // aligned word
		{9, 4, 0xCAFEBABE},                           // misaligned word
		{8, 8, 0x0123_4567_89AB_CDEF},                // aligned dword
		{20, 8, 0x1111_2222_3333_4444},               // 4-aligned dword
		{33, 8, 0x5555_6666_7777_8888},               // misaligned dword
		{mem.PageSize - 4, 8, 0x9999_AAAA_BBBB_CCCC}, // page-crossing dword
		{mem.PageSize + 16, 4, 0x42},
	}
	for _, c := range cases {
		if err := w.Store(va+c.off, c.size, c.val); err != nil {
			t.Fatalf("store %d@%#x: %v", c.size, c.off, err)
		}
		got, err := w.Load(va+c.off, c.size, mem.Read)
		if err != nil {
			t.Fatalf("load %d@%#x: %v", c.size, c.off, err)
		}
		if got != c.val {
			t.Errorf("round trip %d@%#x = %#x, want %#x", c.size, c.off, got, c.val)
		}
		// Atomic stores must mutate the same physical bytes the plain bus
		// path sees, so plain readers (driver copies after a job) agree.
		busVal, berr := bus.Read(pa+c.off, c.size)
		if berr != nil || busVal != c.val {
			t.Errorf("bus sees %#x (err %v), want %#x", busVal, berr, c.val)
		}
	}
	if total := w.Hits + w.Walks; total != uint64(2*len(cases)) {
		t.Errorf("hits+walks = %d, want %d", total, 2*len(cases))
	}

	// Bulk paths, page-crossing, from an odd start (partial-word head and
	// tail).
	src := make([]byte, 3*mem.PageSize/2)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := w.WriteBytes(va+5, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := w.ReadBytes(va+5, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("bulk byte %d = %#x, want %#x", i, dst[i], src[i])
		}
	}
	if err := bus.ReadBytes(pa+5, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("bus sees bulk byte %d = %#x, want %#x", i, dst[i], src[i])
		}
	}

	// Permission faults.
	if _, err := w.Load(va, 4, mem.Execute); err == nil {
		t.Error("exec load should permission-fault")
	}
	if _, err := w.Load(0xdead_0000, 4, mem.Read); err == nil {
		t.Error("unmapped load should fault")
	}
}

// TestSharedLoadHitPathZeroAllocs pins the atomic fast path to zero
// allocations, sub-word stores (a CAS loop) included: atomics must not
// cost heap.
func TestSharedLoadHitPathZeroAllocs(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va = 0x8000
	if err := as.Map(va, 0x0020_0000, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	w.ResetTouched()
	if _, err := w.Load(va, 4, mem.Read); err != nil { // prime
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := w.Load(va+8, 4, mem.Read); err != nil {
			t.Fatal(err)
		}
		if err := w.Store(va+16, 4, 7); err != nil {
			t.Fatal(err)
		}
		if err := w.Store(va+21, 1, 9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("TLB-hit atomic load/store allocates %v/op, want 0", allocs)
	}
}

// TestSharedWalkersConcurrentSamePage is the core race-clean contract:
// independent walkers (one per shader core, as the GPU dispatches them)
// hammer the same guest words concurrently. Run under -race this fails
// loudly if any access path falls back to plain host memory ops.
func TestSharedWalkersConcurrentSamePage(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va = 0x4000_0000
	if err := as.MapRange(va, 0x0020_0000, mem.PageSize, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			w := NewWalker(bus)
			w.SetRoot(as.Root())
			for i := 0; i < 300; i++ {
				// Same word for everyone (benign guest race)...
				if err := w.Store(va, 4, uint64(g)); err != nil {
					done <- err
					return
				}
				if _, err := w.Load(va, 4, mem.Read); err != nil {
					done <- err
					return
				}
				// ...neighbouring bytes of one word (sub-word CAS path)...
				if err := w.Store(va+8+uint64(g&3), 1, uint64(g)); err != nil {
					done <- err
					return
				}
				// ...and bulk traffic over the same page.
				var buf [64]byte
				if err := w.ReadBytes(va+64, buf[:]); err != nil {
					done <- err
					return
				}
				if err := w.WriteBytes(va+128+uint64(g)*64, buf[:]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	check := NewWalker(bus)
	check.SetRoot(as.Root())
	for lane := uint64(0); lane < 4; lane++ {
		v, err := check.Load(va+8+lane, 1, mem.Read)
		if err != nil {
			t.Fatal(err)
		}
		if v&3 != lane {
			t.Errorf("neighbouring byte %d lost: %#x", lane, v)
		}
	}
}

// TestEveryWalkerComposesRaceFree: a walker needs no mode to be race-clean.
// Two walkers from the one constructor — the CPU's and a shader core's, say
// — share guest words, one storing (an aligned word, a bulk copy, a store
// across a page boundary) while the other loads the same words. Run under
// -race this fails if any of those paths is a plain host access, with
// translation off (the driver's CPU path: identity, Translate + bus) and on
// (TLB-cached page views).
func TestEveryWalkerComposesRaceFree(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x4000_0000, 0x0020_0000
	if err := as.MapRange(va, pa, 2*mem.PageSize, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		root uint64
		base uint64
	}{
		{"translation-off", 0, pa},
		{"translation-on", as.Root(), va},
	} {
		t.Run(tc.name, func(t *testing.T) {
			word := tc.base + 64                // aligned dword
			bulk := tc.base + 256               // bulk span
			cross := tc.base + mem.PageSize - 4 // dword across the page boundary
			storer, loader := NewWalker(bus), NewWalker(bus)
			storer.SetRoot(tc.root)
			loader.SetRoot(tc.root)

			const rounds = 200
			done := make(chan error, 1)
			go func() {
				var buf [64]byte
				for i := uint64(1); i <= rounds; i++ {
					v := i<<32 | i // both halves equal: a torn dword shows
					for j := range buf {
						buf[j] = byte(i)
					}
					if err := storer.Store(word, 8, v); err != nil {
						done <- err
						return
					}
					if err := storer.WriteBytes(bulk, buf[:]); err != nil {
						done <- err
						return
					}
					if err := storer.Store(cross, 8, v); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			var buf [64]byte
			for i := 0; i < rounds; i++ {
				v, err := loader.Load(word, 8, mem.Read)
				if err != nil {
					t.Fatal(err)
				}
				if v>>32 != v&0xffff_ffff {
					t.Fatalf("aligned dword tore: %#x", v)
				}
				if err := loader.ReadBytes(bulk, buf[:]); err != nil {
					t.Fatal(err)
				}
				if _, err := loader.Load(cross, 8, mem.Read); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			for _, addr := range []uint64{word, cross} {
				if v, err := loader.Load(addr, 8, mem.Read); err != nil || v != rounds<<32|rounds {
					t.Errorf("final dword at %#x = %#x (%v), want the last store", addr, v, err)
				}
			}
		})
	}
}
