// Package mem provides the simulated physical memory system: RAM regions,
// a system bus with memory-mapped I/O dispatch, and a physical page
// allocator. It is the lowest layer of the platform; both the CPU and GPU
// simulators issue all of their physical accesses through this package.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the physical and virtual page size used throughout the
// simulated platform (CPU MMU, GPU MMU, allocators).
const PageSize = 4096

// PageMask masks the offset-within-page bits of an address.
const PageMask = PageSize - 1

// AccessKind distinguishes the intent of a memory access. The MMU uses it
// for permission checks and instrumentation uses it for classification.
type AccessKind int

const (
	// Read is a data load.
	Read AccessKind = iota
	// Write is a data store.
	Write
	// Execute is an instruction fetch.
	Execute
)

// String returns a short human-readable name for the access kind.
func (k AccessKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Execute:
		return "execute"
	}
	return fmt.Sprintf("AccessKind(%d)", int(k))
}

// BusError reports a physical access that hit no mapped region or was
// malformed (unaligned MMIO, bad size).
type BusError struct {
	Addr uint64
	Size int
	Kind AccessKind
	Why  string
}

func (e *BusError) Error() string {
	return fmt.Sprintf("mem: bus error: %s of %d bytes at %#x: %s", e.Kind, e.Size, e.Addr, e.Why)
}

// Device is a memory-mapped peripheral. Register accesses arrive with the
// offset relative to the device's base address. Devices must tolerate
// concurrent calls: the GPU's Job Manager runs in its own goroutine.
type Device interface {
	// ReadReg reads size bytes (1, 2, 4 or 8) at the given offset.
	ReadReg(offset uint64, size int) (uint64, error)
	// WriteReg writes size bytes (1, 2, 4 or 8) at the given offset.
	WriteReg(offset uint64, size int, val uint64) error
}

// RAM is a contiguous block of simulated physical memory.
type RAM struct {
	base uint64
	data []byte
	// words is data's backing store extended to a multiple of 8 bytes,
	// so the atomic accessors always find a full containing host word
	// even for accesses touching the last bytes of an odd-sized region.
	// Guest-visible bounds (Contains, Size) use data's logical length.
	words []byte

	// dirty is the page-granular dirty map: bit pi is set once page pi of
	// the backing store may hold a nonzero byte. Every write path records
	// here — Write/WriteBytes/Atomic*, Bytes views, ZeroPage, and
	// (at walk time) the MMU's cached writable page views — so Recycle
	// scrubs exactly the pages written. A fork starts with its image's
	// content pages marked (see image.go). Atomic: GPU workers mark
	// concurrently.
	dirty []atomic.Uint64
}

// markDirty sets the dirty bits of every page covering [addr, addr+size).
// The common case — an access inside one already-marked page — is a load
// and a test, kept apart from the range loop because every Bus.Write pays
// it (with translation off, that is every guest CPU store).
func (r *RAM) markDirty(addr uint64, size int) {
	off := addr - r.base
	if pi := off / PageSize; pi == (off+uint64(size)-1)/PageSize && r.pageDirty(pi) {
		return // one page, already marked
	}
	r.markRange(off, size)
}

// markRange is markDirty's out-of-line part: it sets the bits of every
// page covering [off, off+size), one map word at a time.
func (r *RAM) markRange(off uint64, size int) {
	if size <= 0 {
		return
	}
	lo, hi := off/PageSize, (off+uint64(size)-1)/PageSize
	for wi := lo / 64; wi <= hi/64; wi++ {
		mask := ^uint64(0)
		if wi == lo/64 {
			mask <<= lo % 64
		}
		if wi == hi/64 {
			mask &= ^uint64(0) >> (63 - hi%64)
		}
		orBits(&r.dirty[wi], mask)
	}
}

// orBits atomically sets mask in w, skipping the write when every bit is
// already set. A CAS loop: atomic.Uint64.Or needs Go 1.23, go.mod says 1.21.
func orBits(w *atomic.Uint64, mask uint64) {
	for {
		old := w.Load()
		if old&mask == mask || w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// pageDirty reports whether page pi is marked in the dirty map.
func (r *RAM) pageDirty(pi uint64) bool { return r.dirty[pi/64].Load()&(1<<(pi%64)) != 0 }

// markedTop returns the byte offset one past the highest marked page.
func (r *RAM) markedTop() uint64 {
	for wi := len(r.dirty) - 1; wi >= 0; wi-- {
		if w := r.dirty[wi].Load(); w != 0 {
			return (uint64(wi)*64 + uint64(bits.Len64(w))) * PageSize
		}
	}
	return 0
}

// NewRAM allocates a RAM region of the given size at the given physical
// base. The backing store is a word multiple (see RAM.words); the guest
// sees exactly size bytes. Not inlined, so that its allocations are not
// attributed to AcquireRAM, whose hit path the hotalloc gate pins at zero.
//
//go:noinline
func NewRAM(base, size uint64) *RAM {
	buf := make([]byte, (size+7)&^uint64(7))
	const perWord = 64 * PageSize // bytes one word of the dirty map covers
	return &RAM{base: base, data: buf[:size], words: buf,
		dirty: make([]atomic.Uint64, (len(buf)+perWord-1)/perWord)}
}

// Base returns the first physical address of the region.
func (r *RAM) Base() uint64 { return r.base }

// Size returns the region size in bytes.
func (r *RAM) Size() uint64 { return uint64(len(r.data)) }

// Contains reports whether a [addr, addr+size) access falls inside the region.
// Nothing here can wrap — a guest may form any address: an addr below base
// makes off huge, and addr+size is never computed.
func (r *RAM) Contains(addr uint64, size int) bool {
	off, n := addr-r.base, uint64(len(r.data))
	return off <= n && uint64(size) <= n-off
}

// Bytes exposes the backing store for a physical range. It is the fast path
// used by the CPU interpreter and GPU execution engines once an address has
// been bounds-checked; mutating the returned slice mutates simulated memory.
// The view is writable, so the covered pages are marked dirty: prefer the
// read paths for read-only access.
func (r *RAM) Bytes(addr uint64, size int) []byte {
	off := addr - r.base
	r.markDirty(addr, size)
	return r.data[off : off+uint64(size)]
}

// Read loads size bytes little-endian.
func (r *RAM) Read(addr uint64, size int) (uint64, error) {
	if !r.Contains(addr, size) {
		return 0, &BusError{Addr: addr, Size: size, Kind: Read, Why: "outside RAM"}
	}
	off := addr - r.base
	return loadLE(r.data[off : off+uint64(size)]), nil
}

// Write stores size bytes little-endian.
func (r *RAM) Write(addr uint64, size int, val uint64) error {
	if !r.Contains(addr, size) {
		return &BusError{Addr: addr, Size: size, Kind: Write, Why: "outside RAM"}
	}
	off := addr - r.base
	storeLE(r.data[off:off+uint64(size)], size, val)
	r.markDirty(addr, size)
	return nil
}

// LoadLE loads len(b) bytes little-endian from a host view previously
// obtained through Bytes or PageView. len(b) must be 1, 2, 4 or 8.
func LoadLE(b []byte) uint64 { return loadLE(b) }

// StoreLE stores size bytes of val little-endian into a host view
// previously obtained through Bytes or PageView.
func StoreLE(b []byte, size int, val uint64) { storeLE(b, size, val) }

func loadLE(b []byte) uint64 {
	switch len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	panic(fmt.Sprintf("mem: bad access size %d", len(b)))
}

func storeLE(b []byte, size int, val uint64) {
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	case 8:
		binary.LittleEndian.PutUint64(b, val)
	default:
		panic(fmt.Sprintf("mem: bad access size %d", size))
	}
}

type mmioRange struct {
	base uint64
	size uint64
	dev  Device
	name string
}

// Bus routes physical accesses to RAM or memory-mapped devices. RAM accesses
// take a lock-free fast path; device lookups read an immutable sorted table
// through an atomic pointer (copy-on-write on MapDevice), so no access path
// ever takes a lock — registration is rare, lookups are not.
type Bus struct {
	ram *RAM

	mapMu sync.Mutex                  // serialises MapDevice (writers only)
	mmios atomic.Pointer[[]mmioRange] // sorted by base; never mutated in place
}

// NewBus creates a bus fronting the given RAM region.
func NewBus(ram *RAM) *Bus {
	return &Bus{ram: ram}
}

// RAM returns the bus's RAM region (for fast-path access after translation).
func (b *Bus) RAM() *RAM { return b.ram }

// MarkDirty records that the caller may write [addr, addr+size) through a
// previously obtained host view, keeping the RAM's dirty map honest. The
// MMU calls it once per walk when caching a writable page, which is what
// keeps the per-store hot path free of any marking; the guest CPU does the
// same for its store view.
func (b *Bus) MarkDirty(addr uint64, size int) {
	if b.ram.Contains(addr, size) {
		b.ram.markDirty(addr, size)
	}
}

// PageView returns the host view of the RAM page containing addr, or nil
// when that page is not wholly RAM (MMIO, unmapped): device registers are
// never served from cached views. The view aliases the store for the life
// of the RAM, so the MMU's TLB and the guest CPU cache it. It never marks:
// a caller that will store through the view calls MarkDirty when it caches
// it.
func (b *Bus) PageView(addr uint64) []byte {
	r := b.ram
	off := addr&^uint64(PageMask) - r.base
	if off%PageSize != 0 || !r.Contains(r.base+off, PageSize) {
		return nil
	}
	return r.data[off : off+PageSize]
}

// MapDevice registers a device at [base, base+size). Overlapping RAM or an
// existing device range is a programming error and returns an error.
func (b *Bus) MapDevice(name string, base, size uint64, dev Device) error {
	b.mapMu.Lock()
	defer b.mapMu.Unlock()
	if b.ram.Contains(base, 1) || b.ram.Contains(base+size-1, 1) {
		return fmt.Errorf("mem: device %s at %#x overlaps RAM", name, base)
	}
	var old []mmioRange
	if p := b.mmios.Load(); p != nil {
		old = *p
	}
	for _, m := range old {
		if base < m.base+m.size && m.base < base+size {
			return fmt.Errorf("mem: device %s at %#x overlaps device %s", name, base, m.name)
		}
	}
	next := make([]mmioRange, 0, len(old)+1)
	next = append(next, old...)
	next = append(next, mmioRange{base: base, size: size, dev: dev, name: name})
	sort.Slice(next, func(i, j int) bool { return next[i].base < next[j].base })
	b.mmios.Store(&next)
	return nil
}

func (b *Bus) findDevice(addr uint64) (mmioRange, bool) {
	p := b.mmios.Load()
	if p == nil {
		return mmioRange{}, false
	}
	mmios := *p
	// Binary search for the last range with base <= addr.
	lo, hi := 0, len(mmios)
	for lo < hi {
		mid := (lo + hi) / 2
		if mmios[mid].base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return mmioRange{}, false
	}
	if m := mmios[lo-1]; addr < m.base+m.size {
		return m, true
	}
	return mmioRange{}, false
}

// Read performs a physical read of size bytes (1, 2, 4 or 8).
func (b *Bus) Read(addr uint64, size int) (uint64, error) {
	if b.ram.Contains(addr, size) {
		return b.ram.Read(addr, size)
	}
	if m, ok := b.findDevice(addr); ok {
		return m.dev.ReadReg(addr-m.base, size)
	}
	return 0, &BusError{Addr: addr, Size: size, Kind: Read, Why: "unmapped"}
}

// Write performs a physical write of size bytes (1, 2, 4 or 8).
func (b *Bus) Write(addr uint64, size int, val uint64) error {
	if b.ram.Contains(addr, size) {
		return b.ram.Write(addr, size, val)
	}
	if m, ok := b.findDevice(addr); ok {
		return m.dev.WriteReg(addr-m.base, size, val)
	}
	return &BusError{Addr: addr, Size: size, Kind: Write, Why: "unmapped"}
}

// ReadBytes copies a physical range out of RAM. Device ranges are not
// byte-copyable; crossing out of RAM returns a BusError.
func (b *Bus) ReadBytes(addr uint64, dst []byte) error {
	if !b.ram.Contains(addr, len(dst)) {
		return &BusError{Addr: addr, Size: len(dst), Kind: Read, Why: "bulk access outside RAM"}
	}
	copy(dst, b.ram.data[addr-b.ram.base:])
	return nil
}

// WriteBytes copies bytes into RAM.
func (b *Bus) WriteBytes(addr uint64, src []byte) error {
	if !b.ram.Contains(addr, len(src)) {
		return &BusError{Addr: addr, Size: len(src), Kind: Write, Why: "bulk access outside RAM"}
	}
	if len(src) == 0 {
		return nil
	}
	copy(b.ram.data[addr-b.ram.base:], src)
	b.ram.markDirty(addr, len(src))
	return nil
}
