// Atomic guest-memory accessors — the race-clean core of the GPU memory
// model. The simulator's shader cores run as concurrent host goroutines
// sharing one guest RAM ([]byte); a guest program is free to race on that
// memory (frontier flags in BFS, idempotent duplicate stores in Floyd-
// Warshall), so the host-side accessors must give those guest races
// defined semantics instead of undefined behaviour in the host language.
//
// The model is word-granular: every access is performed through
// sequentially-consistent host atomics on the aligned 32-bit (or 64-bit)
// words containing it.
//
//   - Naturally aligned 32-bit accesses are single-copy atomic.
//   - Naturally aligned 64-bit accesses are single-copy atomic.
//   - Sub-word accesses (8/16-bit) read-modify-write their containing
//     word with a CAS loop, so neighbouring-byte stores from different
//     cores never lose each other's bytes.
//   - Misaligned or word-crossing accesses are performed word by word:
//     each affected word is accessed atomically, but the access as a
//     whole may tear at word boundaries — exactly the guarantee mobile
//     hardware gives for unaligned device memory.
//
// Views passed to these functions must begin on a host word boundary.
// Both producers of views — RAM backing stores (heap allocations of
// megabytes, page-aligned by the Go runtime) and the MMU's cached 4 KiB
// page views carved from them — satisfy this by construction; it is
// asserted, not assumed.
package mem

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// hostBigEndian reports whether the host stores multi-byte values
// big-endian. The guest is little-endian; on big-endian hosts word values
// are byte-swapped around each atomic operation.
var hostBigEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 0
}()

// le32 converts between a little-endian guest word and the host's native
// representation (identity on little-endian hosts).
func le32(v uint32) uint32 {
	if hostBigEndian {
		return bits.ReverseBytes32(v)
	}
	return v
}

func le64(v uint64) uint64 {
	if hostBigEndian {
		return bits.ReverseBytes64(v)
	}
	return v
}

// ptr32 returns the aligned host word at byte offset off (off%4 == 0).
// Both checks stay, and neither formats its panic here — the conversion's
// bounds check panics in the runtime, the alignment check in misaligned —
// so that ptr32 and ptr64 inline into every accessor.
func ptr32(view []byte, off uint64) *uint32 {
	p := unsafe.Pointer((*[4]byte)(view[off:]))
	if uintptr(p)&3 != 0 {
		misaligned(p)
	}
	return (*uint32)(p)
}

func ptr64(view []byte, off uint64) *uint64 {
	p := unsafe.Pointer((*[8]byte)(view[off:]))
	if uintptr(p)&7 != 0 {
		misaligned(p)
	}
	return (*uint64)(p)
}

// misaligned panics for an atomic access at a misaligned host address.
//
//go:noinline
func misaligned(p unsafe.Pointer) {
	panic(fmt.Sprintf("mem: atomic access through a misaligned view (host addr %#x)", uintptr(p)))
}

// rmw32 atomically replaces the masked bits of the aligned word at off
// with val (both given as little-endian guest values).
func rmw32(view []byte, off uint64, mask, val uint32) {
	casBits(ptr32(view, off), mask, val)
}

// casBits atomically replaces the masked bits of *p with val, both given as
// little-endian guest values.
func casBits(p *uint32, mask, val uint32) {
	m, v := le32(mask), le32(val)
	for {
		old := atomic.LoadUint32(p)
		if atomic.CompareAndSwapUint32(p, old, old&^m|v) {
			return
		}
	}
}

// AlignedPage returns view, the host view of one whole RAM page, as the
// fixed-size page the lane accessors below index, or nil for a nil view.
// It asserts once what those accessors then take on trust: the view is a
// page long and starts on a host word boundary. The MMU calls it where it
// fills a TLB entry.
func AlignedPage(view []byte) *[PageSize]byte {
	if view == nil {
		return nil
	}
	p := (*[PageSize]byte)(view)
	if uintptr(unsafe.Pointer(p))&7 != 0 {
		misaligned(unsafe.Pointer(p))
	}
	return p
}

// The lane accessors serve one lane of a warp whose access the caller has
// proven naturally aligned and inside page p. They index the word holding
// off&PageMask, so a lane pays neither a bounds nor an alignment check, and
// keep the word-atomic model: a word load or store is one host atomic, a
// byte store CASes its containing word, and a doubleword store — two
// lanes' adjacent words — is one 64-bit host atomic, still single-copy
// atomic per word.

// laneWord is the host word of p that holds page offset off&PageMask.
func laneWord(p *[PageSize]byte, off uint64) *uint32 {
	return (*uint32)(unsafe.Pointer(&p[off&(PageMask&^3)]))
}

// LaneLoad32 loads the guest word at off (off%4 == 0) of page p.
func LaneLoad32(p *[PageSize]byte, off uint64) uint32 {
	return le32(atomic.LoadUint32(laneWord(p, off)))
}

// LaneLoad8 loads the guest byte at off of page p.
func LaneLoad8(p *[PageSize]byte, off uint64) uint32 {
	return LaneLoad32(p, off) >> (off & 3 * 8) & 0xFF
}

// LaneStore32 stores the guest word v at off (off%4 == 0) of page p.
func LaneStore32(p *[PageSize]byte, off uint64, v uint32) {
	atomic.StoreUint32(laneWord(p, off), le32(v))
}

// LaneStore64 stores the guest doubleword v at off (off%8 == 0) of page p,
// little-endian: the low word at off, the high word at off+4.
func LaneStore64(p *[PageSize]byte, off uint64, v uint64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&p[off&(PageMask&^7)])), le64(v))
}

// LaneStore8 stores the low byte of v at off of page p.
func LaneStore8(p *[PageSize]byte, off uint64, v uint32) {
	sh := off & 3 * 8
	casBits(laneWord(p, off), 0xFF<<sh, v&0xFF<<sh)
}

// AtomicLoadLE loads size (1, 2, 4 or 8) little-endian bytes at off from a
// host view obtained through RAM.Bytes or Bus.PageView, with the
// word-granular atomicity contract described in the package comment. The
// view must start on a host word boundary and contain the word(s) touched — true
// for whole-page views and RAM backing stores, the only callers.
func AtomicLoadLE(view []byte, off uint64, size int) uint64 {
	switch size {
	case 4:
		if off&3 == 0 {
			return uint64(le32(atomic.LoadUint32(ptr32(view, off))))
		}
	case 8:
		if off&7 == 0 {
			return le64(atomic.LoadUint64(ptr64(view, off)))
		}
		if off&3 == 0 {
			// 4-aligned 64-bit access: two word atomics; may tear between
			// halves (documented model: atomicity is per word).
			lo := uint64(le32(atomic.LoadUint32(ptr32(view, off))))
			hi := uint64(le32(atomic.LoadUint32(ptr32(view, off+4))))
			return lo | hi<<32
		}
	case 1:
		w := off &^ 3
		v := le32(atomic.LoadUint32(ptr32(view, w)))
		return uint64(v>>(8*(off-w))) & 0xFF
	case 2:
		if w := off &^ 3; off-w <= 2 {
			v := le32(atomic.LoadUint32(ptr32(view, w)))
			return uint64(v>>(8*(off-w))) & 0xFFFF
		}
	default:
		panic(fmt.Sprintf("mem: bad atomic access size %d", size))
	}
	return loadSpan(view, off, off+uint64(size))
}

// loadSpan assembles the little-endian value of [start, end) with exactly
// one atomic load per containing word, so a misaligned access can tear
// only at word boundaries — never within a word.
func loadSpan(view []byte, start, end uint64) uint64 {
	var v uint64
	for w := start &^ 3; w < end; w += 4 {
		word := le32(atomic.LoadUint32(ptr32(view, w)))
		lo, hi := max(w, start), min(w+4, end)
		for i := lo; i < hi; i++ {
			v |= uint64(word>>(8*(i-w))&0xFF) << (8 * (i - start))
		}
	}
	return v
}

// AtomicStoreLE stores size little-endian bytes of val at off, with the
// same contract as AtomicLoadLE. Sub-word stores CAS their containing
// word so concurrent neighbouring-byte stores compose.
func AtomicStoreLE(view []byte, off uint64, size int, val uint64) {
	switch size {
	case 4:
		if off&3 == 0 {
			atomic.StoreUint32(ptr32(view, off), le32(uint32(val)))
			return
		}
	case 8:
		if off&7 == 0 {
			atomic.StoreUint64(ptr64(view, off), le64(val))
			return
		}
		if off&3 == 0 {
			atomic.StoreUint32(ptr32(view, off), le32(uint32(val)))
			atomic.StoreUint32(ptr32(view, off+4), le32(uint32(val>>32)))
			return
		}
	case 1:
		w := off &^ 3
		sh := 8 * (off - w)
		rmw32(view, w, 0xFF<<sh, uint32(val&0xFF)<<sh)
		return
	case 2:
		if w := off &^ 3; off-w <= 2 {
			sh := 8 * (off - w)
			rmw32(view, w, 0xFFFF<<sh, uint32(val&0xFFFF)<<sh)
			return
		}
	default:
		panic(fmt.Sprintf("mem: bad atomic access size %d", size))
	}
	storeSpan(view, off, off+uint64(size), val)
}

// storeSpan writes the little-endian value into [start, end) with exactly
// one atomic operation per containing word (a plain store for fully
// covered words, a CAS otherwise), mirroring loadSpan's word granularity.
func storeSpan(view []byte, start, end uint64, val uint64) {
	for w := start &^ 3; w < end; w += 4 {
		lo, hi := max(w, start), min(w+4, end)
		var mask, bits uint32
		for i := lo; i < hi; i++ {
			mask |= 0xFF << (8 * (i - w))
			bits |= uint32(val>>(8*(i-start))&0xFF) << (8 * (i - w))
		}
		if mask == ^uint32(0) {
			atomic.StoreUint32(ptr32(view, w), le32(bits))
		} else {
			rmw32(view, w, mask, bits)
		}
	}
}

// AtomicReadBytes copies len(dst) bytes out of the view starting at off,
// reading each touched host word atomically (bulk reads of guest memory
// that shader cores may be writing concurrently: descriptors, shader
// binaries, uniform arrays).
func AtomicReadBytes(view []byte, off uint64, dst []byte) {
	n := uint64(len(dst))
	i := uint64(0)
	if n > 0 && (off+i)&3 != 0 { // head: one load of the partial word
		w := (off + i) &^ 3
		v := le32(atomic.LoadUint32(ptr32(view, w)))
		for ; i < n && (off+i)&3 != 0; i++ {
			dst[i] = byte(v >> (8 * (off + i - w)))
		}
	}
	for ; i+4 <= n; i += 4 { // aligned body
		v := le32(atomic.LoadUint32(ptr32(view, off+i)))
		dst[i] = byte(v)
		dst[i+1] = byte(v >> 8)
		dst[i+2] = byte(v >> 16)
		dst[i+3] = byte(v >> 24)
	}
	if i < n { // tail: one load of the partial word
		v := le32(atomic.LoadUint32(ptr32(view, off+i)))
		for ; i < n; i++ {
			dst[i] = byte(v)
			v >>= 8
		}
	}
}

// AtomicWriteBytes copies src into the view starting at off. Whole words
// are stored atomically; partial words at the edges CAS so concurrent
// neighbouring stores are preserved.
func AtomicWriteBytes(view []byte, off uint64, src []byte) {
	n := uint64(len(src))
	i := uint64(0)
	if n > 0 && (off+i)&3 != 0 { // head: one CAS of the partial word
		w := (off + i) &^ 3
		var mask, bits uint32
		for ; i < n && (off+i)&3 != 0; i++ {
			sh := 8 * (off + i - w)
			mask |= 0xFF << sh
			bits |= uint32(src[i]) << sh
		}
		rmw32(view, w, mask, bits)
	}
	for ; i+4 <= n; i += 4 { // aligned body
		v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
		atomic.StoreUint32(ptr32(view, off+i), le32(v))
	}
	if i < n { // tail: one CAS of the partial word
		w := off + i
		var mask, bits uint32
		for sh := uint64(0); i < n; i++ {
			mask |= 0xFF << sh
			bits |= uint32(src[i]) << sh
			sh += 8
		}
		rmw32(view, w, mask, bits)
	}
}

// fenceWord backs the guest memory fences. It exists only to give the
// fences a host synchronisation object; no data lives here.
var fenceWord atomic.Uint32

// Fence is a full guest memory fence (sequentially consistent read-
// modify-write). The GPU issues it at job entry/exit on each shader core
// and at guest BARRIER instructions, making guest-visible ordering at
// those rendezvous points explicit rather than an accident of the host
// scheduler. Workgroup boundaries deliberately carry no fence (see
// Device.execJob).
func Fence() {
	fenceWord.Add(0)
}

// LoadFence marks a clause boundary in the guest memory model: a shader
// warp issues it wherever it enters a clause or a fused chain of clauses
// (a warp-engine tape). It is an annotation, not a synchronisation
// primitive: a load of fenceWord creates no happens-before edge of its
// own, and the actual guarantee — a clause observes every guest store
// that completed before it started — comes from the shared accessors
// being sequentially-consistent host atomics. The marker keeps the clause
// granularity visible in the code (and in profiles) at the cost of one
// uncontended load; if the accessors are ever weakened below seq-cst,
// this must become a real fence.
func LoadFence() {
	_ = fenceWord.Load()
}

// AtomicRead is the atomic variant of Read for shared access paths. It
// operates on the word-extended backing store (RAM.words) so accesses at
// the very end of an odd-sized region still have a full containing word.
func (r *RAM) AtomicRead(addr uint64, size int) (uint64, error) {
	if !r.Contains(addr, size) {
		return 0, &BusError{Addr: addr, Size: size, Kind: Read, Why: "outside RAM"}
	}
	return AtomicLoadLE(r.words, addr-r.base, size), nil
}

// AtomicWrite is the atomic variant of Write for shared access paths.
func (r *RAM) AtomicWrite(addr uint64, size int, val uint64) error {
	if !r.Contains(addr, size) {
		return &BusError{Addr: addr, Size: size, Kind: Write, Why: "outside RAM"}
	}
	AtomicStoreLE(r.words, addr-r.base, size, val)
	r.markDirty(addr, size)
	return nil
}

// AtomicRead performs a physical read with word-granular atomicity on
// RAM. Device registers implement their own synchronisation (the Device
// contract requires tolerating concurrent calls), so MMIO routes to the
// device model unchanged.
func (b *Bus) AtomicRead(addr uint64, size int) (uint64, error) {
	if b.ram.Contains(addr, size) {
		return b.ram.AtomicRead(addr, size)
	}
	if m, ok := b.findDevice(addr); ok {
		return m.dev.ReadReg(addr-m.base, size)
	}
	return 0, &BusError{Addr: addr, Size: size, Kind: Read, Why: "unmapped"}
}

// AtomicWrite performs a physical write with word-granular atomicity on
// RAM (see AtomicRead).
func (b *Bus) AtomicWrite(addr uint64, size int, val uint64) error {
	if b.ram.Contains(addr, size) {
		return b.ram.AtomicWrite(addr, size, val)
	}
	if m, ok := b.findDevice(addr); ok {
		return m.dev.WriteReg(addr-m.base, size, val)
	}
	return &BusError{Addr: addr, Size: size, Kind: Write, Why: "unmapped"}
}

// AtomicReadBytes copies a physical RAM range with per-word atomicity.
func (b *Bus) AtomicReadBytes(addr uint64, dst []byte) error {
	if !b.ram.Contains(addr, len(dst)) {
		return &BusError{Addr: addr, Size: len(dst), Kind: Read, Why: "bulk access outside RAM"}
	}
	AtomicReadBytes(b.ram.words, addr-b.ram.base, dst)
	return nil
}

// AtomicWriteBytes copies bytes into RAM with per-word atomicity.
func (b *Bus) AtomicWriteBytes(addr uint64, src []byte) error {
	if !b.ram.Contains(addr, len(src)) {
		return &BusError{Addr: addr, Size: len(src), Kind: Write, Why: "bulk access outside RAM"}
	}
	if len(src) == 0 {
		return nil
	}
	AtomicWriteBytes(b.ram.words, addr-b.ram.base, src)
	b.ram.markDirty(addr, len(src))
	return nil
}
