// Package mmu implements the memory-management unit shared by the CPU and
// GPU simulators: 3-level page tables over 4 KiB pages, a software TLB, a
// hardware-style table walker, and helpers for building address spaces.
//
// The format is AArch64/LPAE-flavoured but simplified to one granule:
//
//	VA bits [38:30] index level-2 table (1 GiB per entry)
//	VA bits [29:21] index level-1 table (2 MiB per entry)
//	VA bits [20:12] index level-0 table (4 KiB pages)
//
// Each table is one 4 KiB page of 512 eight-byte entries. A PTE is:
//
//	bit 0        valid
//	bit 1        leaf (level 0 entries are always leaves)
//	bits 2..4    permissions: R, W, X
//	bits 12..47  physical frame number << 12
package mmu

import (
	"fmt"
	"math/bits"
	"sync"

	"mobilesim/internal/mem"
)

// PTE bit layout.
const (
	pteValid = 1 << 0
	pteLeaf  = 1 << 1

	// PermR allows data loads through the mapping.
	PermR = 1 << 2
	// PermW allows data stores through the mapping.
	PermW = 1 << 3
	// PermX allows instruction fetch through the mapping.
	PermX = 1 << 4

	permMask = PermR | PermW | PermX

	pteAddrMask = 0x0000_FFFF_FFFF_F000
)

const (
	levels    = 3
	indexBits = 9
	indexMask = (1 << indexBits) - 1
)

// FaultType classifies a translation failure.
type FaultType int

const (
	// FaultTranslation means no valid mapping exists for the address.
	FaultTranslation FaultType = iota
	// FaultPermission means a mapping exists but forbids the access kind.
	FaultPermission
	// FaultBus means the walk itself touched unmapped physical memory,
	// i.e. the page-table pointer is garbage.
	FaultBus
)

func (t FaultType) String() string {
	switch t {
	case FaultTranslation:
		return "translation"
	case FaultPermission:
		return "permission"
	case FaultBus:
		return "bus"
	}
	return fmt.Sprintf("FaultType(%d)", int(t))
}

// Fault reports a failed translation. It is delivered to the CPU as a
// synchronous exception and to the GPU driver through fault registers.
type Fault struct {
	Type FaultType
	VA   uint64
	Kind mem.AccessKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mmu: %s fault on %s at va=%#x", f.Type, f.Kind, f.VA)
}

// vaIndex extracts the table index for a walk level (2 = top).
func vaIndex(va uint64, level int) uint64 {
	shift := 12 + uint(level)*indexBits
	return (va >> shift) & indexMask
}

const tlbSize = 256 // direct-mapped; power of two

type tlbEntry struct {
	vpn   uint64 // virtual page number + 1 (0 = invalid)
	pfn   uint64 // physical page base
	perms uint64
	// page is the host view of the 4 KiB physical page, cached at walk
	// time when the frame is RAM-backed; nil for MMIO frames, which must
	// always go through the bus (device reads have side effects).
	page *[mem.PageSize]byte
}

// Walker translates virtual addresses through page tables rooted at a
// table base register. Each CPU core and each GPU address space owns its
// own Walker (TLBs are per translation agent, as in hardware). A Walker is
// not safe for concurrent use, but its data loads and stores go through
// mem's word-granular atomic accessors, so they compose race-free with
// other walkers touching the same guest memory — shader-core goroutines
// race on guest memory by (guest) design. Table walks stay plain reads:
// page tables are written before the job that uses them is submitted,
// with a happens-before edge through the doorbell.
type Walker struct {
	bus  *mem.Bus
	root uint64 // physical base of top-level table; 0 = translation off
	// tlb is taken lazily on the first non-zero SetRoot, from the arrays
	// released walkers left (see Release) or as 12 KiB of first-touch
	// memory: CPU walkers with translation off (the driver path) never pay
	// it, and a GPU device pays it once per core and once for its chain
	// walker (see Rebind), not per job. All TLB accesses are guarded by
	// root != 0, which implies tlb != nil.
	tlb *[tlbSize]tlbEntry

	// touched is a page bitmap of distinct virtual page numbers walked
	// since the last ResetTouched: key = vpn>>6, bit = vpn&63. It is
	// updated only on table walks (the first access to a page always
	// misses the TLB), keeping the hot TLB-hit path free of map work.
	// nil disables tracking.
	touched map[uint64]uint64

	// Walks counts full table walks (TLB misses).
	Walks uint64
	// Hits counts TLB hits.
	Hits uint64
}

// NewWalker creates a walker with translation disabled.
func NewWalker(bus *mem.Bus) *Walker {
	return &Walker{bus: bus}
}

// SetRoot points the walker at a new top-level table and flushes the TLB.
// A zero root disables translation (identity mapping, all permissions).
func (w *Walker) SetRoot(root uint64) {
	w.root = root
	if root != 0 && w.tlb == nil {
		w.tlb = newTLB() // a fresh or released array is already clean
		return
	}
	w.FlushTLB()
}

// newTLB is a walker's first-use allocation. Not inlined, so that it is not
// attributed to Rebind, whose every later call the hotalloc gate pins at
// zero.
//
//go:noinline
func newTLB() *[tlbSize]tlbEntry { return tlbs.Get().(*[tlbSize]tlbEntry) }

// tlbs recycles TLB arrays across walkers, and so across sessions. Every
// array in it is flushed: it holds no view of the RAM it last translated.
var tlbs = sync.Pool{New: func() any { return new([tlbSize]tlbEntry) }}

// Release flushes the walker's TLB, hands the array to the next walker that
// needs one and turns translation off. A nil walker, or one that never
// translated, has nothing to release.
func (w *Walker) Release() {
	if w != nil && w.tlb != nil {
		w.FlushTLB()
		tlbs.Put(w.tlb)
		w.tlb, w.root = nil, 0
	}
}

// Root returns the current top-level table base.
func (w *Walker) Root() uint64 { return w.root }

// Enabled reports whether translation is active.
func (w *Walker) Enabled() bool { return w.root != 0 }

// FlushTLB invalidates all cached translations.
func (w *Walker) FlushTLB() {
	if w.tlb != nil {
		*w.tlb = [tlbSize]tlbEntry{}
	}
}

// ResetTouched clears and enables touched-page tracking.
func (w *Walker) ResetTouched() {
	w.touched = make(map[uint64]uint64)
}

// Rebind readies a long-lived walker for its next unit of work — a GPU job
// on a persistent core — exactly as a newly made walker would be:
// root set, TLB flushed, counters zeroed, touched pages forgotten (tracking
// stays as ResetTouched left it). The flush is what the guest observes:
// page tables the driver rewrote since the last job are honoured, and every
// job's Walks count starts from a cold TLB. Nothing is allocated once the
// walker has translated before.
func (w *Walker) Rebind(root uint64) {
	w.SetRoot(root)
	clear(w.touched)
	w.Hits, w.Walks = 0, 0
}

// ForEachTouched calls fn for every distinct virtual page number recorded
// since the last ResetTouched, in no particular order.
func (w *Walker) ForEachTouched(fn func(vpn uint64)) {
	for key, word := range w.touched {
		for word != 0 {
			bit := uint64(bits.TrailingZeros64(word))
			fn(key<<6 | bit)
			word &= word - 1
		}
	}
}

// Translate maps a virtual address to a physical address, checking
// permissions for the access kind. With translation disabled it returns
// the address unchanged.
func (w *Walker) Translate(va uint64, kind mem.AccessKind) (uint64, *Fault) {
	if w.root == 0 {
		return va, nil
	}
	vpn := va >> 12
	e := &w.tlb[vpn&(tlbSize-1)]
	if e.vpn == vpn+1 {
		w.Hits++
		if !permOK(e.perms, kind) {
			return 0, &Fault{Type: FaultPermission, VA: va, Kind: kind}
		}
		return e.pfn | (va & mem.PageMask), nil
	}
	w.Walks++
	pfn, perms, fault := w.walk(va, kind, false)
	if fault != nil {
		return 0, fault
	}
	w.fill(e, vpn, pfn, perms)
	if !permOK(perms, kind) {
		return 0, &Fault{Type: FaultPermission, VA: va, Kind: kind}
	}
	return pfn | (va & mem.PageMask), nil
}

// fill is the miss half of a walk that reached a page: it records the page
// as touched, caches its host view when the frame is RAM and plants the
// entry e. Stores through the cached view bypass the bus, so a writable
// RAM page is marked in the RAM's dirty map up front.
func (w *Walker) fill(e *tlbEntry, vpn, pfn, perms uint64) *[mem.PageSize]byte {
	if w.touched != nil {
		w.touched[vpn>>6] |= 1 << (vpn & 63)
	}
	page := mem.AlignedPage(w.bus.PageView(pfn))
	if page != nil && perms&PermW != 0 {
		w.bus.MarkDirty(pfn, mem.PageSize)
	}
	*e = tlbEntry{vpn: vpn + 1, pfn: pfn, perms: perms, page: page}
	return page
}

// HitPage is the TLB probe of an access that can be served entirely from
// the TLB — translation on, valid entry, permitted kind, RAM-backed frame —
// made by n accesses to one page at once: it counts their n hits and
// returns the cached host page. In every other case it returns nil without
// touching any counter or TLB entry; the caller then tries FillPage on a
// miss, or goes through Translate, access by access, which accounts each
// one (a hit, or a walk and the fill the next access hits). So n accesses
// cost the same hits and walks whichever path serves them. The warp engine
// probes once for the active lanes of a warp on one page (n of them);
// Load, Store and the bulk copies probe once per access.
func (w *Walker) HitPage(va uint64, kind mem.AccessKind, n uint64) *[mem.PageSize]byte {
	if w.root == 0 {
		return nil
	}
	vpn := va >> 12
	e := &w.tlb[vpn&(tlbSize-1)]
	if e.vpn != vpn+1 || e.page == nil || !permOK(e.perms, kind) {
		return nil
	}
	w.Hits += n
	return e.page
}

// FillPage is HitPage's miss half: the probe of n accesses to one page the
// TLB does not hold. When the walk — which reads page tables from RAM only,
// never a device — reaches a RAM page whose entry permits kind, it counts
// one walk and n-1 hits, fills the entry as Translate would and returns the
// page: what n per-access probes count, the first walking and the rest
// hitting the entry it filled. In every other case — translation off, an
// entry the TLB already holds, a fault, a table or a frame outside RAM, a
// permission the entry refuses — it returns nil and changes nothing; the
// per-access path that follows then walks again and accounts each access
// itself. Kept out of HitPage, whose every call site inlines it.
func (w *Walker) FillPage(va uint64, kind mem.AccessKind, n uint64) *[mem.PageSize]byte {
	if w.root == 0 {
		return nil
	}
	vpn := va >> 12
	e := &w.tlb[vpn&(tlbSize-1)]
	if e.vpn == vpn+1 {
		return nil
	}
	pfn, perms, fault := w.walk(va, kind, true)
	if fault != nil || !permOK(perms, kind) || w.bus.PageView(pfn) == nil {
		return nil
	}
	w.Walks++
	w.Hits += n - 1
	return w.fill(e, vpn, pfn, perms)
}

// Load translates va and loads size little-endian bytes in one step. On a
// TLB hit to a RAM-backed page it reads the cached host view directly,
// touching neither the bus nor any lock and allocating nothing; otherwise
// it falls back to Translate + Bus.AtomicRead (TLB miss, MMIO frame,
// permission fault, page-crossing access, or translation off). The
// returned error is a *Fault for translation failures or the bus error for
// physical ones.
func (w *Walker) Load(va uint64, size int, kind mem.AccessKind) (uint64, error) {
	off := va & mem.PageMask
	if off+uint64(size) <= mem.PageSize {
		if page := w.HitPage(va, kind, 1); page != nil {
			if size == 4 && off&3 == 0 {
				return uint64(mem.LaneLoad32(page, off)), nil
			}
			return mem.AtomicLoadLE(page[:], off, size), nil
		}
	}
	pa, fault := w.Translate(va, kind)
	if fault != nil {
		return 0, fault
	}
	return w.bus.AtomicRead(pa, size)
}

// Store translates va and stores size little-endian bytes in one step,
// with the same fast/slow split as Load. Stores always check PermW.
func (w *Walker) Store(va uint64, size int, val uint64) error {
	off := va & mem.PageMask
	if off+uint64(size) <= mem.PageSize {
		if page := w.HitPage(va, mem.Write, 1); page != nil {
			if size == 4 && off&3 == 0 {
				mem.LaneStore32(page, off, uint32(val))
				return nil
			}
			mem.AtomicStoreLE(page[:], off, size, val)
			return nil
		}
	}
	pa, fault := w.Translate(va, mem.Write)
	if fault != nil {
		return fault
	}
	return w.bus.AtomicWrite(pa, size, val)
}

// ReadBytes copies len(dst) bytes out of the virtual address space,
// page by page (the underlying frames need not be contiguous). Pages
// cached in the TLB are copied straight from their host views.
func (w *Walker) ReadBytes(va uint64, dst []byte) error {
	for off := 0; off < len(dst); {
		cva := va + uint64(off)
		chunk := int(mem.PageSize - cva&mem.PageMask)
		if chunk > len(dst)-off {
			chunk = len(dst) - off
		}
		if page := w.HitPage(cva, mem.Read, 1); page != nil {
			mem.AtomicReadBytes(page[:], cva&mem.PageMask, dst[off:off+chunk])
		} else {
			pa, fault := w.Translate(cva, mem.Read)
			if fault != nil {
				return fault
			}
			if err := w.bus.AtomicReadBytes(pa, dst[off:off+chunk]); err != nil {
				return err
			}
		}
		off += chunk
	}
	return nil
}

// WriteBytes copies src into the virtual address space, page by page.
func (w *Walker) WriteBytes(va uint64, src []byte) error {
	for off := 0; off < len(src); {
		cva := va + uint64(off)
		chunk := int(mem.PageSize - cva&mem.PageMask)
		if chunk > len(src)-off {
			chunk = len(src) - off
		}
		if page := w.HitPage(cva, mem.Write, 1); page != nil {
			mem.AtomicWriteBytes(page[:], cva&mem.PageMask, src[off:off+chunk])
		} else {
			pa, fault := w.Translate(cva, mem.Write)
			if fault != nil {
				return fault
			}
			if err := w.bus.AtomicWriteBytes(pa, src[off:off+chunk]); err != nil {
				return err
			}
		}
		off += chunk
	}
	return nil
}

// permOK reports whether perms allow an access of kind: PermR, PermW and
// PermX are the bits 2 + Read, 2 + Write and 2 + Execute, and perms holds no
// other bit, so any other kind is refused.
func permOK(perms uint64, kind mem.AccessKind) bool {
	return perms>>(2+uint(kind))&1 != 0
}

var _ [0]struct{} = [PermR>>(2+mem.Read) + PermW>>(2+mem.Write) + PermX>>(2+mem.Execute) - 3]struct{}{}

// walk performs the 3-level table walk, returning the page frame base and
// its permissions. With ramOnly a table entry outside RAM is a bus fault
// without a bus access: such a walk reads no device register.
func (w *Walker) walk(va uint64, kind mem.AccessKind, ramOnly bool) (pfn, perms uint64, fault *Fault) {
	table := w.root
	for level := levels - 1; level >= 0; level-- {
		entryAddr := table + vaIndex(va, level)*8
		if ramOnly && !w.bus.RAM().Contains(entryAddr, 8) {
			return 0, 0, &Fault{Type: FaultBus, VA: va, Kind: kind}
		}
		pte, err := w.bus.Read(entryAddr, 8)
		if err != nil {
			return 0, 0, &Fault{Type: FaultBus, VA: va, Kind: kind}
		}
		if pte&pteValid == 0 {
			return 0, 0, &Fault{Type: FaultTranslation, VA: va, Kind: kind}
		}
		if pte&pteLeaf != 0 || level == 0 {
			if level != 0 {
				// Block mappings at higher levels are not used by our
				// builders; treat as translation fault to keep the model
				// strict.
				return 0, 0, &Fault{Type: FaultTranslation, VA: va, Kind: kind}
			}
			return pte & pteAddrMask, pte & permMask, nil
		}
		table = pte & pteAddrMask
	}
	return 0, 0, &Fault{Type: FaultTranslation, VA: va, Kind: kind}
}
