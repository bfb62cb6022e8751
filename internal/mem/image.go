package mem

import (
	"fmt"
	"math/bits"
	"sync"
)

// Snapshot images and copy-on-write forking.
//
// An Image is an immutable capture of a RAM region's logical contents up
// to a dirty bound — everything the guest could have written, page
// rounded. ForkRAM builds a new RAM whose pages are *shared* with the
// image until first write: reads of an untouched page are served straight
// from the image's backing store, and the first store to a page copies it
// into the fork's private backing store ("privatization") before the
// store lands. Many forks can share one image concurrently; the image is
// never written after capture.
//
// Invariants the implementation maintains:
//
//   - One map serves both purposes: the RAM's dirty bit for an image page
//     *is* its private bit. The fork's private backing store (RAM.words)
//     is all-zero for every page still shared: only privatization and
//     post-privatization writes touch it, and privatization sets the bit,
//     so Recycle scrubs exactly the privatized pages (plus whatever was
//     written beyond the image).
//   - Privatization is serialised per RAM by cowState.mu and published by
//     setting the page's bit (a CAS, because markers of neighbouring pages
//     share the word and do not take mu) *after* the copy, so a concurrent
//     reader either still sees the shared image page or sees the fully
//     copied private page — never a partial copy. This composes with the
//     word-granular atomic accessors: shared pages are read-only, private
//     pages follow the ordinary guest memory model (DESIGN.md §7).
//   - Every write entry point (Write/WriteBytes/Slice/Bytes/Atomic*,
//     Bus.MarkDirty, the MMU's writable page views via PageView and the
//     guest CPU's via StablePage)
//     privatizes the covered pages before it stores or marks; there is no
//     path that stores into a shared page's backing, and none that sets a
//     shared page's bit without going through privatization.
//
// Pages beyond the image prefix (never allocated at capture time) are
// zero in both the image and the fork, so they are born private.

// Image is an immutable snapshot of RAM contents: the logical bytes of
// [base, base+len(data)) plus the region's full size. data's length is a
// page multiple. Images are shared read-only between any number of
// forked RAMs and must never be mutated.
type Image struct {
	base uint64
	size uint64
	data []byte
}

// Base returns the first physical address of the imaged region.
func (img *Image) Base() uint64 { return img.base }

// Size returns the full logical size of the imaged RAM region.
func (img *Image) Size() uint64 { return img.size }

// CapturedBytes returns how many bytes of content the image carries (the
// page-rounded dirty prefix at capture time).
func (img *Image) CapturedBytes() uint64 { return uint64(len(img.data)) }

// Data exposes the captured prefix for serialization. Callers must treat
// the returned slice as immutable.
func (img *Image) Data() []byte { return img.data }

// NewImage reconstructs an image from serialized parts (see Data). data
// is retained, not copied; len(data) must be a page multiple no larger
// than size, and size must be page aligned.
func NewImage(base, size uint64, data []byte) (*Image, error) {
	if size%PageSize != 0 || uint64(len(data))%PageSize != 0 {
		return nil, fmt.Errorf("mem: image geometry %d/%d not page aligned", len(data), size)
	}
	if uint64(len(data)) > size {
		return nil, fmt.Errorf("mem: image data %d exceeds region size %d", len(data), size)
	}
	return &Image{base: base, size: size, data: data}, nil
}

// CaptureImage snapshots the RAM's logical contents up to the larger of
// the region's highest dirty page and the caller-supplied physical bound
// (the platform passes its page allocator's high watermark), page
// rounded. The capture reads through the copy-on-write view, so imaging a
// forked RAM sees its logical contents, not its raw backing store.
func (r *RAM) CaptureImage(limit uint64) (*Image, error) {
	if r.Size()%PageSize != 0 {
		return nil, fmt.Errorf("mem: cannot image RAM of unaligned size %d", r.Size())
	}
	bound := r.markedTop()
	if limit > r.base && limit-r.base > bound {
		bound = limit - r.base
	}
	bound = (bound + PageMask) &^ uint64(PageMask)
	if bound > r.Size() {
		bound = r.Size()
	}
	data := make([]byte, bound)
	r.readBytesCow(0, data)
	return &Image{base: r.base, size: r.Size(), data: data}, nil
}

// cowState is the per-fork copy-on-write bookkeeping.
type cowState struct {
	img *Image
	// mu serialises privatization; setting the page's bit in RAM.dirty
	// under it publishes the copied page to concurrent lock-free readers.
	mu sync.Mutex
	// imgPages is len(img.data)/PageSize; pages at or beyond it are
	// private by construction (zero in both image and fork).
	imgPages uint64
}

// ForkRAM creates a copy-on-write fork of an image, drawing the private
// backing store from the recycling pool. The fork behaves exactly like a
// RAM whose initial contents are the image (zero beyond the captured
// prefix); writes privatize pages and never reach the shared image.
func ForkRAM(img *Image) *RAM {
	r := AcquireRAM(img.base, img.size)
	r.fork.img, r.fork.imgPages = img, uint64(len(img.data))/PageSize
	r.cow = &r.fork
	return r
}

// Shared reports whether the RAM is a copy-on-write fork that still
// shares at least one page with its image.
func (r *RAM) Shared() bool {
	c := r.cow
	if c == nil {
		return false
	}
	return uint64(r.PrivatizedPages()) < c.imgPages
}

// PrivatizedPages returns how many image pages the fork has copied into
// its own backing store (0 for a non-fork).
func (r *RAM) PrivatizedPages() int {
	c := r.cow
	if c == nil {
		return 0
	}
	n := 0
	for wi := uint64(0); wi*64 < c.imgPages; wi++ {
		w := r.dirty[wi].Load()
		if rest := c.imgPages - wi*64; rest < 64 {
			w &= 1<<rest - 1 // pages beyond the image are not counted
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// pagePrivate reports whether the page (by index) is served from the
// fork's own backing store: every page beyond the image is, and an image
// page is once privatization has set its dirty bit.
func (r *RAM) pagePrivate(pi uint64) bool {
	return pi >= r.cow.imgPages || r.pageDirty(pi)
}

// privatizePage makes one shared page private and publishes it. The image
// page is copied into the fork's backing store first, unless copyImage is
// false: then the caller guarantees the page's full logical content is
// determined without it — the whole page is about to be overwritten, or
// the wanted content is all-zero, which a shared page's backing already is
// (see the invariants above). Idempotent and safe for concurrent use.
func (r *RAM) privatizePage(pi uint64, copyImage bool) {
	if r.pagePrivate(pi) {
		return
	}
	c := r.cow
	c.mu.Lock() // a no-copy caller, too, waits out a copy in flight
	if copyImage && !r.pageDirty(pi) {
		off := pi * PageSize
		copy(r.words[off:off+PageSize], c.img.data[off:off+PageSize])
	}
	orBits(&r.dirty[pi/64], 1<<(pi%64)) // publishes the copy
	c.mu.Unlock()
}

// privatizeRange privatizes every page covering [off, off+size) in the
// fork's backing store; off/size are region offsets. overwrite prepares
// the range for a full plain overwrite: pages it covers whole skip the
// image copy and only partial boundary pages pay it. Plain-path only — on
// the atomic write path a mark-without-copy would let a concurrent reader
// observe zeros that were never guest-visible, so atomic writers always
// copy-privatize.
func (r *RAM) privatizeRange(off, size uint64, overwrite bool) {
	if size == 0 {
		return
	}
	for pi := off / PageSize; pi <= (off+size-1)/PageSize; pi++ {
		whole := pi*PageSize >= off && (pi+1)*PageSize <= off+size
		r.privatizePage(pi, !(overwrite && whole))
	}
}

// rangePrivate reports whether every page covering [off, off+size) is
// already private (always true for a non-fork).
func (r *RAM) rangePrivate(off, size uint64) bool {
	c := r.cow
	if c == nil {
		return true
	}
	for pi := off / PageSize; pi <= (off+size-1)/PageSize; pi++ {
		if !r.pagePrivate(pi) {
			return false
		}
	}
	return true
}

// pageView returns the logical host view of the page containing region
// offset off (shared image page or private backing page).
func (r *RAM) pageView(off uint64) []byte {
	po := off &^ uint64(PageMask)
	if r.cow != nil && !r.pagePrivate(po/PageSize) {
		return r.cow.img.data[po : po+PageSize]
	}
	end := po + PageSize
	if end > uint64(len(r.data)) {
		end = uint64(len(r.data))
	}
	return r.data[po:end]
}

// readBytesCow copies the logical contents of [off, off+len(dst)) into
// dst, page by page, without privatizing anything. Plain (non-atomic)
// reads; use atomicReadBytesCow for shared-walker paths.
func (r *RAM) readBytesCow(off uint64, dst []byte) {
	if r.cow == nil {
		copy(dst, r.data[off:off+uint64(len(dst))])
		return
	}
	for n := 0; n < len(dst); {
		page := r.pageView(off + uint64(n))
		po := (off + uint64(n)) & PageMask
		n += copy(dst[n:], page[po:])
	}
}

// atomicReadBytesCow is readBytesCow with per-word atomic loads, for bulk
// reads that may overlap concurrent guest stores.
func (r *RAM) atomicReadBytesCow(off uint64, dst []byte) {
	if r.cow == nil {
		AtomicReadBytes(r.words, off, dst)
		return
	}
	for n := 0; n < len(dst); {
		cur := off + uint64(n)
		po := cur & PageMask
		chunk := PageSize - po
		if chunk > uint64(len(dst)-n) {
			chunk = uint64(len(dst) - n)
		}
		pi := cur / PageSize
		if r.pagePrivate(pi) {
			// Private pages may span into the word-extended tail; use the
			// full backing store so end-of-region words stay addressable.
			AtomicReadBytes(r.words, cur, dst[n:n+int(chunk)])
		} else {
			pageStart := cur &^ uint64(PageMask)
			AtomicReadBytes(r.cow.img.data[pageStart:pageStart+PageSize], po, dst[n:n+int(chunk)])
		}
		n += int(chunk)
	}
}

// cowRead performs a CoW-aware little-endian load of size bytes at region
// offset off (slow path: TLB misses, table walks, MMIO-adjacent traffic).
func (r *RAM) cowRead(off uint64, size int) uint64 {
	if r.rangePrivate(off, uint64(size)) {
		return loadLE(r.data[off : off+uint64(size)])
	}
	po := off & PageMask
	if po+uint64(size) <= PageSize {
		page := r.pageView(off)
		return loadLE(page[po : po+uint64(size)])
	}
	var buf [8]byte
	r.readBytesCow(off, buf[:size])
	return loadLE(buf[:size])
}

// cowAtomicRead is cowRead with word-granular atomicity.
func (r *RAM) cowAtomicRead(off uint64, size int) uint64 {
	if r.rangePrivate(off, uint64(size)) {
		return AtomicLoadLE(r.words, off, size)
	}
	po := off & PageMask
	if po+uint64(size) <= PageSize {
		return AtomicLoadLE(r.pageView(off), po, size)
	}
	var buf [8]byte
	r.atomicReadBytesCow(off, buf[:size])
	return loadLE(buf[:size])
}

// PageView returns the host view of the 4 KiB page at page-aligned
// physical address addr, for the MMU's TLB caching. ro reports that the
// view is a shared copy-on-write page and must not be written; asking
// with write=true privatizes the page first, so the returned view is then
// always writable. ok is false when the page is outside the region.
//
// Unlike Slice, a read view does not privatize: this is the entry point
// that keeps forked sessions sharing read-mostly pages.
func (r *RAM) PageView(addr uint64, write bool) (view []byte, ro, ok bool) {
	if addr%PageSize != 0 || !r.Contains(addr, PageSize) {
		return nil, false, false
	}
	off := addr - r.base
	c := r.cow
	if c == nil {
		return r.data[off : off+PageSize], false, true
	}
	pi := off / PageSize
	if write {
		r.privatizePage(pi, true)
	}
	if r.pagePrivate(pi) {
		return r.data[off : off+PageSize], false, true
	}
	return c.img.data[off : off+PageSize], true, true
}

// StablePage returns the host view of the RAM page containing addr, but
// only when that view can never go stale: the page of a plain RAM, or a
// page of a copy-on-write fork that is already private (a shared page's
// view would miss the privatization some other writer — a host-side
// WriteBytes, the GPU — performs later). write=true makes the page
// private first and marks it dirty, so the caller may store through the
// view for as long as the RAM lives. nil for MMIO, unmapped and
// still-shared pages: those accesses stay on the bus. It is what the guest
// CPU caches when translation is off and there is no TLB entry to hold a
// view.
func (b *Bus) StablePage(addr uint64, write bool) *[PageSize]byte {
	r := b.ram
	off := addr&^uint64(PageMask) - r.base
	if off%PageSize != 0 || !r.Contains(r.base+off, PageSize) {
		return nil
	}
	if write {
		if r.cow != nil {
			r.privatizePage(off/PageSize, true)
		}
		r.markDirty(r.base+off, PageSize)
	} else if r.cow != nil && !r.pagePrivate(off/PageSize) {
		return nil
	}
	return (*[PageSize]byte)(r.data[off : off+PageSize])
}

// PageView is the bus-level wrapper of RAM.PageView; MMIO and unmapped
// ranges report ok=false (device registers are never served from cached
// views).
func (b *Bus) PageView(addr uint64, write bool) (view []byte, ro, ok bool) {
	return b.ram.PageView(addr, write)
}
