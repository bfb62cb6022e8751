package mem

import (
	"bytes"
	"fmt"
)

// Snapshot images and forking.
//
// An Image is an immutable capture of a RAM region's contents up to its
// highest dirty page. ForkRAM builds a new RAM that starts out with those
// contents by copying the image's content pages — the pages holding a
// non-zero byte — into a store from the recycling pool. After construction
// a fork is an ordinary RAM: it keeps no reference to the image, so no
// write path can reach the image or a sibling fork, and the guest memory
// model (DESIGN.md §7) applies to it without qualification.
//
// A fork therefore costs O(content pages of the image), not O(1). That is
// the right trade for the images the program makes: every capture outside
// the tests follows a boot, whose image holds one content page (the
// firmware). A caller forking images of tens of MiB wants kernel
// copy-on-write over an off-heap store instead (DESIGN.md §8).

// Image is an immutable snapshot of RAM contents: the bytes of
// [base, base+len(data)) plus the region's full size. data's length is a
// page multiple. Any number of forks may be built from one image
// concurrently; it must never be mutated.
type Image struct {
	base uint64
	size uint64
	data []byte
	// content lists, in ascending order, the pages of data that hold a
	// non-zero byte: the only pages a fork has to copy.
	content []uint64
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
	img := &Image{base: base, size: size, data: data}
	var zero [PageSize]byte
	for off := 0; off < len(data); off += PageSize {
		if !bytes.Equal(data[off:off+PageSize], zero[:]) {
			img.content = append(img.content, uint64(off/PageSize))
		}
	}
	return img, nil
}

// CaptureImage snapshots the RAM's contents up to its highest dirty page.
// The dirty map is the bound: no unmarked page holds a non-zero byte (the
// invariant Recycle relies on, too).
func (r *RAM) CaptureImage() (*Image, error) {
	return NewImage(r.base, r.Size(), bytes.Clone(r.data[:min(r.markedTop(), r.Size())]))
}

// ForkRAM returns a RAM from the recycling pool whose contents are the
// image's (zero beyond the captured prefix), with the image's content
// pages marked dirty so that Recycle scrubs them.
func ForkRAM(img *Image) *RAM {
	r := AcquireRAM(img.base, img.size)
	for _, pi := range img.content {
		off := pi * PageSize
		copy(r.data[off:off+PageSize], img.data[off:off+PageSize])
		r.markRange(off, PageSize)
	}
	return r
}
