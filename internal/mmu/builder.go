package mmu

import (
	"fmt"

	"mobilesim/internal/mem"
)

// AddressSpace owns a page-table tree and provides map/unmap operations.
// The guest boot code uses one for the CPU and the GPU driver builds one
// per GPU address space (the Bifrost MMU's AS0), exactly as the vendor
// driver programs translation table base registers.
type AddressSpace struct {
	bus   *mem.Bus
	alloc *mem.PageAllocator
	root  uint64
	pages int // leaf mappings installed
}

// NewAddressSpace allocates an empty top-level table.
func NewAddressSpace(bus *mem.Bus, alloc *mem.PageAllocator) (*AddressSpace, error) {
	root, err := allocTable(bus, alloc)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{bus: bus, alloc: alloc, root: root}, nil
}

func allocTable(bus *mem.Bus, alloc *mem.PageAllocator) (uint64, error) {
	p, err := alloc.AllocPage()
	if err != nil {
		return 0, err
	}
	mem.ZeroPage(bus.RAM(), p)
	return p, nil
}

// RestoreAddressSpace reconstructs an address space around an existing
// page-table tree — the snapshot/restore path: the tables themselves live
// in the restored RAM, so only the root pointer and the mapping count need
// to be carried over. No memory is touched.
func RestoreAddressSpace(bus *mem.Bus, alloc *mem.PageAllocator, root uint64, pages int) (*AddressSpace, error) {
	if root%mem.PageSize != 0 || root == 0 {
		return nil, fmt.Errorf("mmu: bad restored table root %#x", root)
	}
	return &AddressSpace{bus: bus, alloc: alloc, root: root, pages: pages}, nil
}

// Root returns the physical base of the top-level table, suitable for a
// translation table base register.
func (as *AddressSpace) Root() uint64 { return as.root }

// MappedPages returns the number of leaf mappings currently installed.
func (as *AddressSpace) MappedPages() int { return as.pages }

// Map installs a single-page translation va -> pa with the given PermR/W/X
// bits. Both addresses must be page aligned.
func (as *AddressSpace) Map(va, pa uint64, perms uint64) error {
	if va%mem.PageSize != 0 || pa%mem.PageSize != 0 {
		return fmt.Errorf("mmu: unaligned mapping %#x -> %#x", va, pa)
	}
	if perms&^uint64(permMask) != 0 || perms == 0 {
		return fmt.Errorf("mmu: bad permission bits %#x", perms)
	}
	table := as.root
	for level := levels - 1; level > 0; level-- {
		entryAddr := table + vaIndex(va, level)*8
		pte, err := as.bus.Read(entryAddr, 8)
		if err != nil {
			return err
		}
		if pte&pteValid == 0 {
			next, err := allocTable(as.bus, as.alloc)
			if err != nil {
				return err
			}
			if err := as.bus.Write(entryAddr, 8, next|pteValid); err != nil {
				return err
			}
			table = next
			continue
		}
		table = pte & pteAddrMask
	}
	entryAddr := table + vaIndex(va, 0)*8
	if err := as.bus.Write(entryAddr, 8, (pa&pteAddrMask)|perms|pteLeaf|pteValid); err != nil {
		return err
	}
	as.pages++
	return nil
}

// MapRange maps size bytes (rounded up to pages) starting at va to the
// physically contiguous range starting at pa.
func (as *AddressSpace) MapRange(va, pa, size uint64, perms uint64) error {
	for off := uint64(0); off < size; off += mem.PageSize {
		if err := as.Map(va+off, pa+off, perms); err != nil {
			return err
		}
	}
	return nil
}

// Unmap removes the translation for one page. Missing mappings are ignored
// (idempotent, like the vendor driver's region teardown).
func (as *AddressSpace) Unmap(va uint64) error {
	table := as.root
	for level := levels - 1; level > 0; level-- {
		pte, err := as.bus.Read(table+vaIndex(va, level)*8, 8)
		if err != nil {
			return err
		}
		if pte&pteValid == 0 {
			return nil
		}
		table = pte & pteAddrMask
	}
	entryAddr := table + vaIndex(va, 0)*8
	pte, err := as.bus.Read(entryAddr, 8)
	if err != nil {
		return err
	}
	if pte&pteValid != 0 {
		as.pages--
	}
	return as.bus.Write(entryAddr, 8, 0)
}

// Lookup translates va without permission checks, for driver-side
// debugging. ok is false when unmapped.
func (as *AddressSpace) Lookup(va uint64) (pa uint64, perms uint64, ok bool) {
	table := as.root
	for level := levels - 1; level > 0; level-- {
		pte, err := as.bus.Read(table+vaIndex(va, level)*8, 8)
		if err != nil || pte&pteValid == 0 {
			return 0, 0, false
		}
		table = pte & pteAddrMask
	}
	pte, err := as.bus.Read(table+vaIndex(va, 0)*8, 8)
	if err != nil || pte&pteValid == 0 {
		return 0, 0, false
	}
	return (pte & pteAddrMask) | (va & mem.PageMask), pte & permMask, true
}
