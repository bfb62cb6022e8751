package mem

import (
	"fmt"
	"sync"
)

// PageAllocator hands out physical page frames from a RAM range by bumping
// a pointer. The guest "firmware", the kernel driver's memory manager, and
// the MMU page-table builders all allocate backing pages through it. No
// frame is handed back: the pages live as long as the platform, whose
// Close returns its RAM whole.
type PageAllocator struct {
	mu    sync.Mutex
	base  uint64
	limit uint64
	next  uint64
}

// NewPageAllocator manages page frames in [base, base+size). Both base and
// size must be page-aligned.
func NewPageAllocator(base, size uint64) (*PageAllocator, error) {
	if base%PageSize != 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: allocator range %#x+%#x not page aligned", base, size)
	}
	return &PageAllocator{base: base, limit: base + size, next: base}, nil
}

// AllocPage returns the physical address of a fresh page frame, zeroed by
// construction: RAM starts zeroed and no frame is handed out twice.
func (a *PageAllocator) AllocPage() (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next >= a.limit {
		return 0, fmt.Errorf("mem: out of physical pages (%d allocated)", (a.next-a.base)/PageSize)
	}
	p := a.next
	a.next += PageSize
	return p, nil
}

// AllocPages allocates n physically contiguous pages, or fails when fewer
// are left, so callers can size their carve-outs correctly.
func (a *PageAllocator) AllocPages(n int) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	need := uint64(n) * PageSize
	if a.next+need > a.limit {
		return 0, fmt.Errorf("mem: out of contiguous physical pages (want %d)", n)
	}
	p := a.next
	a.next += need
	return p, nil
}

// ZeroPage clears one page frame in the given RAM.
func ZeroPage(ram *RAM, addr uint64) {
	clear(ram.Bytes(addr, PageSize))
}

// AllocState is the serializable state of a PageAllocator, captured for
// platform snapshots.
type AllocState struct {
	Base  uint64
	Limit uint64
	Next  uint64
}

// State captures the allocator for a snapshot.
func (a *PageAllocator) State() AllocState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AllocState{Base: a.base, Limit: a.limit, Next: a.next}
}

// NewPageAllocatorFromState reconstructs an allocator from captured
// state, so a restored platform's allocations continue exactly where the
// snapshot's left off.
func NewPageAllocatorFromState(st AllocState) (*PageAllocator, error) {
	if st.Base%PageSize != 0 || st.Limit%PageSize != 0 || st.Next%PageSize != 0 {
		return nil, fmt.Errorf("mem: allocator state %#x/%#x/%#x not page aligned", st.Base, st.Next, st.Limit)
	}
	if st.Next < st.Base || st.Next > st.Limit {
		return nil, fmt.Errorf("mem: allocator bump pointer %#x outside [%#x, %#x]", st.Next, st.Base, st.Limit)
	}
	return &PageAllocator{base: st.Base, limit: st.Limit, next: st.Next}, nil
}
