package mem

import (
	"fmt"
	"sync"
)

// PageAllocator hands out physical page frames from a RAM range. The guest
// "firmware", the kernel driver's memory manager, and the MMU page-table
// builders all allocate backing pages through it. Free is supported so
// long-running workloads (SLAMBench runs thousands of jobs) do not leak
// simulated memory.
type PageAllocator struct {
	mu    sync.Mutex
	base  uint64
	limit uint64
	next  uint64
	free  []uint64
}

// NewPageAllocator manages page frames in [base, base+size). Both base and
// size must be page-aligned.
func NewPageAllocator(base, size uint64) (*PageAllocator, error) {
	if base%PageSize != 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: allocator range %#x+%#x not page aligned", base, size)
	}
	return &PageAllocator{base: base, limit: base + size, next: base}, nil
}

// AllocPage returns the physical address of a free, zeroed-by-construction
// page frame. (RAM starts zeroed; recycled pages are re-zeroed by the
// caller via ZeroPage when required.)
func (a *PageAllocator) AllocPage() (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p, nil
	}
	if a.next >= a.limit {
		return 0, fmt.Errorf("mem: out of physical pages (%d allocated)", (a.next-a.base)/PageSize)
	}
	p := a.next
	a.next += PageSize
	return p, nil
}

// AllocPages allocates n physically contiguous pages. Contiguity is only
// guaranteed when the bump region still has room; otherwise it falls back
// to an error so callers can size their carve-outs correctly.
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

// FreePage returns a page frame to the allocator.
func (a *PageAllocator) FreePage(addr uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = append(a.free, addr)
}

// InUse returns the number of pages currently handed out.
func (a *PageAllocator) InUse() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int((a.next-a.base)/PageSize) - len(a.free)
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
	Free  []uint64
}

// State captures the allocator for a snapshot.
func (a *PageAllocator) State() AllocState {
	a.mu.Lock()
	defer a.mu.Unlock()
	free := make([]uint64, len(a.free))
	copy(free, a.free)
	return AllocState{Base: a.base, Limit: a.limit, Next: a.next, Free: free}
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
	free := make([]uint64, len(st.Free))
	copy(free, st.Free)
	return &PageAllocator{base: st.Base, limit: st.Limit, next: st.Next, free: free}, nil
}
