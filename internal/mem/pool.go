package mem

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// RAM recycling. Allocating a platform's main memory costs a host
// make([]byte, 256–512 MiB) — and once the Go allocator starts reusing
// spans, a full memclr of that size on every platform construction. For
// short simulations (benchmark iterations, Batch sessions) the clear
// dominates wall-clock, drowning out the simulation being measured.
//
// The pool recycles regions across platform lifetimes instead: Recycle
// clears exactly the pages the RAM's dirty map names — the pages the
// simulation wrote, typically a dozen out of 131 072 — and parks the RAM
// (backing store and the thereby all-zero map together) for the next
// AcquireRAM of the same size, which allocates nothing. sync.Pool
// semantics apply: parked regions are dropped under GC pressure, so idle
// pools do not pin memory forever.

var ramPools struct {
	sync.Mutex
	bySize map[uint64]*sync.Pool // backing-store bytes -> pool of *RAM
}

// ramPool returns the pool for backing stores of n bytes.
func ramPool(n uint64) *sync.Pool {
	ramPools.Lock()
	defer ramPools.Unlock()
	p := ramPools.bySize[n]
	if p == nil {
		if ramPools.bySize == nil {
			ramPools.bySize = make(map[uint64]*sync.Pool)
		}
		p = new(sync.Pool)
		ramPools.bySize[n] = p
	}
	return p
}

// AcquireRAM returns a RAM region like NewRAM, preferring a recycled one
// of the same size. Recycle zeroed every page its previous owner wrote,
// so callers observe the same all-zero initial contents as a fresh
// allocation.
func AcquireRAM(base, size uint64) *RAM {
	if r, _ := ramPool((size + 7) &^ uint64(7)).Get().(*RAM); r != nil {
		r.base, r.data = base, r.words[:size]
		return r
	}
	return NewRAM(base, size)
}

// recycleAudit is a test seam, nil outside tests: see SetRecycleAudit.
var recycleAudit atomic.Pointer[func(store []byte, markedTop uint64)]

// SetRecycleAudit makes every Recycle call fn (nil: nothing) with the
// scrubbed backing store, just before it is parked, and the byte offset
// one past the highest page that was marked. Tests use it to assert that
// no session leaves guest bytes behind. fn may run on several goroutines.
func SetRecycleAudit(fn func(store []byte, markedTop uint64)) { recycleAudit.Store(&fn) }

// Recycle zeroes every page the simulation wrote and parks the region for
// reuse by a future AcquireRAM of the same size. The dirty map is the only
// bound — there is no caller-derived range — so a write path that forgets
// to mark leaks guest bytes to the next owner; the isolation audit test
// scans for exactly that. The RAM must not be used after Recycle;
// outstanding Bytes and PageView views go stale.
func (r *RAM) Recycle() {
	if r.data == nil {
		return
	}
	var top uint64 // one past the highest marked page, for the audit
	for wi := range r.dirty {
		w := r.dirty[wi].Load()
		if w == 0 {
			continue
		}
		r.dirty[wi].Store(0)
		top = (uint64(wi)*64 + uint64(bits.Len64(w))) * PageSize
		for w != 0 { // one memclr per run of set bits
			lo := bits.TrailingZeros64(w)
			n := bits.TrailingZeros64(^(w >> lo))
			start := (uint64(wi)*64 + uint64(lo)) * PageSize
			clear(r.words[start:min(start+uint64(n)*PageSize, uint64(len(r.words)))])
			w &^= (uint64(1)<<n - 1) << lo
		}
	}
	if audit := recycleAudit.Load(); audit != nil && *audit != nil {
		(*audit)(r.words, top)
	}
	r.data = nil
	ramPool(uint64(len(r.words))).Put(r)
}
