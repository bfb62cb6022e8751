package mem

// Internals exposed to the external tests in package mem_test, which can
// import the MMU and device models (both import mem) without a cycle.

// DirtyPages returns the indices of the pages marked in the dirty map, in
// ascending order.
func (r *RAM) DirtyPages() []uint64 {
	var out []uint64
	for pi := uint64(0); pi < uint64(len(r.dirty))*64; pi++ {
		if r.pageDirty(pi) {
			out = append(out, pi)
		}
	}
	return out
}

// Store exposes the raw backing store.
func (r *RAM) Store() []byte { return r.words }
