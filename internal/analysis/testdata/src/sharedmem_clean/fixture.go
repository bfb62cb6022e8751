// Package fixture is the sharedmem negative control: an identical call
// mix in a package that is NOT in the enforced set produces no findings
// at all — the contract binds concurrent-guest packages only.
package fixture

import "mobilesim/internal/mem"

func plainAccessOutsideEnforcedSet(b *mem.Bus, r *mem.RAM, page []byte) {
	b.Read(0x1000, 4)
	b.Write(0x1000, 4, 7)
	r.Bytes(0x1000, 64)
	mem.LoadLE(page[:8])
}
