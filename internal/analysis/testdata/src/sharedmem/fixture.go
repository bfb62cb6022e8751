// Package fixture exercises the sharedmem contract: inside an enforced
// (concurrent-guest) package, plain Bus/RAM accessors are findings; the
// atomic accessors and the walker are the blessed paths.
package fixture

import (
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
)

func forbiddenBus(b *mem.Bus) {
	b.Read(0x1000, 4)     // want "mem.Bus.Read bypasses the race-clean memory model"
	b.Write(0x1000, 4, 7) // want "mem.Bus.Write bypasses the race-clean memory model"
	var buf [8]byte
	b.ReadBytes(0x1000, buf[:])  // want "mem.Bus.ReadBytes bypasses"
	b.WriteBytes(0x1000, buf[:]) // want "mem.Bus.WriteBytes bypasses"
}

func forbiddenRAM(r *mem.RAM) {
	r.Read(0x1000, 4)     // want "mem.RAM.Read bypasses"
	r.Write(0x1000, 4, 7) // want "mem.RAM.Write bypasses"
	r.Bytes(0x1000, 64)   // want "mem.RAM.Bytes bypasses"
}

func forbiddenHelpers(page []byte) {
	mem.LoadLE(page[:8])        // want "mem.LoadLE bypasses"
	mem.StoreLE(page[:8], 4, 1) // want "mem.StoreLE bypasses"
}

func blessed(b *mem.Bus, page []byte) {
	b.AtomicRead(0x1000, 4)          // atomic path: no finding
	b.AtomicWrite(0x1000, 4, 7)      // no finding
	mem.AtomicLoadLE(page, 0, 4)     // no finding
	mem.AtomicStoreLE(page, 0, 4, 1) // no finding
	mmu.NewWalker(b)                 // every walker is atomic: no finding
}

func annotated(b *mem.Bus) {
	//simlint:allow sharedmem -- fixture: deliberate plain access on a single-owner page
	b.Write(0x2000, 4, 1) // want-suppressed "mem.Bus.Write bypasses"
	b.Read(0x2000, 4)     //simlint:allow sharedmem -- fixture: trailing annotation form // want-suppressed "mem.Bus.Read bypasses"
}

// notGuestMemory proves type-based resolution: same method names on
// unrelated types are not findings.
type otherBus struct{}

func (otherBus) Read(addr uint64, size int) (uint64, error)  { return 0, nil }
func (otherBus) Write(addr uint64, size int, v uint64) error { return nil }

func notGuestMemory(o otherBus) {
	o.Read(0x1000, 4)     // unrelated type: no finding
	o.Write(0x1000, 4, 7) // no finding
}
