package gpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/stats"
)

// The warp engine serves a warp's word and byte loads and stores in
// execLeaf when the TLB holds every page its active lanes touch, or a walk
// fills the one page they share, and hands every other warp to memLanes,
// the interpreter's per-lane access (DESIGN.md §9). The tests
// here run every memory micro-op over every shape that decides between the
// two, or between a paired, merged or lane-by-lane store, under both
// engines from the same state.

// Guest layout of the memory rig: two read-write pages, a read-only page,
// a page of device registers and a read-write page whose TLB entry is
// lmRW's.
const (
	lmRW     = 0x10000
	lmRO     = 0x20000
	lmMMIO   = 0x30000
	lmEvict  = lmRW + 256*mem.PageSize // the TLB is direct-mapped over 256 entries
	lmRWPA   = 0x0020_0000
	lmROPA   = 0x0030_0000
	lmEvPA   = 0x0040_0000
	lmDevPA  = 0x4000_0000 // beyond the rig's RAM
	lmSlotSz = 256         // local slot size
	lmNone   = 0x9000_0000 // unmapped
)

// regDev is a page of device registers that logs every access.
type regDev struct {
	regs [mem.PageSize + 8]byte
	log  []string
}

func (d *regDev) ReadReg(off uint64, size int) (uint64, error) {
	d.log = append(d.log, fmt.Sprintf("r%d@%#x", size, off))
	return binary.LittleEndian.Uint64(d.regs[off:]) & (^uint64(0) >> (64 - 8*uint(size))), nil
}

func (d *regDev) WriteReg(off uint64, size int, v uint64) error {
	d.log = append(d.log, fmt.Sprintf("w%d@%#x=%#x", size, off, v))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	copy(d.regs[off:off+uint64(size)], b[:size])
	return nil
}

// memShape is one warp shape: each lane's VA, the local slot the VAs lie
// in for LDL/STL, the warp's live and active lanes, and whether the TLB
// starts cold — or holds every page its active lanes touch but coldPage.
// With evict, a word load from lmEvict runs first, in the same tape, and
// fills the entry the access then evicts.
type memShape struct {
	name      string
	vas       soaRow
	slot      uint64
	lanes     int
	active    laneMask
	cold      bool
	coldPage  uint64
	localOnly bool
	evict     bool
}

var memShapes = []memShape{
	{name: "tlb_hit", vas: soaRow{lmRW + 0x40, lmRW + 0x48, lmRW + 0x44, lmRW + 0x80}, slot: lmRW},
	{name: "tlb_miss", vas: soaRow{lmRW + 0x40, lmRW + 0x48, lmRW + 0x44, lmRW + 0x80}, slot: lmRW, cold: true},
	{name: "mmio_frame", vas: soaRow{lmMMIO + 0x10, lmMMIO + 0x14, lmMMIO + 0x18, lmMMIO + 0x1c}, slot: lmMMIO},
	{name: "read_only_page", vas: soaRow{lmRO + 0x40, lmRO + 0x44, lmRO + 0x48, lmRO + 0x4c}, slot: lmRO},
	{name: "page_crossing_span", vas: soaRow{lmRW + 0xff8, lmRW + 0xffc, lmRW + 0x1000, lmRW + 0x1004}, slot: lmRW + 0xf00},
	{name: "misaligned_word", vas: soaRow{lmRW + 0x42, lmRW + 0x46, lmRW + 0x4a, lmRW + 0x4e}, slot: lmRW},
	{name: "partial_warp", vas: soaRow{lmRW + 0x40, lmRW + 0x48, lmRW + 0x44, lmRW + 0x80}, slot: lmRW, lanes: 3},
	{name: "divergent_warp", vas: soaRow{lmRW + 0x40, lmRW + 0x48, lmRW + 0x44, lmRW + 0x80}, slot: lmRW, active: 0b1101},
	{name: "local_lane_out_of_bounds", vas: soaRow{lmRW + 0x40, lmRW + 0x48, lmRW + 0x44, lmRW + lmSlotSz}, slot: lmRW, localOnly: true},
	{name: "divergent_local_lane_out_of_bounds", vas: soaRow{lmRW + 0x40, lmRW + 0x48, lmRW + 0x44, lmRW + lmSlotSz}, slot: lmRW, active: 0b1101, localOnly: true},
	{name: "inactive_lane_unmapped", vas: soaRow{lmRW + 0x40, lmNone, lmRW + 0x44, lmRW + 0x80}, slot: lmRW, active: 0b1101},
	{name: "divergent_two_pages_hit", vas: soaRow{lmRW + 0xff8, lmRW + 0xffc, lmRW + 0x1000, lmRW + 0x1004}, slot: lmRW + 0xf80, active: 0b1011},
	{name: "divergent_two_pages_one_miss", vas: soaRow{lmRW + 0xff8, lmRW + 0xffc, lmRW + 0x1000, lmRW + 0x1004}, slot: lmRW + 0xf80, active: 0b1011, coldPage: lmRW + 0x1000},
	{name: "divergent_tlb_miss", vas: soaRow{lmRW + 0x40, lmRW + 0x48, lmRW + 0x44, lmRW + 0x80}, slot: lmRW, active: 0b1101, cold: true},
	{name: "words_from_8_aligned", vas: soaRow{lmRW + 0x40, lmRW + 0x44, lmRW + 0x48, lmRW + 0x4c}, slot: lmRW},
	{name: "words_from_4_mod_8", vas: soaRow{lmRW + 0x44, lmRW + 0x48, lmRW + 0x4c, lmRW + 0x50}, slot: lmRW},
	{name: "overlapping_lanes", vas: soaRow{lmRW + 0x40, lmRW + 0x44, lmRW + 0x40, lmRW + 0x44}, slot: lmRW},
	{name: "bytes_from_word_boundary", vas: soaRow{lmRW + 0x40, lmRW + 0x41, lmRW + 0x42, lmRW + 0x43}, slot: lmRW},
	{name: "bytes_from_byte_1", vas: soaRow{lmRW + 0x41, lmRW + 0x42, lmRW + 0x43, lmRW + 0x44}, slot: lmRW},
	{name: "miss_evicts_previous_fill", vas: soaRow{lmRW + 0x40, lmRW + 0x48, lmRW + 0x44, lmRW + 0x80}, slot: lmRW, cold: true, evict: true},
	{name: "read_only_page_miss", vas: soaRow{lmRO + 0x40, lmRO + 0x44, lmRO + 0x48, lmRO + 0x4c}, slot: lmRO, cold: true},
	{name: "masked_one_page_miss", vas: soaRow{lmRW + 0x40, lmNone, lmRW + 0x44, lmRW + 0x80}, slot: lmRW, active: 0b1101, cold: true},
}

// memOps are the memory instructions of the table: every op and size clc
// emits, and the doubleword load, which clc never emits and the interpreter
// runs. Imm is the signed offset the address register is biased against.
var memOps = []Instr{
	{Op: OpLDG, Dst: R(3), A: R(1), Imm: 8},
	{Op: OpLDGB, Dst: R(3), A: R(1), Imm: 8},
	{Op: OpSTG, A: R(1), B: R(2), Imm: 8},
	{Op: OpSTGB, A: R(1), B: R(2), Imm: 8},
	{Op: OpLDL, Dst: R(3), A: R(1), Imm: 4},
	{Op: OpSTL, A: R(1), B: R(2), Imm: 4},
	{Op: OpLDG64, Dst: R(3), A: R(1), Imm: 8},
}

func isLocal(op Opcode) bool { return op == OpLDL || op == OpSTL }

// activeLanes is the shape's active lane set.
func (sh memShape) activeLanes() laneMask {
	switch {
	case sh.active != 0:
		return sh.active
	case sh.lanes != 0:
		return fullMask(sh.lanes)
	}
	return fullMask(WarpSize)
}

// memRig is one fresh machine running one memory instruction on one warp.
type memRig struct {
	ram *mem.RAM
	bus *mem.Bus
	dev *regDev
	ec  *execContext
	w   *warp
}

// newMemRig builds the machine for in over sh; then, when given, runs in
// the same clause after in and through the same address row.
func newMemRig(tb testing.TB, eng Engine, in Instr, sh memShape, then ...Instr) *memRig {
	tb.Helper()
	ram := mem.NewRAM(0, 16<<20)
	bus := mem.NewBus(ram)
	dev := &regDev{}
	for i := range dev.regs {
		dev.regs[i] = byte(0x90 + i)
	}
	if err := bus.MapDevice("regs", lmDevPA, mem.PageSize, dev); err != nil {
		tb.Fatal(err)
	}
	alloc, err := mem.NewPageAllocator(1<<20, 8<<20)
	if err != nil {
		tb.Fatal(err)
	}
	as, err := mmu.NewAddressSpace(bus, alloc)
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range []struct {
		va, pa, n, perms uint64
	}{{lmRW, lmRWPA, 2, mmu.PermR | mmu.PermW}, {lmRO, lmROPA, 1, mmu.PermR}, {lmMMIO, lmDevPA, 1, mmu.PermR | mmu.PermW}, {lmEvict, lmEvPA, 1, mmu.PermR | mmu.PermW}} {
		if err := as.MapRange(m.va, m.pa, m.n*mem.PageSize, m.perms); err != nil {
			tb.Fatal(err)
		}
	}
	fill := make([]byte, 3*mem.PageSize)
	for i := range fill {
		fill[i] = byte(i*7 + 1)
	}
	if err := bus.WriteBytes(lmRWPA, fill[:2*mem.PageSize]); err != nil {
		tb.Fatal(err)
	}
	if err := bus.WriteBytes(lmROPA, fill[2*mem.PageSize:]); err != nil {
		tb.Fatal(err)
	}
	walker := mmu.NewWalker(bus)
	walker.SetRoot(as.Root())
	walker.ResetTouched()
	for l, va := range sh.vas {
		if sh.cold || !sh.activeLanes().has(l) || va&^mem.PageMask == sh.coldPage {
			continue
		}
		if _, err := walker.Load(va&^mem.PageMask, 4, mem.Read); err != nil {
			tb.Fatal(err)
		}
	}

	ins := append(append([]Instr{in}, then...), Instr{Op: OpRET})
	if sh.evict {
		ins = append([]Instr{{Op: OpLDG, Dst: R(4), A: R(5)}}, ins...)
	}
	p := &Program{RegCount: 4, Clauses: []Clause{{Instrs: ins}}}
	p.compile(EngineWarp)
	ec := &execContext{
		prog:   p,
		eng:    eng,
		walker: walker,
		local:  &guestLocal{base: sh.slot, size: lmSlotSz, walker: walker},
		gs:     &stats.GPUStats{},
		gsz:    [3]uint32{WarpSize, 1, 1},
		lsz:    [3]uint32{WarpSize, 1, 1},
	}
	ec.bindTape()

	w := &warp{lanes: WarpSize}
	if sh.lanes != 0 {
		w.lanes = sh.lanes
	}
	w.active = fullMask(w.lanes)
	if sh.active != 0 {
		w.active = sh.active
		w.stack = append(w.stack, divFrame{rejoin: 1 << 20, pendPC: -1, joinMask: fullMask(w.lanes)})
	}
	for l := range sh.vas {
		a := sh.vas[l] - uint64(int64(int32(in.Imm)))
		if isLocal(in.Op) {
			a -= sh.slot
		}
		w.rows[1][l] = a
		w.rows[2][l] = 0xa1b2_c3d4 + uint64(l)*0x0101_0101
		w.rows[3][l] = 0x5555_5555_5555
		w.rows[5][l] = lmEvict + 0x10*uint64(l)
	}
	return &memRig{ram: ram, bus: bus, dev: dev, ec: ec, w: w}
}

// memOutcome is everything a memory instruction can change that the
// engines must agree on.
type memOutcome struct {
	err          string
	regs         [NumGRF + NumTemp]soaRow
	gs           stats.GPUStats
	hits, walks  uint64
	touched      int
	rw, ro, devs string
}

func (r *memRig) run(tb testing.TB) memOutcome {
	var o memOutcome
	if _, err := r.ec.runWarp(r.w); err != nil {
		o.err = err.Error()
	}
	r.ec.commitTallies()
	o.regs, o.gs = regsOf(r.w), *r.ec.gs
	o.hits, o.walks = r.ec.walker.Hits, r.ec.walker.Walks
	r.ec.walker.ForEachTouched(func(uint64) { o.touched++ })
	rw, ro := make([]byte, 2*mem.PageSize), make([]byte, mem.PageSize)
	if err := r.bus.ReadBytes(lmRWPA, rw); err != nil {
		tb.Fatal(err)
	}
	if err := r.bus.ReadBytes(lmROPA, ro); err != nil {
		tb.Fatal(err)
	}
	o.rw, o.ro, o.devs = string(rw), string(ro), fmt.Sprint(r.dev.log, r.dev.regs)
	return o
}

// leafServes is the rule execLeaf applies, restated: a word or byte access
// whose active lanes are naturally aligned on RAM pages whose entries
// permit the access — and inside the slot, for a local access — when the
// TLB holds every page they touch, or they touch one page. Inactive and
// dead lanes take no part.
func leafServes(in Instr, sh memShape) bool {
	size := map[Opcode]uint64{OpLDG: 4, OpLDGB: 1, OpSTG: 4, OpSTGB: 1, OpLDL: 4, OpSTL: 4}[in.Op]
	if size == 0 {
		return false
	}
	store := in.Op == OpSTG || in.Op == OpSTGB || in.Op == OpSTL
	pages, missed := map[uint64]bool{}, false
	for l, va := range sh.vas {
		if !sh.activeLanes().has(l) {
			continue
		}
		page := va &^ mem.PageMask
		if page == lmMMIO || store && page == lmRO || va%size != 0 || isLocal(in.Op) && va-sh.slot > lmSlotSz-4 {
			return false
		}
		pages[page], missed = true, missed || sh.cold || page == sh.coldPage
	}
	return !missed || len(pages) == 1
}

// TestLeafMemoryMatchesInterp runs LDG, LDGB, STG, STGB, LDL, STL and LDG64
// over a TLB hit, a TLB miss, an MMIO frame, a read-only page, a span
// across pages, misaligned words, a partial and a divergent warp, a local
// lane out of bounds, of a full warp and of a divergent one whose earlier
// active lanes have loaded, an inactive lane on an unmapped address, a
// divergent warp over two pages that both hit and over two where one
// misses, a divergent TLB miss, words that pair and words that do not,
// lanes that overlap, bytes that merge and bytes that do not, a miss whose
// fill evicts the entry the micro-op before it filled, a miss on a
// read-only page and a masked miss whose inactive lane is unmapped, on the
// warp engine and on the interpreter: the same fault or none, the same
// registers, guest bytes, device accesses, GPUStats and TLB hits, walks
// and touched pages. It also holds execLeaf to its rule: it serves exactly
// the accesses leafServes names, and hands every other back.
func TestLeafMemoryMatchesInterp(t *testing.T) {
	for _, in := range memOps {
		for _, sh := range memShapes {
			if sh.localOnly && !isLocal(in.Op) {
				continue
			}
			t.Run(in.Op.String()+"/"+sh.name, func(t *testing.T) {
				want := newMemRig(t, EngineInterp, in, sh).run(t)
				got := newMemRig(t, EngineWarp, in, sh).run(t)
				if got.err != want.err {
					t.Errorf("fault: warp %q, interpreter %q", got.err, want.err)
				}
				if got.regs != want.regs {
					t.Errorf("registers: warp r3 %#x, interpreter r3 %#x", got.regs[3], want.regs[3])
				}
				if got.gs != want.gs {
					t.Errorf("counters:\nwarp   %+v\ninterp %+v", got.gs, want.gs)
				}
				if got.hits != want.hits || got.walks != want.walks || got.touched != want.touched {
					t.Errorf("TLB hits/walks/touched pages: warp %d/%d/%d, interpreter %d/%d/%d",
						got.hits, got.walks, got.touched, want.hits, want.walks, want.touched)
				}
				if got.rw != want.rw || got.ro != want.ro || got.devs != want.devs {
					t.Errorf("guest memory or device accesses differ")
				}

				r := newMemRig(t, EngineWarp, in, sh)
				ops := r.ec.tape.heads()[0].ops
				if served, want := r.ec.execLeaf(r.w, ops, 0) == len(ops), leafServes(in, sh); served != want {
					t.Errorf("execLeaf served the access: %v, want %v", served, want)
				}
			})
		}
	}
}

// TestLeafServedThenFault runs a load execLeaf serves and, in the same tape,
// a store whose first lane faults on the read-only page: the warp aborts
// with the interpreter's counters, the served load's included.
func TestLeafServedThenFault(t *testing.T) {
	ld := Instr{Op: OpLDG, Dst: R(3), A: R(1), Imm: 8}
	st := Instr{Op: OpSTG, A: R(1), B: R(2), Imm: 8 + lmRO - lmRW}
	for _, sh := range memShapes[:1] {
		want := newMemRig(t, EngineInterp, ld, sh, st).run(t)
		r := newMemRig(t, EngineWarp, ld, sh, st)
		got := r.run(t)
		if want.err == "" || got.err != want.err {
			t.Errorf("fault: warp %q, interpreter %q", got.err, want.err)
		}
		if got.regs != want.regs || got.gs != want.gs || got.hits != want.hits || got.walks != want.walks {
			t.Errorf("at the abort:\nwarp   %+v\ninterp %+v", got.gs, want.gs)
		}
		if n := r.ec.served[0]; n != 0 {
			t.Errorf("served lanes left uncommitted: %d", n)
		}
	}
}

// TestHandBackReadsRenamedRows computes one address twice, into t0 and t1,
// and reads it first as a byte, which execLeaf serves, then as a
// misaligned word, which it hands back. Value numbering deletes the second
// computation and renames the word load's address row to t0, so t1 is
// never written on the tape: the hand-back must read the micro-op's rows,
// not its source instruction's operands, to load what the interpreter
// loads.
func TestHandBackReadsRenamedRows(t *testing.T) {
	sh := memShape{vas: soaRow{lmRW + 0x42, lmRW + 0x46, lmRW + 0x4a, lmRW + 0x4e}, slot: lmRW} // misaligned words
	addr := Instr{Op: OpIADD, Dst: T(0), A: R(1), B: Imm, Imm: 1}
	then := []Instr{
		{Op: OpLDGB, Dst: R(3), A: T(0)},
		{Op: OpIADD, Dst: T(1), A: R(1), B: Imm, Imm: 1},
		{Op: OpLDG, Dst: R(2), A: T(1)},
		{Op: OpMOV, Dst: T(1), A: R(3)}, // t1 is rewritten, so its computation may go
	}
	want := newMemRig(t, EngineInterp, addr, sh, then...).run(t)
	r := newMemRig(t, EngineWarp, addr, sh, then...)
	ops := r.ec.tape.heads()[0].ops
	renamed := false
	for _, u := range ops {
		renamed = renamed || u.kind() == kLoad && r.ec.tape.mems[u.imm()].size == 4 && u.a() == T(0)
	}
	if !renamed {
		t.Fatalf("value numbering left the word load's address row alone: %v", ops)
	}
	if leaf := newMemRig(t, EngineWarp, addr, sh, then...); leaf.ec.execLeaf(leaf.w, ops, 0) != 2 {
		t.Fatalf("execLeaf did not hand back the word load, the third of %v", ops)
	}
	got := r.run(t)
	if want.err != "" || got.err != want.err || got.regs != want.regs || got.gs != want.gs || got.hits != want.hits || got.walks != want.walks {
		t.Errorf("warp engine against the interpreter:\nwarp   %q r2 %#x %+v\ninterp %q r2 %#x %+v",
			got.err, got.regs[2], got.gs, want.err, want.regs[2], want.gs)
	}
}

// BenchmarkTapeMemory times the warp engine's memory micro-ops per warp
// access: word loads on a TLB hit (served in execLeaf), every access a TLB
// miss (the per-lane loop and one walk per access), byte loads and local
// loads on a hit, and word loads of a divergent warp (the per-lane loop).
// Each iteration runs one tape of eight accesses to eight pages. The
// tallies are committed once per batch of warps, as a job commits a core's
// once its share ends, so that a served access pays its memory site's
// commit once per batch and not once per warp.
func BenchmarkTapeMemory(b *testing.B) {
	// n accesses per warp; batch warps per commit, a core's share of an
	// eight-core job of 8 192 work-items.
	const n, batch = 8, 256
	bench := func(op Opcode, local, miss, divergent bool) func(b *testing.B) {
		return func(b *testing.B) {
			ram := mem.NewRAM(0, 16<<20)
			bus := mem.NewBus(ram)
			alloc, err := mem.NewPageAllocator(1<<20, 8<<20)
			if err != nil {
				b.Fatal(err)
			}
			as, err := mmu.NewAddressSpace(bus, alloc)
			if err != nil {
				b.Fatal(err)
			}
			if err := as.MapRange(lmRW, lmRWPA, n*mem.PageSize, mmu.PermR|mmu.PermW); err != nil {
				b.Fatal(err)
			}
			walker := mmu.NewWalker(bus)
			walker.SetRoot(as.Root())
			var ins []Instr
			for i := 0; i < n; i++ {
				ins = append(ins, Instr{Op: op, Dst: R(3 + i), A: R(1), Imm: uint32(i * mem.PageSize)})
			}
			p := &Program{RegCount: 3 + n, Clauses: []Clause{{Instrs: append(ins, Instr{Op: OpRET})}}}
			p.compile(EngineWarp)
			ec := &execContext{prog: p, eng: EngineWarp, walker: walker, gs: &stats.GPUStats{},
				local: &guestLocal{base: lmRW, size: n * mem.PageSize, walker: walker}}
			ec.bindTape()
			w := &warp{lanes: WarpSize}
			for l := 0; l < WarpSize; l++ {
				w.rows[1][l] = uint64(l) * 4
				if !local {
					w.rows[1][l] += lmRW
				}
			}
			run := func() {
				w.pc, w.steps, w.active, w.exited = 0, 0, fullMask(WarpSize), 0
				if divergent {
					w.active = 0b1011
				}
				if miss {
					walker.FlushTLB()
				}
				if _, err := ec.runWarp(w); err != nil {
					b.Fatal(err)
				}
			}
			run()
			ec.commitTallies()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				run()
				if i%batch == 0 {
					ec.commitTallies()
				}
			}
			ec.commitTallies()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/access")
		}
	}
	b.Run("hit", bench(OpLDG, false, false, false))
	b.Run("miss", bench(OpLDG, false, true, false))
	b.Run("byte", bench(OpLDGB, false, false, false))
	b.Run("local", bench(OpLDL, true, false, false))
	b.Run("divergent", bench(OpLDG, false, false, true))
}
