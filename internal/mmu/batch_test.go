package mmu

import (
	"testing"

	"mobilesim/internal/mem"
)

// BatchPage backs the warp engine's coalesced memory path (DESIGN.md §9):
// one translation services a whole warp's same-page lane accesses. Its
// contract has two halves. On success, Hits/Walks and the touched-page
// set must be exactly what n per-lane Translate calls would have
// produced. On any decline — fault, permission, MMIO — the walker
// (counters AND TLB) must be left completely untouched, so the engine's
// per-lane fallback replays the interpreter's accounting verbatim,
// including a fault's abort prefix.

func TestBatchPageHitCountsPerLane(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const va, pa = 0x3000, 0x0040_0000
	if err := as.Map(va, pa, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	w := NewWalker(bus)
	w.SetRoot(as.Root())
	if _, err := w.Load(va, 4, mem.Read); err != nil { // prime the TLB
		t.Fatal(err)
	}
	page, ok := w.BatchPage(va+8, mem.Read, 4)
	if !ok || page == nil {
		t.Fatalf("BatchPage on a primed TLB entry declined")
	}
	if w.Walks != 1 || w.Hits != 4 {
		t.Errorf("hit batch of 4: walks=%d hits=%d, want 1/4", w.Walks, w.Hits)
	}
}

func TestBatchPageMissMatchesPerLaneCounters(t *testing.T) {
	const va, pa, lanes = 0x5000, 0x0060_0000, 4

	// Batched walker: one BatchPage call for the whole warp.
	bus, _, as := newTestEnv(t)
	if err := as.Map(va, pa, PermR|PermW); err != nil {
		t.Fatal(err)
	}
	wb := NewWalker(bus)
	wb.SetRoot(as.Root())
	wb.ResetTouched()
	if _, ok := wb.BatchPage(va, mem.Read, lanes); !ok {
		t.Fatal("BatchPage declined a plain mapped page")
	}

	// Reference walker: the per-lane sequence the interpreter issues.
	wr := NewWalker(bus)
	wr.SetRoot(as.Root())
	wr.ResetTouched()
	for l := 0; l < lanes; l++ {
		if _, err := wr.Load(va+uint64(l)*4, 4, mem.Read); err != nil {
			t.Fatal(err)
		}
	}

	if wb.Walks != wr.Walks || wb.Hits != wr.Hits {
		t.Errorf("batch walks/hits = %d/%d, per-lane = %d/%d",
			wb.Walks, wb.Hits, wr.Walks, wr.Hits)
	}
	touched := func(w *Walker) (pages []uint64) {
		w.ForEachTouched(func(p uint64) { pages = append(pages, p) })
		return
	}
	tb, tr := touched(wb), touched(wr)
	if len(tb) != 1 || len(tr) != 1 || tb[0] != tr[0] {
		t.Errorf("touched pages: batch %v, per-lane %v", tb, tr)
	}

	// The committed walk must have filled the TLB: the next access hits.
	walks := wb.Walks
	if _, err := wb.Load(va+64, 4, mem.Read); err != nil {
		t.Fatal(err)
	}
	if wb.Walks != walks {
		t.Errorf("access after batch walked again (%d -> %d)", walks, wb.Walks)
	}
}

// TestBatchPageDeclineLeavesWalkerUntouched drives every decline path and
// requires zero counter movement and no TLB side effects, so the per-lane
// fallback starts from the exact state the interpreter would have seen.
func TestBatchPageDeclineLeavesWalkerUntouched(t *testing.T) {
	bus, _, as := newTestEnv(t)
	const roVA, roPA = 0x1000, 0x0020_0000
	if err := as.Map(roVA, roPA, PermR); err != nil {
		t.Fatal(err)
	}
	dev := &recordingDev{}
	if err := bus.MapDevice("probe", testDevBase, mem.PageSize, dev); err != nil {
		t.Fatal(err)
	}
	const mmioVA = 0x9000
	if err := as.Map(mmioVA, testDevBase, PermR|PermW); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		va   uint64
		kind mem.AccessKind
	}{
		{"translation_fault", 0xdead_0000, mem.Read},
		{"permission_fault", roVA, mem.Write},
		{"mmio_miss_path", mmioVA, mem.Read},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWalker(bus)
			w.SetRoot(as.Root())
			if _, ok := w.BatchPage(tc.va, tc.kind, 4); ok {
				t.Fatalf("BatchPage(%#x, %v) unexpectedly succeeded", tc.va, tc.kind)
			}
			if w.Walks != 0 || w.Hits != 0 {
				t.Errorf("decline moved counters: walks=%d hits=%d, want 0/0", w.Walks, w.Hits)
			}
			// No TLB entry may have been planted: the fallback's first
			// Translate must do (and account) the walk itself.
			if _, fault := w.Translate(roVA, mem.Read); fault != nil {
				t.Fatal(fault)
			}
			if w.Walks != 1 || w.Hits != 0 {
				t.Errorf("fallback walk after decline: walks=%d hits=%d, want 1/0", w.Walks, w.Hits)
			}
		})
	}

	// MMIO through a *primed* TLB entry (cached with no page view) must
	// also decline without moving counters.
	t.Run("mmio_hit_path", func(t *testing.T) {
		w := NewWalker(bus)
		w.SetRoot(as.Root())
		if _, err := w.Load(mmioVA, 4, mem.Read); err != nil {
			t.Fatal(err)
		}
		walks, hits := w.Walks, w.Hits
		if _, ok := w.BatchPage(mmioVA, mem.Read, 4); ok {
			t.Fatal("BatchPage served an MMIO page")
		}
		if w.Walks != walks || w.Hits != hits {
			t.Errorf("MMIO hit-path decline moved counters (%d/%d -> %d/%d)",
				walks, hits, w.Walks, w.Hits)
		}
	})
}

// TestBatchPageCowWrite pins the fork interaction: a write batch through a
// read-primed view on a forked RAM is served from the TLB like the
// per-lane store path, and the returned view is the fork's own page
// (stores through it must not leak into the image or a sibling fork).
func TestBatchPageCowWrite(t *testing.T) {
	w, img, va, pa := cowEnv(t)
	if _, err := w.Load(va, 8, mem.Read); err != nil { // read-prime the view
		t.Fatal(err)
	}
	walks := w.Walks

	page, ok := w.BatchPage(va, mem.Write, 4)
	if !ok {
		t.Fatal("BatchPage declined a write batch on a fork")
	}
	if w.Walks != walks {
		t.Errorf("write batch through the primed view walked (%d -> %d)", walks, w.Walks)
	}
	page[16] = 0xbe
	if v, err := w.Load(va+16, 1, mem.Read); err != nil || v != 0xbe {
		t.Fatalf("readback through walker: %#x (%v)", v, err)
	}
	untouched(t, img, pa)
}
