package mem_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/platform"
	"mobilesim/internal/simtest"
)

// The dirty map is the only thing between one session's guest bytes and
// the next session's "all-zero" RAM, so these tests pin it per write entry
// point: exactly the covered pages are marked, and a recycled store comes
// back clean.

const (
	dirtyBase  = uint64(0x8000_0000)
	dirtyPages = 256 // four words of the map, so ranges can span words
	imgPages   = 4   // the fork fixture's image covers pages [0, 4)
	page       = mem.PageSize
)

var zeroPage [page]byte

// allZero scans with bytes.Equal (assembly, so cheap under -race too).
func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), page)
		if !bytes.Equal(b[:n], zeroPage[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// pageRange returns [lo, hi].
func pageRange(lo, hi uint64) []uint64 {
	var out []uint64
	for pi := lo; pi <= hi; pi++ {
		out = append(out, pi)
	}
	return out
}

// newRAM returns a cold RAM, or a fork of a four-page image with a
// recognisable byte in every image page: the fork starts with those four
// content pages marked.
func newRAM(t *testing.T, fork bool) *mem.RAM {
	t.Helper()
	if !fork {
		return mem.AcquireRAM(dirtyBase, dirtyPages*page)
	}
	src := mem.NewRAM(dirtyBase, dirtyPages*page)
	for pi := uint64(0); pi < imgPages; pi++ {
		if err := src.Write(dirtyBase+pi*page+16, 1, 0x40+pi); err != nil {
			t.Fatal(err)
		}
	}
	img, err := src.CaptureImage()
	if err != nil {
		t.Fatal(err)
	}
	return mem.ForkRAM(img)
}

func TestDirtyMapCoversEveryWriteEntryPoint(t *testing.T) {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		write func(t *testing.T, ram *mem.RAM, bus *mem.Bus)
		want  []uint64 // pages newly marked by write
	}{
		{"Write word", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			must(t, bus.Write(dirtyBase+page+8, 4, 0xdead))
		}, []uint64{1}},
		{"Write across a page boundary", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			must(t, bus.Write(dirtyBase+2*page-4, 8, ^uint64(0)))
		}, []uint64{1, 2}},
		{"AtomicWrite byte", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			must(t, bus.AtomicWrite(dirtyBase+200*page+4095, 1, 0xff))
		}, []uint64{200}},
		{"AtomicWrite across the image end", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			must(t, bus.AtomicWrite(dirtyBase+imgPages*page-2, 4, 0xfeedface))
		}, []uint64{3, 4}},
		{"WriteBytes over partial and whole pages", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			must(t, bus.WriteBytes(dirtyBase+page+100, bytes.Repeat([]byte{7}, 3*page)))
		}, []uint64{1, 2, 3, 4}},
		{"WriteBytes across map words", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			must(t, bus.WriteBytes(dirtyBase+60*page+1, bytes.Repeat([]byte{9}, 70*page)))
		}, pageRange(60, 130)},
		{"AtomicWriteBytes", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			must(t, bus.AtomicWriteBytes(dirtyBase+3*page+4000, bytes.Repeat([]byte{5}, 200)))
		}, []uint64{3, 4}},
		{"Bytes view", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			ram.Bytes(dirtyBase+5*page, 2*page+1)[2*page] = 1
		}, []uint64{5, 6, 7}},
		// The guest CPU's store view: PageView itself never marks, the
		// caller marks once when it caches a view it will store through.
		{"StablePage store view", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			before := ram.DirtyPages()
			v := bus.PageView(dirtyBase + 9*page + 40)
			if v == nil {
				t.Fatal("page view refused")
			}
			if got := ram.DirtyPages(); !slices.Equal(got, before) {
				t.Fatalf("PageView marked: %v -> %v", before, got)
			}
			bus.MarkDirty(dirtyBase+9*page, page)
			v[40] = 1
		}, []uint64{9}},
		{"ZeroPage", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			mem.ZeroPage(ram, dirtyBase+8*page)
		}, []uint64{8}},
		{"store through an MMU-cached writable view", func(t *testing.T, ram *mem.RAM, bus *mem.Bus) {
			const va = 0x40_0000
			alloc, err := mem.NewPageAllocator(dirtyBase+16*page, 16*page)
			must(t, err)
			as, err := mmu.NewAddressSpace(bus, alloc)
			must(t, err)
			must(t, as.Map(va, dirtyBase+10*page, mmu.PermR|mmu.PermW))
			tables := ram.DirtyPages() // building the tables marks them
			w := mmu.NewWalker(bus)
			w.SetRoot(as.Root())
			if _, err := w.Load(va+8, 4, mem.Read); err != nil { // caches the view
				t.Fatal(err)
			}
			must(t, w.Store(va+8, 4, 0x1234)) // hit: no bus, no marking of its own
			if w.Hits == 0 {
				t.Fatal("store did not take the cached-view path")
			}
			got := slices.DeleteFunc(ram.DirtyPages(), func(pi uint64) bool { return slices.Contains(tables, pi) })
			if !slices.Equal(got, []uint64{10}) {
				t.Fatalf("MMU store marked %v beyond the tables, want [10]", got)
			}
		}, append(pageRange(16, 18), 10)},
	}
	for _, fork := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name + "/cold"
			if fork {
				name = tc.name + "/fork"
			}
			t.Run(name, func(t *testing.T) {
				ram := newRAM(t, fork)
				var content []uint64 // what a fresh RAM has marked
				if fork {
					content = pageRange(0, imgPages-1)
				}
				if got := ram.DirtyPages(); !slices.Equal(got, content) {
					t.Fatalf("fresh RAM has marked pages %v, want %v", got, content)
				}
				tc.write(t, ram, mem.NewBus(ram))
				got, want := ram.DirtyPages(), append(content, tc.want...)
				slices.Sort(want)
				want = slices.Compact(want)
				if !slices.Equal(got, want) {
					t.Errorf("marked pages %v, want %v", got, want)
				}
				store := ram.Store()
				ram.Recycle()
				if !allZero(store) {
					t.Error("recycled store is not all-zero")
				}
			})
		}
	}
}

// TestDirtyMapOddSizedTail covers a region that is not a page multiple:
// the last, partial page has a bit of its own and is scrubbed to the end
// of the word-extended store.
func TestDirtyMapOddSizedTail(t *testing.T) {
	const size = 8*page + 100
	ram := mem.AcquireRAM(dirtyBase, size)
	bus := mem.NewBus(ram)
	if err := bus.AtomicWrite(dirtyBase+size-2, 2, 0xffff); err != nil {
		t.Fatal(err)
	}
	if err := bus.WriteBytes(dirtyBase+7*page+4000, bytes.Repeat([]byte{3}, 196)); err != nil {
		t.Fatal(err)
	}
	if got := ram.DirtyPages(); !slices.Equal(got, []uint64{7, 8}) {
		t.Errorf("marked pages %v, want [7 8]", got)
	}
	store := ram.Store()
	if len(store) != size+4 {
		t.Fatalf("store is %d bytes, want the word-extended %d", len(store), size+4)
	}
	ram.Recycle()
	if !allZero(store) {
		t.Error("recycled store is not all-zero")
	}
}

// TestRecycleSparse is the case the map exists for: two written pages at
// opposite ends of a 512 MiB RAM cost two page clears, not a 512 MiB one.
func TestRecycleSparse(t *testing.T) {
	const size = 512 << 20
	ram := mem.AcquireRAM(dirtyBase, size)
	if err := ram.Write(dirtyBase+8, 8, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if err := ram.Write(dirtyBase+size-8, 8, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	last := uint64(size/page - 1)
	if got := ram.DirtyPages(); !slices.Equal(got, []uint64{0, last}) {
		t.Fatalf("marked pages %v, want [0 %d]", got, last)
	}
	// A sentinel planted behind the map's back must survive: Recycle
	// clears marked pages only.
	store := ram.Store()
	store[size/2] = 0xAA
	ram.Recycle()
	if store[size/2] != 0xAA {
		t.Fatal("Recycle cleared a page that was never marked")
	}
	store[size/2] = 0 // the store is parked: leave it clean

	again := mem.AcquireRAM(dirtyBase, size)
	defer again.Recycle()
	if got := again.DirtyPages(); len(got) != 0 {
		t.Errorf("re-acquired RAM has marked pages %v", got)
	}
	if !allZero(again.Store()) {
		t.Error("re-acquired RAM is not all-zero")
	}
}

// TestDirtyMapConcurrentMarkers has every bit of one map word set by its
// own goroutine at once — on a fork, so the first four start out marked.
// No bit may be lost, and the run must be clean under -race.
func TestDirtyMapConcurrentMarkers(t *testing.T) {
	ram := newRAM(t, true)
	if got := ram.DirtyPages(); !slices.Equal(got, pageRange(0, imgPages-1)) {
		t.Fatalf("fresh fork has marked pages %v, want the image's content pages", got)
	}
	bus := mem.NewBus(ram)
	var wg sync.WaitGroup
	for pi := uint64(0); pi < 64; pi++ {
		pi := pi
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 64; i++ {
				if err := bus.AtomicWrite(dirtyBase+pi*page+1024+4*i, 4, pi+1); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := ram.DirtyPages(); !slices.Equal(got, pageRange(0, 63)) {
		t.Errorf("marked pages %v, want 0..63", got)
	}
	for pi := uint64(0); pi < imgPages; pi++ { // the image bytes are still there
		if v, _ := bus.Read(dirtyBase+pi*page+16, 1); v != 0x40+pi {
			t.Errorf("page %d lost its image byte: %#x", pi, v)
		}
	}
	store := ram.Store()
	ram.Recycle()
	if !allZero(store) {
		t.Error("recycled store is not all-zero")
	}
}

// TestBootImageIsAFewContentPages pins the premise copy-at-fork rests on
// (DESIGN.md §8): the image of a default boot — platform, driver probe,
// runtime bring-up — holds at most four pages with a non-zero byte, and a
// platform forked from it starts with exactly those pages marked.
func TestBootImageIsAFewContentPages(t *testing.T) {
	p, err := platform.New(platform.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := cl.NewContext(p, ""); err != nil {
		t.Fatal(err)
	}
	st, err := p.Capture()
	if err != nil {
		t.Fatal(err)
	}
	var content []uint64
	for pi, data := uint64(0), st.RAM.Data(); pi*page < uint64(len(data)); pi++ {
		if !allZero(data[pi*page : (pi+1)*page]) {
			content = append(content, pi)
		}
	}
	if n := len(content); n == 0 || n > 4 {
		t.Fatalf("boot image has %d content pages %v, want 1..4", n, content)
	}
	fork, err := platform.NewFromState(platform.Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()
	if got := fork.RAM.DirtyPages(); !slices.Equal(got, content) {
		t.Errorf("a fresh fork of the boot image has pages %v marked, want the content pages %v", got, content)
	}
}

// recycleSparse is one session's worth of RAM traffic as the benchmark
// workloads see it: ten written pages scattered under a 5 MiB allocator
// mark, then teardown.
func recycleSparse(fork *mem.Image) {
	var ram *mem.RAM
	if fork != nil {
		ram = mem.ForkRAM(fork)
	} else {
		ram = mem.AcquireRAM(dirtyBase, 512<<20)
	}
	for i := uint64(0); i < 10; i++ {
		_ = ram.Write(dirtyBase+i*(512<<10)+8, 8, i+1) // in range by construction
	}
	ram.Recycle()
}

func sparseImage(tb testing.TB) *mem.Image {
	src := mem.AcquireRAM(dirtyBase, 512<<20)
	defer src.Recycle()
	if err := src.Write(dirtyBase+8, 8, 1); err != nil {
		tb.Fatal(err)
	}
	img, err := src.CaptureImage()
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// TestAcquireRecycleAllocatesNothing pins the steady state of session
// turnover: re-acquiring a parked RAM — cold or as a fork — and recycling
// it allocates no object.
func TestAcquireRecycleAllocatesNothing(t *testing.T) {
	if simtest.RaceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	for name, img := range map[string]*mem.Image{"cold": nil, "fork": sparseImage(t)} {
		recycleSparse(img) // park one
		if n := testing.AllocsPerRun(100, func() { recycleSparse(img) }); n != 0 {
			t.Errorf("%s: acquire + recycle allocates %v objects, want 0", name, n)
		}
	}
}

// BenchmarkRecycleSparse is the mem layer's session-turnover benchmark.
func BenchmarkRecycleSparse(b *testing.B) {
	for _, bc := range []struct {
		name string
		img  *mem.Image
	}{{"cold", nil}, {"fork", sparseImage(b)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recycleSparse(bc.img)
			}
		})
	}
}
