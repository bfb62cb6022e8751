package workloads

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mobilesim/internal/cl"
	"mobilesim/internal/gpu"
	"mobilesim/internal/platform"
	"mobilesim/internal/snapshot"
	"mobilesim/internal/stats"
)

// The exact-counter contract: a job leaves one statistics record whichever
// engine runs it, on however many host threads, in a cold-booted or a
// forked session, with or without CFG collection. TestCounterMatrix holds
// it. Each row runs its workload once as the reference cell — the
// interpreter on one host thread in a cold-booted session — and every other
// cell must leave a bit-identical record: the whole GPU and system
// statistics, control-register traffic included, and the guest
// instructions the CPU retired. The reference cell is also held to the
// row's golden pins, the paper's Table II/III counters on the default
// machine (the G71 MP8), so a change to the memory model, the scheduler or
// the instrumentation that drifts the paper's numbers fails loudly. The
// subtests are TestCounterMatrix/<cell>/<row>, the reference's column
// first, so -run selects a configuration across every workload.
//
// Workgroups are striped statically over the architectural cores, so for a
// data-race-free kernel every counter — the per-core TLB hit and walk
// counts included — is a function of the job alone. BFS is the exception
// by guest design: its frontier update races benignly (duplicate
// discoveries store the same value), so on more than one host thread the
// number of executed store clauses depends on cross-core timing. There it
// is held only to bfsWindows and to its exact counters (threads, pages,
// jobs).
//
// Regenerate the pins after an intentional change with
//
//	MOBILESIM_GOLDEN=print go test -run TestCounterMatrix ./internal/workloads/
//
// and paste the emitted lines into pins, after convincing yourself the
// drift is intentional and explaining it in the commit message.

// record is what one run leaves: the per-run deltas of the GPU and system
// statistics and of the CPU's retired-instruction count.
type record struct {
	GPU     stats.GPUStats
	Sys     stats.SystemStats
	Instret uint64
}

// pin is the golden part of a record.
type pin struct {
	GlobalLS, MainMemAcc, TLBHits, TLBWalks, Pages, Jobs, Threads uint64
}

func (r record) pin() pin {
	return pin{r.GPU.GlobalLS, r.GPU.MainMemAcc, r.Sys.TLBHits, r.Sys.TLBWalks,
		r.Sys.PagesAccessed, r.Sys.ComputeJobs, r.GPU.Threads}
}

// pins are the reference cells' golden counters. RecursiveGaussian at 512,
// SobelFilter at 1024 and MatrixTranspose at 1024 touch more pages than a
// core's TLB holds, so the TLB evicts and their hit and walk counts depend
// on the order in which each core's warps touch them: their rows pin those
// counts where the small scales, whose pages all fit, cannot.
var pins = map[string]pin{
	"BFS":                   {GlobalLS: 21488, MainMemAcc: 21488, TLBHits: 21229, TLBWalks: 286, Pages: 11, Jobs: 9, Threads: 9216},
	"Backprop":              {GlobalLS: 29184, MainMemAcc: 29184, TLBHits: 57498, TLBWalks: 108, Pages: 22, Jobs: 2, Threads: 8192},
	"BinarySearch":          {GlobalLS: 8244, MainMemAcc: 8244, TLBHits: 8162, TLBWalks: 130, Pages: 8, Jobs: 16, Threads: 4096},
	"BinomialOption":        {GlobalLS: 260, MainMemAcc: 260, TLBHits: 40828, TLBWalks: 15, Pages: 7, Jobs: 1, Threads: 256},
	"BitonicSort":           {GlobalLS: 18432, MainMemAcc: 18432, TLBHits: 18360, TLBWalks: 180, Pages: 4, Jobs: 36, Threads: 4608},
	"Cutcp":                 {GlobalLS: 132699, MainMemAcc: 132699, TLBHits: 132683, TLBWalks: 19, Pages: 5, Jobs: 1, Threads: 512},
	"DCT":                   {GlobalLS: 140288, MainMemAcc: 140288, TLBHits: 140264, TLBWalks: 27, Pages: 6, Jobs: 1, Threads: 1024},
	"DwtHaar1D":             {GlobalLS: 20480, MainMemAcc: 20480, TLBHits: 20320, TLBWalks: 190, Pages: 5, Jobs: 10, Threads: 10240},
	"FloydWarshall":         {GlobalLS: 131072, MainMemAcc: 131072, TLBHits: 130944, TLBWalks: 224, Pages: 4, Jobs: 32, Threads: 32768},
	"MatrixTranspose":       {GlobalLS: 8192, MainMemAcc: 8192, TLBHits: 16352, TLBWalks: 35, Pages: 13, Jobs: 1, Threads: 4096},
	"NearestNeighbor":       {GlobalLS: 3072, MainMemAcc: 3072, TLBHits: 3048, TLBWalks: 27, Pages: 6, Jobs: 1, Threads: 1024},
	"RecursiveGaussian":     {GlobalLS: 8128, MainMemAcc: 8128, TLBHits: 8124, TLBWalks: 10, Pages: 9, Jobs: 2, Threads: 64},
	"Reduction":             {GlobalLS: 4129, MainMemAcc: 4129, TLBHits: 21468, TLBWalks: 41, Pages: 10, Jobs: 2, Threads: 4352},
	"SGEMM":                 {GlobalLS: 202752, MainMemAcc: 202752, TLBHits: 202712, TLBWalks: 43, Pages: 10, Jobs: 1, Threads: 3072},
	"SPMV":                  {GlobalLS: 4408, MainMemAcc: 4408, TLBHits: 4388, TLBWalks: 23, Pages: 8, Jobs: 1, Threads: 256},
	"ScanLargeArrays":       {GlobalLS: 9497, MainMemAcc: 9497, TLBHits: 67056, TLBWalks: 59, Pages: 17, Jobs: 3, Threads: 4352},
	"SobelFilter":           {GlobalLS: 34848, MainMemAcc: 34848, TLBHits: 34832, TLBWalks: 19, Pages: 5, Jobs: 1, Threads: 4096},
	"Stencil":               {GlobalLS: 9440, MainMemAcc: 9440, TLBHits: 9360, TLBWalks: 110, Pages: 5, Jobs: 10, Threads: 2560},
	"URNG":                  {GlobalLS: 8192, MainMemAcc: 8192, TLBHits: 8176, TLBWalks: 19, Pages: 5, Jobs: 1, Threads: 4096},
	"clBLAS-SGEMM":          {GlobalLS: 67584, MainMemAcc: 67584, TLBHits: 67572, TLBWalks: 15, Pages: 6, Jobs: 1, Threads: 1024},
	"sgemm6/naive":          {GlobalLS: 8448, MainMemAcc: 8448, TLBHits: 8445, TLBWalks: 6, Pages: 6, Jobs: 1, Threads: 256},
	"RecursiveGaussian@512": {GlobalLS: 2096128, MainMemAcc: 2096128, TLBHits: 1964544, TLBWalks: 131590, Pages: 774, Jobs: 2, Threads: 1024},
	"MatrixTranspose@1024":  {GlobalLS: 2097152, MainMemAcc: 2097152, TLBHits: 4113192, TLBWalks: 81115, Pages: 2053, Jobs: 1, Threads: 1048576},
	"SobelFilter@1024":      {GlobalLS: 9404448, MainMemAcc: 9404448, TLBHits: 9386128, TLBWalks: 18323, Pages: 515, Jobs: 1, Threads: 1048576},
}

// bfsWindows bound BFS's racy counters on more than one host thread. Which
// core wins a racy discovery moves the page's walk between cores (hits and
// walks trade ±1 with their sum near-fixed), and a genuinely concurrent
// duplicate discovery re-executes the two-store update body (adding loads
// and stores, and hits). The hits floor is the sum less the walks ceiling,
// so any split the walks window admits keeps hits in range too.
var bfsWindows = map[string][2]uint64{
	"GlobalLS":   {21488, 21744},
	"MainMemAcc": {21488, 21744},
	"TLBHits":    {21000, 21640},
	"TLBWalks":   {131, 771},
}

// cell is one configuration a row runs in.
type cell struct {
	engine  gpu.Engine
	threads int
	forked  bool // restored from the boot snapshot instead of cold-booted
	cfg     bool // with CFG collection
}

func (c cell) String() string {
	s := fmt.Sprintf("%v-%d", c.engine, c.threads)
	if c.forked {
		s = "forked-" + s
	}
	if c.cfg {
		s = "cfg-" + s
	}
	return s
}

var (
	reference = cell{engine: gpu.EngineInterp, threads: 1}
	allCells  = []cell{
		{engine: gpu.EngineInterp, threads: 8},
		{engine: gpu.EngineWarp, threads: 1},
		{engine: gpu.EngineWarp, threads: 3}, // three does not divide the eight cores
		{engine: gpu.EngineWarp, threads: 8},
		{engine: gpu.EngineInterp, threads: 1, forked: true},
		{engine: gpu.EngineWarp, threads: 1, forked: true},
		{engine: gpu.EngineWarp, threads: 3, forked: true},
		{engine: gpu.EngineWarp, threads: 8, forked: true},
		{engine: gpu.EngineInterp, threads: 1, cfg: true},
		{engine: gpu.EngineWarp, threads: 1, cfg: true},
	}
)

// matrixRow is one workload at one scale and the cells it runs besides the
// reference.
type matrixRow struct {
	name  string
	scale int // 0: the small scale
	cells []cell
}

func (r matrixRow) String() string {
	if r.scale == 0 {
		return r.name
	}
	return fmt.Sprintf("%s@%d", r.name, r.scale)
}

// matrixRows lists the large rows first: a cell's rows run in parallel, so
// the longest runs start first.
func matrixRows() []matrixRow {
	rows := []matrixRow{
		// SobelFilter's TLB counts at 1024 also depend on the order of the
		// warps inside a workgroup; the interpreter runs it only as the
		// reference, its one slow cell.
		{name: "SobelFilter", scale: 1024, cells: []cell{
			{engine: gpu.EngineWarp, threads: 1},
			{engine: gpu.EngineWarp, threads: 8},
		}},
		{name: "MatrixTranspose", scale: 1024, cells: allCells},
		{name: "RecursiveGaussian", scale: 512, cells: allCells},
		{name: "sgemm6/naive", cells: allCells},
	}
	for _, spec := range OfKind(KindBenchmark) {
		rows = append(rows, matrixRow{name: spec.Name, cells: allCells})
	}
	return rows
}

const matrixRAM = 256 << 20

// bootSnapshot boots a platform and its runtime, and returns their state
// after a round trip through the wire format.
func bootSnapshot(t *testing.T) *snapshot.State {
	t.Helper()
	p, err := platform.New(platform.Config{RAMSize: matrixRAM})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rt, err := cl.NewContext(p, "")
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Capture(snapshot.Config{RAMSize: matrixRAM}, rt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	if st, err = snapshot.Decode(&buf); err != nil {
		t.Fatal(err)
	}
	return st
}

// run runs the row's workload in cell c and returns the record it left and
// the divergence CFG it collected, which is empty unless c collects one.
func (r matrixRow) run(t *testing.T, c cell, boot *snapshot.State) (record, *stats.CFG) {
	t.Helper()
	spec, err := ByName(r.name)
	if err != nil {
		t.Fatal(err)
	}
	scale := r.scale
	if scale == 0 {
		scale = spec.SmallScale
	}
	gcfg := gpu.DefaultConfig()
	gcfg.Engine, gcfg.HostThreads = c.engine, c.threads
	var p *platform.Platform
	var rt *cl.Context
	if c.forked {
		p, rt, err = snapshot.Restore(boot, platform.Config{GPU: gcfg})
	} else {
		p, err = platform.New(platform.Config{RAMSize: matrixRAM, GPU: gcfg})
	}
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if rt == nil {
		if rt, err = cl.NewContext(p, ""); err != nil {
			t.Fatal(err)
		}
	}
	p.GPU.SetCollectCFG(c.cfg)
	gs0, sys0 := p.GPU.Stats()
	instret := p.CPU.Instret
	res, err := spec.Make(scale).Run(bg, rt, r.name, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("not verified: %v", res.VerifyErr)
	}
	gs, sys := p.GPU.Stats()
	graph := p.GPU.CFGGraph()
	if c.cfg != (len(graph.Blocks) > 0) {
		t.Errorf("%v: CFG collection %v, graph %q", c, c.cfg, graph.Render())
	}
	return record{GPU: gs.Sub(&gs0), Sys: sys.Sub(&sys0), Instret: p.CPU.Instret - instret}, graph
}

func TestCounterMatrix(t *testing.T) {
	if os.Getenv("MOBILESIM_GOLDEN") == "print" {
		for _, r := range matrixRows() {
			rec, _ := r.run(t, reference, nil)
			p := rec.pin()
			fmt.Printf("\t%q: {GlobalLS: %d, MainMemAcc: %d, TLBHits: %d, TLBWalks: %d, Pages: %d, Jobs: %d, Threads: %d},\n",
				r.String(), p.GlobalLS, p.MainMemAcc, p.TLBHits, p.TLBWalks, p.Pages, p.Jobs, p.Threads)
		}
		return
	}
	m := &matrixRuns{boot: bootSnapshot(t), done: map[string]runResult{}}
	rows := matrixRows()
	t.Run(reference.String(), func(t *testing.T) {
		for _, r := range rows {
			r := r
			t.Run(r.String(), func(t *testing.T) {
				t.Parallel()
				want, ok := pins[r.String()]
				if !ok {
					t.Fatalf("no golden pins for %s: every row must be pinned", r)
				}
				if got := m.get(t, r, reference).rec.pin(); got != want {
					t.Errorf("golden counters moved:\ngot  %+v\nwant %+v", got, want)
				}
			})
		}
	})
	for _, c := range allCells {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			for _, r := range rows {
				r := r
				if !slices.Contains(r.cells, c) {
					continue
				}
				t.Run(r.String(), func(t *testing.T) {
					t.Parallel()
					ref := m.get(t, r, reference).rec
					got := m.get(t, r, c)
					if c.cfg { // the graph must equal the row's first CFG cell's
						first := r.cells[slices.IndexFunc(r.cells, func(c cell) bool { return c.cfg })]
						if want := m.get(t, r, first).graph; !reflect.DeepEqual(got.graph, want) {
							t.Errorf("CFG differs from %v's\ngot\n%s\nwant\n%s", first, got.graph.Render(), want.Render())
						}
					}
					if r.name == "BFS" && c.threads > 1 {
						bfsWithin(t, got.rec, ref)
					} else if got.rec != ref {
						t.Errorf("record differs from the reference cell's (%v):\ngot  %+v\nwant %+v", reference, got.rec, ref)
					}
				})
			}
		})
	}
}

// runResult is what one cell of one row left.
type runResult struct {
	rec   record
	graph *stats.CFG
}

// matrixRuns keeps each row's runs that other cells compare against: the
// reference's record and the first CFG cell's graph. A cell whose run is
// not here yet (a -run filter skipped its subtest) runs it itself.
type matrixRuns struct {
	boot *snapshot.State
	mu   sync.Mutex
	done map[string]runResult
}

func (m *matrixRuns) get(t *testing.T, r matrixRow, c cell) runResult {
	t.Helper()
	key := r.String() + "/" + c.String()
	m.mu.Lock()
	res, ok := m.done[key]
	m.mu.Unlock()
	if !ok {
		res.rec, res.graph = r.run(t, c, m.boot)
		m.mu.Lock()
		m.done[key] = res
		m.mu.Unlock()
	}
	return res
}

// bfsWithin holds a BFS record on more than one host thread to bfsWindows
// and to the reference's exact counters.
func bfsWithin(t *testing.T, got, ref record) {
	t.Helper()
	g := got.pin()
	for field, v := range map[string]uint64{"GlobalLS": g.GlobalLS, "MainMemAcc": g.MainMemAcc, "TLBHits": g.TLBHits, "TLBWalks": g.TLBWalks} {
		if w := bfsWindows[field]; v < w[0] || v > w[1] {
			t.Errorf("%s = %d, want [%d, %d]", field, v, w[0], w[1])
		}
	}
	if r := ref.pin(); g.Pages != r.Pages || g.Jobs != r.Jobs || g.Threads != r.Threads {
		t.Errorf("exact counters differ from the reference's:\ngot  %+v\nwant %+v", g, r)
	}
}
