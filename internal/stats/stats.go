// Package stats holds the instrumentation data model from §IV of the
// paper: program-execution statistics (instruction mixes, clause metrics,
// data-access breakdowns), system-level statistics (CPU↔GPU transactions),
// and control-flow graphs with divergence annotations. The GPU simulator
// produces these; the experiment harness renders them into the paper's
// tables and figures.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// MaxClauseSlots is the architectural clause limit: 8 tuples of 2
// instruction slots.
const MaxClauseSlots = 16

// GPUStats aggregates per-job program-execution counters. Counts are per
// executed thread (an instruction executed by a warp with 3 active lanes
// adds 3), matching per-thread hardware counters. Collected per parallel
// host thread without synchronisation and merged at job completion, as the
// paper describes.
type GPUStats struct {
	// Instruction mix (Fig 11). NopInstr counts architecturally empty
	// slots issued inside executed clauses.
	ArithInstr uint64
	LSInstr    uint64
	CFInstr    uint64
	NopInstr   uint64

	// LS split (Fig 14/15 report global and local separately).
	GlobalLS uint64
	LocalLS  uint64

	// Data-access breakdown (Fig 12).
	TempAcc    uint64 // clause-temporary register reads+writes
	GRFRead    uint64 // global register file reads
	GRFWrite   uint64 // global register file writes
	ConstRead  uint64 // uniform/constant-port reads (kernel arguments)
	ROMRead    uint64 // embedded-constant (instruction-stream) reads
	MainMemAcc uint64 // global memory data accesses
	LocalAcc   uint64 // workgroup-local memory data accesses

	// Clause metrics (Fig 13). ClauseSizeHist[n] counts executed clauses
	// with n instruction slots (dynamic frequency x decode-time size).
	ClausesExec    uint64
	ClauseSizeHist [MaxClauseSlots + 1]uint64

	// Shape of the dispatch.
	Threads    uint64
	Warps      uint64
	Workgroups uint64

	// Divergence: warp-level conditional branches executed and how many
	// of them split the warp.
	Branches          uint64
	DivergentBranches uint64

	// RegistersUsed is the compiler-reported GRF footprint of the shader
	// (max across jobs when merged).
	RegistersUsed uint64
}

// Merge accumulates o into s.
func (s *GPUStats) Merge(o *GPUStats) {
	s.ArithInstr += o.ArithInstr
	s.LSInstr += o.LSInstr
	s.CFInstr += o.CFInstr
	s.NopInstr += o.NopInstr
	s.GlobalLS += o.GlobalLS
	s.LocalLS += o.LocalLS
	s.TempAcc += o.TempAcc
	s.GRFRead += o.GRFRead
	s.GRFWrite += o.GRFWrite
	s.ConstRead += o.ConstRead
	s.ROMRead += o.ROMRead
	s.MainMemAcc += o.MainMemAcc
	s.LocalAcc += o.LocalAcc
	s.ClausesExec += o.ClausesExec
	for i := range s.ClauseSizeHist {
		s.ClauseSizeHist[i] += o.ClauseSizeHist[i]
	}
	s.Threads += o.Threads
	s.Warps += o.Warps
	s.Workgroups += o.Workgroups
	s.Branches += o.Branches
	s.DivergentBranches += o.DivergentBranches
	if o.RegistersUsed > s.RegistersUsed {
		s.RegistersUsed = o.RegistersUsed
	}
}

// Sub returns the counter-wise difference s - o, for per-run deltas
// diffed around a run (o must be an earlier snapshot of the same
// accumulator). RegistersUsed is a high-water mark, not a counter, so the
// later snapshot's value is kept as-is.
func (s *GPUStats) Sub(o *GPUStats) GPUStats {
	d := *s
	d.ArithInstr -= o.ArithInstr
	d.LSInstr -= o.LSInstr
	d.CFInstr -= o.CFInstr
	d.NopInstr -= o.NopInstr
	d.GlobalLS -= o.GlobalLS
	d.LocalLS -= o.LocalLS
	d.TempAcc -= o.TempAcc
	d.GRFRead -= o.GRFRead
	d.GRFWrite -= o.GRFWrite
	d.ConstRead -= o.ConstRead
	d.ROMRead -= o.ROMRead
	d.MainMemAcc -= o.MainMemAcc
	d.LocalAcc -= o.LocalAcc
	d.ClausesExec -= o.ClausesExec
	for i := range d.ClauseSizeHist {
		d.ClauseSizeHist[i] -= o.ClauseSizeHist[i]
	}
	d.Threads -= o.Threads
	d.Warps -= o.Warps
	d.Workgroups -= o.Workgroups
	d.Branches -= o.Branches
	d.DivergentBranches -= o.DivergentBranches
	return d
}

// TotalInstr is the total of all executed instruction slots.
func (s *GPUStats) TotalInstr() uint64 {
	return s.ArithInstr + s.LSInstr + s.CFInstr + s.NopInstr
}

// MixFractions returns the Fig 11 fractions (arith, LS, NOP, CF) of the
// total instruction count. All zeros when nothing executed.
func (s *GPUStats) MixFractions() (arith, ls, nop, cf float64) {
	t := float64(s.TotalInstr())
	if t == 0 {
		return
	}
	return float64(s.ArithInstr) / t, float64(s.LSInstr) / t,
		float64(s.NopInstr) / t, float64(s.CFInstr) / t
}

// DataAccessFractions returns the Fig 12 shares in the paper's order:
// temp, GRF read, GRF write, constant read, ROM, main memory.
func (s *GPUStats) DataAccessFractions() [6]float64 {
	total := float64(s.TempAcc + s.GRFRead + s.GRFWrite + s.ConstRead + s.ROMRead + s.MainMemAcc)
	if total == 0 {
		return [6]float64{}
	}
	return [6]float64{
		float64(s.TempAcc) / total,
		float64(s.GRFRead) / total,
		float64(s.GRFWrite) / total,
		float64(s.ConstRead) / total,
		float64(s.ROMRead) / total,
		float64(s.MainMemAcc) / total,
	}
}

// AvgClauseSize is the mean executed clause size in instruction slots.
func (s *GPUStats) AvgClauseSize() float64 {
	var slots, n uint64
	for sz, c := range s.ClauseSizeHist {
		slots += uint64(sz) * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(slots) / float64(n)
}

// ClauseSizeQuartiles returns (min, q1, median, q3, max) of the executed
// clause-size distribution, the Fig 13 box-plot statistics.
func (s *GPUStats) ClauseSizeQuartiles() (min, q1, med, q3, max float64) {
	var n uint64
	for _, c := range s.ClauseSizeHist {
		n += c
	}
	if n == 0 {
		return
	}
	at := func(k uint64) float64 {
		var seen uint64
		for sz, c := range s.ClauseSizeHist {
			seen += c
			if seen > k {
				return float64(sz)
			}
		}
		return float64(MaxClauseSlots)
	}
	for sz, c := range s.ClauseSizeHist {
		if c > 0 {
			min = float64(sz)
			break
		}
	}
	for sz := MaxClauseSlots; sz >= 0; sz-- {
		if s.ClauseSizeHist[sz] > 0 {
			max = float64(sz)
			break
		}
	}
	return min, at(n / 4), at(n / 2), at(3 * n / 4), max
}

// SystemStats captures the CPU↔GPU interaction counters of Table III.
type SystemStats struct {
	PagesAccessed uint64 // distinct pages translated by the GPU MMU
	CtrlRegReads  uint64 // CPU reads of GPU control registers
	CtrlRegWrites uint64 // CPU writes of GPU control registers
	IRQsAsserted  uint64 // GPU interrupt edges
	ComputeJobs   uint64 // jobs executed by the Job Manager
	KernelLaunch  uint64 // runtime-level kernel enqueues

	// GPU MMU traffic, summed over every translation agent the device
	// ran (the Job Manager's chain walker plus one walker per shader
	// core). For data-race-free kernels these are deterministic at any
	// host thread count (workgroups are striped statically across the
	// cores); kernels with benign guest races — BFS's frontier flags —
	// can shift the hit/walk split between runs.
	TLBHits  uint64 // accesses served from a TLB entry
	TLBWalks uint64 // full table walks (TLB misses)
}

// Merge accumulates o into s.
func (s *SystemStats) Merge(o *SystemStats) {
	s.PagesAccessed += o.PagesAccessed
	s.CtrlRegReads += o.CtrlRegReads
	s.CtrlRegWrites += o.CtrlRegWrites
	s.IRQsAsserted += o.IRQsAsserted
	s.ComputeJobs += o.ComputeJobs
	s.KernelLaunch += o.KernelLaunch
	s.TLBHits += o.TLBHits
	s.TLBWalks += o.TLBWalks
}

// Sub returns the counter-wise difference s - o (see GPUStats.Sub).
// PagesAccessed is the size of a grow-only set between resets, so the
// difference counts pages first touched in the window.
func (s *SystemStats) Sub(o *SystemStats) SystemStats {
	return SystemStats{
		PagesAccessed: s.PagesAccessed - o.PagesAccessed,
		CtrlRegReads:  s.CtrlRegReads - o.CtrlRegReads,
		CtrlRegWrites: s.CtrlRegWrites - o.CtrlRegWrites,
		IRQsAsserted:  s.IRQsAsserted - o.IRQsAsserted,
		ComputeJobs:   s.ComputeJobs - o.ComputeJobs,
		KernelLaunch:  s.KernelLaunch - o.KernelLaunch,
		TLBHits:       s.TLBHits - o.TLBHits,
		TLBWalks:      s.TLBWalks - o.TLBWalks,
	}
}

// String renders a compact one-line summary for logs.
func (s *SystemStats) String() string {
	return fmt.Sprintf("pages=%d ctrlR=%d ctrlW=%d irq=%d jobs=%d tlbHit=%d tlbWalk=%d",
		s.PagesAccessed, s.CtrlRegReads, s.CtrlRegWrites, s.IRQsAsserted, s.ComputeJobs,
		s.TLBHits, s.TLBWalks)
}

// CFG is the control-flow graph built from clause-boundary PC tracking
// (Fig 6). Nodes are clause addresses within the shader binary; edges
// carry the number of threads that followed them.
type CFG struct {
	Blocks map[uint64]*CFGBlock
}

// CFGBlock is one clause-level basic block.
type CFGBlock struct {
	Addr       uint64
	ThreadsIn  uint64            // thread-entries into the block
	WarpsIn    uint64            // warp-entries into the block
	Diverged   uint64            // warp-entries that split at this block's branch
	Out        map[uint64]uint64 // successor addr -> thread count
	ExitCount  uint64            // threads terminating here (RET)
	Terminator string            // "br", "brc", "ret", "fallthrough"
}

// NewCFG creates an empty graph.
func NewCFG() *CFG { return &CFG{Blocks: make(map[uint64]*CFGBlock)} }

// Block returns (creating if needed) the block at addr.
func (g *CFG) Block(addr uint64) *CFGBlock {
	b := g.Blocks[addr]
	if b == nil {
		b = &CFGBlock{Addr: addr, Out: make(map[uint64]uint64)}
		g.Blocks[addr] = b
	}
	return b
}

// Merge accumulates another graph into g.
func (g *CFG) Merge(o *CFG) {
	for addr, ob := range o.Blocks {
		b := g.Block(addr)
		b.ThreadsIn += ob.ThreadsIn
		b.WarpsIn += ob.WarpsIn
		b.Diverged += ob.Diverged
		b.ExitCount += ob.ExitCount
		if ob.Terminator != "" {
			b.Terminator = ob.Terminator
		}
		for to, n := range ob.Out {
			b.Out[to] += n
		}
	}
}

// DivergencePct returns the percentage of warp entries that diverged at
// this block.
func (b *CFGBlock) DivergencePct() float64 {
	if b.WarpsIn == 0 {
		return 0
	}
	return 100 * float64(b.Diverged) / float64(b.WarpsIn)
}

// Render prints the graph in the style of Fig 6: one line per block with
// divergence percentage, then outgoing edges with the proportion of
// threads following each.
func (g *CFG) Render() string {
	addrs := make([]uint64, 0, len(g.Blocks))
	for a := range g.Blocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var sb strings.Builder
	for _, a := range addrs {
		b := g.Blocks[a]
		fmt.Fprintf(&sb, "%08x", a)
		if d := b.DivergencePct(); d > 0 {
			fmt.Fprintf(&sb, " (%.1f%% dvg.)", d)
		}
		sb.WriteString("\n")
		outTotal := uint64(0)
		for _, n := range b.Out {
			outTotal += n
		}
		tos := make([]uint64, 0, len(b.Out))
		for to := range b.Out {
			tos = append(tos, to)
		}
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
		for _, to := range tos {
			pct := 100.0
			if outTotal > 0 {
				pct = 100 * float64(b.Out[to]) / float64(outTotal)
			}
			fmt.Fprintf(&sb, "  -> %08x  %.2f%%\n", to, pct)
		}
		if b.ExitCount > 0 {
			fmt.Fprintf(&sb, "  -> exit      (%d threads)\n", b.ExitCount)
		}
	}
	return sb.String()
}
