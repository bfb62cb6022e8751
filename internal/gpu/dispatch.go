package gpu

import (
	"errors"
	"fmt"
	"sync"

	"mobilesim/internal/mem"
	"mobilesim/internal/mmu"
	"mobilesim/internal/stats"
)

// JobDescriptor is the in-memory structure the driver writes and the Job
// Manager parses (§III-B4). All pointers are guest virtual addresses in
// the GPU address space. Layout (little-endian, 72 bytes):
//
//	0x00 u32 jobType (1 = compute)
//	0x04 u32 flags
//	0x08 u32 globalSize[3]
//	0x14 u32 localSize[3]
//	0x20 u64 shaderVA
//	0x28 u64 argsVA
//	0x30 u64 localMemVA (base of ShaderCores slots; 0 = none)
//	0x38 u32 localMemBytes (per workgroup)
//	0x3C u32 shaderSize
//	0x40 u64 nextJobVA (job chain)
type JobDescriptor struct {
	JobType       uint32
	Flags         uint32
	GlobalSize    [3]uint32
	LocalSize     [3]uint32
	ShaderVA      uint64
	ArgsVA        uint64
	LocalMemVA    uint64
	LocalMemBytes uint32
	ShaderSize    uint32
	NextJobVA     uint64
}

// JobDescSize is the descriptor's size in bytes.
const JobDescSize = 72

// JobTypeCompute is the only job type the compute-focused simulator runs.
const JobTypeCompute = 1

// Workgroups returns the total number of workgroups in the dispatch.
func (d *JobDescriptor) Workgroups() (uint64, error) {
	n := uint64(1)
	for i := 0; i < 3; i++ {
		if d.LocalSize[i] == 0 || d.GlobalSize[i] == 0 {
			return 0, fmt.Errorf("gpu: zero dimension in job (global=%v local=%v)", d.GlobalSize, d.LocalSize)
		}
		if d.GlobalSize[i]%d.LocalSize[i] != 0 {
			return 0, fmt.Errorf("gpu: global size %d not a multiple of local size %d", d.GlobalSize[i], d.LocalSize[i])
		}
		n *= uint64(d.GlobalSize[i] / d.LocalSize[i])
	}
	return n, nil
}

// workerResult carries one virtual core's shard of statistics.
type workerResult struct {
	gs     stats.GPUStats
	cfg    *stats.CFG
	walker *mmu.Walker // read after wg.Wait for its touched-page bitmap
	err    error
}

// execJob dispatches a decoded job across the configured host threads.
// Each host thread is a "virtual core" (§III-B3): it owns a TLB, a stats
// shard, and — when over-committed beyond the architectural core count —
// a host-side shadow local memory.
//
// Workgroups are partitioned statically (virtual core wi runs workgroups
// wi, wi+n, wi+2n, …): with per-core TLBs, the assignment decides which
// core takes each page's table walk, so a work-stealing counter would
// make the Table III TLB statistics a function of host scheduling. Static
// striding keeps them — and every other counter of a data-race-free
// kernel — exactly reproducible for a fixed HostThreads count.
//
//simlint:commit -- commits per-job register-usage and TLB counters
func (d *Device) execJob(desc *JobDescriptor, prog *Program, uniforms []uint64) error {
	totalWG, err := desc.Workgroups()
	if err != nil {
		return err
	}
	root := d.translationRoot()

	nWorkers := d.cfg.HostThreads
	if nWorkers < 1 {
		nWorkers = 1
	}
	if uint64(nWorkers) > totalWG {
		nWorkers = int(totalWG)
	}

	wgPerDim := [3]uint32{
		desc.GlobalSize[0] / desc.LocalSize[0],
		desc.GlobalSize[1] / desc.LocalSize[1],
		desc.GlobalSize[2] / desc.LocalSize[2],
	}
	collectCFG := d.collectCFG.Load()
	if d.warpSlabs == nil {
		d.warpSlabs = make([][]wgWarp, d.cfg.HostThreads)
	}

	results := make([]workerResult, nWorkers)
	var wg sync.WaitGroup
	for wi := 0; wi < nWorkers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			res := &results[wi]
			walker := mmu.NewSharedWalker(d.bus)
			walker.SetRoot(root)
			walker.ResetTouched()
			res.walker = walker

			local := d.localMemFor(wi, desc, walker)

			ec := &execContext{
				prog:     prog,
				eng:      d.cfg.Engine,
				uniforms: uniforms,
				bus:      d.bus,
				walker:   walker,
				local:    local,
				gsz:      desc.GlobalSize,
				lsz:      desc.LocalSize,
				gs:       &res.gs,
				trace:    d.trace,
				stop:     &d.stopReq,
				// This virtual core's slab: every workgroup the worker
				// runs reuses it (runWorkgroup grows it on demand).
				warpSlab: d.warpSlabs[wi],
			}
			defer func() { d.warpSlabs[wi] = ec.warpSlab }()
			ec.bindTape()
			if collectCFG {
				res.cfg = stats.NewCFG()
				ec.cfg = res.cfg
			}
			res.gs.RegistersUsed = uint64(prog.RegCount)

			// Job-entry fence: guest-visible state written before the
			// doorbell (descriptors, inputs) is ordered before any shader
			// access. The matching job-exit fence below orders every store
			// of this virtual core before job completion is signalled.
			// Workgroup boundaries deliberately have no global fence — as
			// on hardware, cross-core visibility between workgroups of one
			// job is only word-granular, clause-ordered (see DESIGN.md §7).
			mem.Fence()
			for i := uint64(wi); i < totalWG; i += uint64(nWorkers) {
				if d.stopReq.Load() {
					res.err = ErrStopped
					return
				}
				ec.wgid = [3]uint32{
					uint32(i) % wgPerDim[0],
					(uint32(i) / wgPerDim[0]) % wgPerDim[1],
					uint32(i) / (wgPerDim[0] * wgPerDim[1]),
				}
				if err := ec.runWorkgroup(); err != nil {
					res.err = err
					return
				}
			}
			mem.Fence()
		}(wi)
	}
	wg.Wait()

	// Totalling at job completion requires no further synchronisation
	// (§IV-A): each shard was written by exactly one goroutine.
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	for i := range results {
		r := &results[i]
		d.gpuStats.Merge(&r.gs)
		if r.cfg != nil {
			d.cfgGraph.Merge(r.cfg)
		}
		if r.walker != nil {
			d.sysStats.TLBHits += r.walker.Hits
			d.sysStats.TLBWalks += r.walker.Walks
			r.walker.ForEachTouched(func(p uint64) {
				d.touchedPages[p] = struct{}{}
			})
		}
	}
	// A genuine fault wins over the soft-stop marker so diagnostics are
	// not masked when a stop races a faulting workgroup.
	var stopped bool
	for i := range results {
		switch err := results[i].err; {
		case err == nil:
		case errors.Is(err, ErrStopped):
			stopped = true
		default:
			return err
		}
	}
	if stopped {
		return ErrStopped
	}
	return nil
}

// localMemFor selects the workgroup-local store for a virtual core. The
// driver allocates guest slots for the architectural core count; workers
// beyond that use host shadow buffers so over-commit stays functionally
// correct (§III-B3).
func (d *Device) localMemFor(worker int, desc *JobDescriptor, walker *mmu.Walker) localMemory {
	if desc.LocalMemBytes == 0 {
		return nil
	}
	if desc.LocalMemVA != 0 && worker < d.cfg.ShaderCores {
		return &guestLocal{
			base:   desc.LocalMemVA + uint64(worker)*uint64(desc.LocalMemBytes),
			size:   uint64(desc.LocalMemBytes),
			walker: walker,
		}
	}
	return &shadowLocal{buf: make([]byte, desc.LocalMemBytes)}
}

// wgWarp couples a warp with its scheduler state.
type wgWarp struct {
	w         warp
	done      bool
	atBarrier bool
}

// warpsFor returns a zeroed slab of n warps, reusing the context's
// recycled slab when it is large enough. Recycled warps must come back
// architecturally fresh — a kernel observes zero-initialised registers —
// so each reused slot is cleared (a single memclr per warp); only the
// divergence stack's backing array survives, with its length reset.
func (e *execContext) warpsFor(n int) []wgWarp {
	if cap(e.warpSlab) < n {
		e.warpSlab = make([]wgWarp, n)
		return e.warpSlab
	}
	s := e.warpSlab[:n]
	e.warpSlab = s
	for i := range s {
		st := s[i].w.stack[:0]
		s[i] = wgWarp{}
		s[i].w.stack = st
	}
	return s
}

// runWorkgroup executes one workgroup: all its threads grouped into
// quads, scheduled round-robin with barrier rendezvous. The execContext's
// wgid/gsz/lsz must be set.
//
//simlint:commit -- counts dispatched workgroups, threads and warps
func (e *execContext) runWorkgroup() error {
	if e.local == nil {
		e.local = unusableLocal{}
	}
	if e.tape != nil {
		for d, id := range e.wgid {
			e.uvals[uvWGID+d] = uint64(id)
		}
	}
	lsz := e.lsz
	total := int(lsz[0]) * int(lsz[1]) * int(lsz[2])
	nWarps := (total + WarpSize - 1) / WarpSize

	warps := e.warpsFor(nWarps)
	for t := 0; t < total; t++ {
		lx := uint32(t) % lsz[0]
		ly := (uint32(t) / lsz[0]) % lsz[1]
		lz := uint32(t) / (lsz[0] * lsz[1])
		wi, lane := t/WarpSize, t%WarpSize
		w := &warps[wi].w
		w.lanes = lane + 1
		w.active[lane] = true
		for d, l := range [3]uint32{lx, ly, lz} {
			w.rows[rowLID+d][lane] = uint64(l)
			w.rows[rowGID+d][lane] = uint64(e.wgid[d]*lsz[d] + l)
		}
	}

	e.gs.Workgroups++
	e.gs.Threads += uint64(total)
	e.gs.Warps += uint64(nWarps)

	remaining := nWarps
	for remaining > 0 {
		atBarrier := 0
		for i := range warps {
			ww := &warps[i]
			if ww.done {
				continue
			}
			if ww.atBarrier {
				atBarrier++
				continue
			}
			st, err := e.runWarp(&ww.w)
			if err != nil {
				return err
			}
			switch st {
			case warpDone:
				ww.done = true
				remaining--
			case warpAtBarrier:
				ww.atBarrier = true
				atBarrier++
			}
		}
		if remaining > 0 && atBarrier == remaining {
			// Barrier generation complete. Guest barriers are full fences;
			// one Fence at the rendezvous covers every warp's stores.
			mem.Fence()
			for i := range warps {
				if !warps[i].done {
					warps[i].atBarrier = false
				}
			}
		} else if remaining > 0 && atBarrier > 0 && atBarrier < remaining {
			// Some warps are parked but others still progress next pass.
			continue
		}
	}
	return nil
}

// unusableLocal rejects local accesses for kernels launched without local
// memory, turning a malformed dispatch into a job fault instead of a
// panic.
type unusableLocal struct{}

func (unusableLocal) load(uint64) (uint32, error) {
	return 0, fmt.Errorf("gpu: local memory access but job has no local allocation")
}

func (unusableLocal) store(uint64, uint32) error {
	return fmt.Errorf("gpu: local memory access but job has no local allocation")
}

// readGuest copies n bytes from the GPU address space, page by page (the
// underlying physical pages need not be contiguous).
func readGuest(walker *mmu.Walker, va uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := walker.ReadBytes(va, out); err != nil {
		return nil, err
	}
	return out, nil
}
